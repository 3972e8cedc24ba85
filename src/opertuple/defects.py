"""Defect operator polynomials and the classifiers and audits built on them.

The central objects are the m-isometry defect

    sum_k (-1)^(m-k) C(m,k) sum_{|alpha|=k} (k!/alpha!) T*^alpha T^alpha

and the joint (m; (q_1,...,q_d))-partial-isometry defect, which premultiplies
the inner alternating sum (with (-1)^k signs) by the monomial T^q. The two
sign conventions differ by a global factor (-1)^m, so zero-tests agree; norms
are reported under the (-1)^k convention.

The level sums L_k = Phi_{T*,T}^k(I) come from ``tuples.power_levels``, and the
fronted levels T^q L_k are formed from them and from T^q, each once per call and
shared by all its defects and orders; multi-index enumeration is kept as the
oracle in ``minverse``. The vector-state forms never go through L_k: all states
are the columns of one matrix, pushed along one monomial prefix tree per call, so
even the 2·dim² polarized states are affordable at dim 64.

Because the sums alternate and cancel, every zero-test is relative to the
largest level summand rather than to the final value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NumericalFailureError,
    ToleranceModel,
    adjoint,
    frobenius_norm,
    null_space_basis,
)
from .multiindex import prefix_tree, validate_multiindex
from .reports import (
    NOTE_PROP21_HYPOTHESIS,
    NOTE_THM21_SIGN,
    AuditReport,
    SubVerdict,
    Witness,
    build_report,
    to_json,
)
from .tuples import (
    OperatorTuple,
    QuasinormalFlags,
    _null_reducing,
    alternating_binomial_sum,
    power_levels,
    quasinormal_class,
    tuple_power,
)


@dataclass(frozen=True)
class DefectResult:
    """A defect operator with the norm and reference scale of its zero-test."""

    matrix: np.ndarray
    norm: float
    scale: float
    is_zero: bool


def _levels(t: OperatorTuple, kmax: int) -> list[np.ndarray]:
    """The level sums sum_{|alpha|=k} (k!/alpha!) (T^alpha)* (T^alpha), k = 0..kmax.

    Levels that overflow are left non-finite for ``_defect``, which raises on them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return power_levels([adjoint(m) for m in t], t, kmax)


def _fronted(levels: list[np.ndarray], front: np.ndarray) -> list[np.ndarray]:
    """The products front @ L_k, left non-finite where they overflow, as ``_levels`` leaves them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [front @ level for level in levels]


def _defect(terms: list[np.ndarray], m: int, tol: ToleranceModel) -> DefectResult:
    """sum_{k<=m} (-1)^k C(m,k) terms[k], terms L_k or T^q L_k, scaled by its largest summand."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        defect, scale = alternating_binomial_sum(terms[: m + 1], m)
        norm = frobenius_norm(defect)
    if not (math.isfinite(norm) and math.isfinite(scale)):
        raise NumericalFailureError(
            "defect is not finite: its level sums overflow",
            {"m": m, "norm": repr(norm), "scale": repr(scale)},
        )
    return DefectResult(matrix=defect, norm=norm, scale=scale, is_zero=tol.is_zero(norm, scale))


def _exponent_and_power(t: OperatorTuple, q) -> tuple[tuple[int, ...], np.ndarray]:
    """The validated exponent vector q and T^q, formed once for all of a call's uses."""
    q = validate_multiindex(q)
    if len(q) != t.d:
        raise ValueError(f"exponent vector has {len(q)} entries, tuple has d = {t.d}")
    return q, tuple_power(t, q)


def isometry_defect(t: OperatorTuple, m: int, tol: ToleranceModel = DEFAULT_TOL) -> DefectResult:
    """The m-isometry defect, with its (-1)^(m-k) signs as defined."""
    result = _defect(_levels(t, m), m, tol)
    return replace(result, matrix=(-1) ** m * result.matrix)


def partial_isometry_defect(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL
) -> DefectResult:
    """The joint (m; q)-partial-isometry defect T^q sum_k (-1)^k C(m,k) (...)."""
    return _partial_defects(t, (m,), _exponent_and_power(t, q)[1], tol)[0]


def _partial_defects(t: OperatorTuple, orders, power, tol: ToleranceModel) -> list[DefectResult]:
    """The (m; q)-partial-isometry defect for each m in ``orders``, from one list power @ L_k."""
    fronted = _fronted(_levels(t, max(orders)), power)
    return [_defect(fronted, m, tol) for m in orders]


def _state_sums(t: OperatorTuple, m: int, y: np.ndarray, ascent: int = 0) -> np.ndarray:
    """Per state y_c (column c of Y), sum_k (-1)^k C(m,k) level_(k+ascent)(y_c); finite or raises.

    level_k(y) = sum_{|alpha|=k} (k!/alpha!) <T^alpha y, T^alpha y>, from one product T_j Z per node
    of the monomial prefix tree; each <z, z> = ||z||^2 is real, so the levels are float64. With
    ascent 1 it is sum_j of the sum on T_j Y, as sum_{j: beta_j>0} k!/(beta-e_j)! = (k+1)!/beta!.
    """
    signs = np.array([(-1) ** k * math.comb(m, k) for k in range(m + 1)])[:, None]
    levels = np.zeros((m + ascent + 1, y.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        for k, weight, z in prefix_tree(t.d, m + ascent, y, lambda j, z: t[j] @ z):
            levels[k] += weight * np.einsum("ij,ij->j", z.conj(), z).real
        totals = (signs * levels[ascent:]).sum(axis=0)
    if not np.isfinite(totals).all():
        raise NumericalFailureError("scalar defect is not finite: state levels overflow", {"m": m})
    return totals


def scalar_defect(t: OperatorTuple, m: int, q, x) -> float:
    """The vector-state defect sum_k (-1)^k C(m,k) sum_alpha (k!/alpha!) ||T^alpha T*^q x||^2.

    One column of the kernel the audits run on all states at once (even the polarized ones at
    dim 64), never through L_k, so independent of the operator path; a sum of squared norms,
    it is real, and raises only when it overflows.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != t.dim:
        raise ValueError(f"vector has length {x.shape[0]}, expected {t.dim}")
    shifted = adjoint(_exponent_and_power(t, q)[1]) @ x[:, None]
    return float(_state_sums(t, m, shifted)[0])


def _nullity(m: np.ndarray, tol: ToleranceModel) -> int:
    """The numerical nullity of m: ``null_space_basis``'s column count, from the singular values."""
    s = np.linalg.svd(m, compute_uv=False)
    return int((s <= tol.rank_cutoff(m.shape[0], float(s[0]))).sum())


@dataclass(frozen=True)
class ClassificationReport:
    """Bundle of the classification predicates for one (T, m, q) instance.

    The isometry-defect norm is identical under both printed sign conventions
    (they differ by a global sign), so a single number serves both.
    """

    m: int
    q: tuple[int, ...]
    partial_isometry: bool
    partial_defect_norm: float
    partial_defect_scale: float
    isometry: bool
    isometry_defect_norm: float
    isometry_defect_scale: float
    quasinormal: QuasinormalFlags
    null_reducing: bool
    null_dim: int
    entrywise_invertible: tuple[bool, ...]
    tolerances: ToleranceModel

    def to_dict(self) -> dict:
        return to_json(self)


def classify(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL
) -> ClassificationReport:
    q, power = _exponent_and_power(t, q)
    levels = _levels(t, m)
    partial = _defect(_fronted(levels, power), m, tol)
    isom = _defect(levels, m, tol)
    reducing, basis = _null_reducing(t, q, power, tol)
    return ClassificationReport(
        m=m,
        q=q,
        partial_isometry=partial.is_zero,
        partial_defect_norm=partial.norm,
        partial_defect_scale=partial.scale,
        isometry=isom.is_zero,
        isometry_defect_norm=isom.norm,
        isometry_defect_scale=isom.scale,
        quasinormal=quasinormal_class(t, tol),
        null_reducing=reducing,
        null_dim=basis.shape[1],
        entrywise_invertible=tuple(_nullity(tj, tol) == 0 for tj in t),
        tolerances=tol,
    )


def _scalar_states(dim: int, polarize: bool) -> np.ndarray:
    """The states as columns: e_i, then e_i + e_j, e_i - e_j, e_i + i e_j, e_i - i e_j for i < j."""
    basis = np.eye(dim, dtype=np.complex128)
    if not polarize:
        return basis
    i, j = np.triu_indices(dim, 1)
    pairs = basis[:, i, None] + basis[:, j, None] * np.array([1.0, -1.0, 1j, -1j])
    return np.hstack([basis, pairs.reshape(dim, -1)])


def audit_theorem_2_1(
    t: OperatorTuple,
    m: int,
    q,
    tol: ToleranceModel = DEFAULT_TOL,
    seed: int = 0,
    polarize: bool = False,
) -> AuditReport:
    """Equivalence of the operator defect vanishing and the vector-state form.

    Hypothesis: N(T^q) reduces every component. The vector-state side
    quantifies over the standard basis (optionally the polarized combinations
    e_i +- e_j, e_i +- i e_j) applied through T*^q-shifted states.
    """
    q, power = _exponent_and_power(t, q)
    reducing, basis = _null_reducing(t, q, power, tol)
    operator = _partial_defects(t, (m,), power, tol)[0]

    states = _scalar_states(t.dim, polarize)
    magnitudes = np.abs(_state_sums(t, m, adjoint(power) @ states))
    worst = float(magnitudes.max())
    scalar_all_zero = all(tol.is_zero(v, operator.scale) for v in magnitudes)

    both_directions = operator.is_zero == scalar_all_zero
    witnesses = []
    if not scalar_all_zero:
        witnesses.append(Witness("max-scalar-defect state", tuple(states[:, magnitudes.argmax()])))

    subs = (
        SubVerdict(
            name="operator-zero iff vector-state-zero",
            hypotheses_hold=reducing,
            conclusion_holds=both_directions,
            vacuous=not reducing,
            details={
                "operator_defect_zero": operator.is_zero,
                "scalar_defect_all_zero": scalar_all_zero,
                "max_scalar_defect": worst,
                "polarized_states": polarize,
            },
        ),
    )
    return build_report(
        claim_id="thm2.1",
        hypothesis_breakdown={"null_space_reducing": reducing},
        sub_verdicts=subs,
        witnesses=witnesses,
        norms={
            "partial_defect_norm": operator.norm,
            "partial_defect_scale": operator.scale,
            "max_scalar_defect": worst,
            "null_dim": float(basis.shape[1]),
        },
        tolerances=tol,
        seed=seed,
        notes=(NOTE_THM21_SIGN,),
    )


def _null_spaces_stable(t: OperatorTuple, tol: ToleranceModel) -> bool:
    """N(T_j) = N(T_j^2) for every j. N(T_j) lies in N(T_j^2), so T_j must annihilate N(T_j^2)'s
    basis at T_j's rank cutoff, and the nullities, each at its own cutoff, must be equal."""
    for m in t:
        b2 = null_space_basis(m @ m, tol)
        annihilated = frobenius_norm(m @ b2) <= tol.rank_cutoff(t.dim, frobenius_norm(m))
        if _nullity(m, tol) != b2.shape[1] or not annihilated:
            return False
    return True


def audit_theorem_2_3(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Ascent: an (m; q)-partial isometry with reducing N(T^q) stays one at m+1, m+2."""
    q, power = _exponent_and_power(t, q)
    base, up1, up2 = _partial_defects(t, (m, m + 1, m + 2), power, tol)
    reducing, _ = _null_reducing(t, q, power, tol)
    hyp = base.is_zero and reducing
    subs = (
        SubVerdict(
            name="defect stays zero at m+1 and m+2",
            hypotheses_hold=hyp,
            conclusion_holds=up1.is_zero and up2.is_zero,
            vacuous=not hyp,
            details={
                "defect_m_zero": base.is_zero,
                "null_space_reducing": reducing,
                "defect_m_plus_1_norm": up1.norm,
                "defect_m_plus_2_norm": up2.norm,
            },
        ),
    )
    return build_report(
        claim_id="thm2.3",
        hypothesis_breakdown={"partial_isometry": base.is_zero, "null_space_reducing": reducing},
        sub_verdicts=subs,
        norms={
            "defect_m_norm": base.norm,
            "defect_m_plus_1_norm": up1.norm,
            "defect_m_plus_2_norm": up2.norm,
            "defect_scale": base.scale,
        },
        tolerances=tol,
        seed=seed,
    )


def audit_theorem_2_2(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Stable null spaces collapse any (m; q)-partial isometry to q = (1,...,1)."""
    q, power = _exponent_and_power(t, q)
    levels, ones_q = _levels(t, m), (1,) * t.d
    base = _defect(_fronted(levels, power), m, tol)
    stable = _null_spaces_stable(t, tol)
    ones = base if q == ones_q else _defect(_fronted(levels, tuple_power(t, ones_q)), m, tol)
    hyp = base.is_zero and stable
    subs = (
        SubVerdict(
            name="collapse to q = (1,...,1)",
            hypotheses_hold=hyp,
            conclusion_holds=ones.is_zero,
            vacuous=not hyp,
            details={
                "defect_q_zero": base.is_zero,
                "null_spaces_stable": stable,
                "defect_ones_norm": ones.norm,
            },
        ),
    )
    return build_report(
        claim_id="thm2.2",
        hypothesis_breakdown={"partial_isometry": base.is_zero, "null_spaces_stable": stable},
        sub_verdicts=subs,
        norms={"defect_q_norm": base.norm, "defect_ones_norm": ones.norm},
        tolerances=tol,
        seed=seed,
    )


def audit_proposition_2_1(
    t: OperatorTuple, m: int, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Quasinormal (m; 1...1)-partial isometries are already (1; 1...1) ones.

    The statement assumes joint quasinormality while the proof uses the
    matricial kind; both flags are recorded and the stated (joint) hypothesis
    drives the verdict.
    """
    ones = (1,) * t.d
    flags = quasinormal_class(t, tol)
    base, first = _partial_defects(t, (m, 1), tuple_power(t, ones), tol)
    hyp = flags.joint and base.is_zero
    subs = (
        SubVerdict(
            name="order drops to m = 1",
            hypotheses_hold=hyp,
            conclusion_holds=first.is_zero,
            vacuous=not hyp,
            details={
                "jointly_quasinormal": flags.joint,
                "matricially_quasinormal": flags.matricial,
                "defect_m_zero": base.is_zero,
                "defect_1_norm": first.norm,
            },
        ),
    )
    return build_report(
        claim_id="prop2.1",
        hypothesis_breakdown={"jointly_quasinormal": flags.joint, "partial_isometry": base.is_zero},
        sub_verdicts=subs,
        norms={"defect_m_norm": base.norm, "defect_1_norm": first.norm},
        tolerances=tol,
        seed=seed,
        notes=(NOTE_PROP21_HYPOTHESIS,),
    )


def audit_proposition_2_4(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Given an (m; q)-partial isometry, (m+1; q) holds iff the shifted vector-state sum over
    the components vanishes on all basis states. As sum_j level_k(T_j Y) = level_(k+1)(Y) by
    sum_j k!/(beta-e_j)! = (k+1)!/beta!, one prefix tree of depth m+1 on T*^q is walked."""
    q, power = _exponent_and_power(t, q)
    base, up = _partial_defects(t, (m, m + 1), power, tol)
    worst = float(np.abs(_state_sums(t, m, adjoint(power), ascent=1)).max())
    identity_zero = tol.is_zero(worst, max(1.0, base.scale))
    hyp = base.is_zero
    subs = (
        SubVerdict(
            name="(m+1; q) iff shifted identity vanishes",
            hypotheses_hold=hyp,
            conclusion_holds=up.is_zero == identity_zero,
            vacuous=not hyp,
            details={
                "defect_m_plus_1_zero": up.is_zero,
                "identity_sum_zero": identity_zero,
                "max_identity_sum": worst,
            },
        ),
    )
    return build_report(
        claim_id="prop2.4",
        hypothesis_breakdown={"partial_isometry": base.is_zero},
        sub_verdicts=subs,
        norms={
            "defect_m_norm": base.norm,
            "defect_m_plus_1_norm": up.norm,
            "max_identity_sum": worst,
        },
        tolerances=tol,
        seed=seed,
    )

