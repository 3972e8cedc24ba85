"""Defect operator polynomials and the classifiers and audits built on them.

The central objects are the m-isometry defect

    sum_k (-1)^(m-k) C(m,k) sum_{|alpha|=k} (k!/alpha!) T*^alpha T^alpha

and the joint (m; (q_1,...,q_d))-partial-isometry defect, which premultiplies
the inner alternating sum (with (-1)^k signs) by the monomial T^q. The two
sign conventions differ by a global factor (-1)^m, so zero-tests agree; norms
are reported under the (-1)^k convention.

Every audit of an (m; q) claim reads its facts off one ``Facts(t, q, tol, seed)``:
q and T^q, the level sums L_k = Phi_{T*,T}^k(I) from ``tuples.power_levels``
and the fronted levels T^q L_k, each order's defect, the N(T^q) reducing test
and T's triangularization, each formed once, when first asked for. Multi-index
enumeration is kept as the oracle in ``minverse``. The vector-state forms never
go through L_k: all states are the columns of one matrix, pushed along one
monomial prefix tree per call, so even the 2·dim² polarized states are
affordable at dim 64 (up to m = 5 at d = 4, under MAX_STATE_PRODUCTS).

Because the sums alternate and cancel, every zero-test is relative to the
largest level summand rather than to the final value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NumericalFailureError,
    ToleranceModel,
    adjoint,
    frobenius_norm,
    null_space_basis,
    unit_scaled,
)
from .multiindex import prefix_tree, validate_multiindex
from .reports import (
    NOTE_PROP21_HYPOTHESIS,
    NOTE_THM21_SIGN,
    AuditReport,
    Witness,
    build_report,
    sub_verdict,
    to_json,
)
from .tuples import (
    OperatorTuple,
    QuasinormalFlags,
    alternating_binomial_sum,
    monomial,
    power_levels,
    quasinormal_class,
    tuple_power,
)


# The most prefix-tree nodes of one vector-state walk, C(m + d, d) (C(m + 1 + d, d) for prop2.4),
# and its most complex multiply-adds, nodes x dim^2 x states: 2^19 nodes admit d = 5 at m = MAX_ORDER,
# and 2^32 multiply-adds take about 1 s (0.18-0.23 ns each at dim 64, 1 BLAS thread).
MAX_STATE_NODES = 524288
MAX_STATE_PRODUCTS = 2**32


@dataclass(frozen=True)
class DefectResult:
    """A defect operator with the norm and reference scale of its zero-test."""

    matrix: np.ndarray
    norm: float
    scale: float
    is_zero: bool


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


class Facts:
    """The facts of one audited (T, q), each formed once, when first asked for.

    q is validated and T^q (``power``) formed at construction. The levels L_k
    and the fronted levels T^q L_k are formed up to the highest order asked
    for, each (m; q)-partial-isometry defect is kept by m, ``null_space`` is the
    N(T^q) reducing test with the basis it tested, and ``triangularization`` is
    T's at ``seed``. ``at(q)`` gives the facts of another q on the same levels.
    """

    def __init__(self, t: OperatorTuple, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0):
        q = validate_multiindex(q)
        if len(q) != t.d:
            raise ValueError(f"exponent vector has {len(q)} entries, tuple has d = {t.d}")
        self.t, self.q, self.tol, self.seed = t, q, tol, seed
        self.power = tuple_power(t, q)
        self._levels: list[np.ndarray] = []
        self._fronted: list[np.ndarray] = []
        self._defects: dict[int, DefectResult] = {}

    def at(self, q) -> Facts:
        """The facts of (T, q) for another q, sharing these levels L_k."""
        other = Facts(self.t, q, self.tol, self.seed)
        other._levels = self._levels
        return other

    def levels(self, kmax: int) -> list[np.ndarray]:
        """L_0, L_1, ..., at least up to L_kmax. An order past those held forms the list
        anew, in place, so the facts that share it (``at``) see it."""
        if len(self._levels) <= kmax:
            self._levels[:] = power_levels([adjoint(m) for m in self.t], self.t, kmax)
        return self._levels

    def fronted(self, kmax: int) -> list[np.ndarray]:
        """T^q L_0, ..., at least up to T^q L_kmax, left non-finite where they overflow, as the levels are."""
        levels = self.levels(kmax)
        with np.errstate(over="ignore", invalid="ignore"):
            self._fronted += [self.power @ level for level in levels[len(self._fronted) : kmax + 1]]
        return self._fronted

    def defect(self, m: int) -> DefectResult:
        """The (m; q)-partial-isometry defect T^q sum_k (-1)^k C(m,k) L_k."""
        if m not in self._defects:
            self._defects[m] = _defect(self.fronted(m), m, self.tol)
        return self._defects[m]

    def defects(self, *orders: int) -> list[DefectResult]:
        """The defect of each order, on levels formed once, up to the highest."""
        self.fronted(max(orders))
        return [self.defect(m) for m in orders]

    @property
    def roundoff_scale(self) -> float:
        """sigma_max of |T_1|^(q_1) ... |T_d|^(q_d), |.| taken entry by entry.

        The computed T^q is off from the exact one by at most a small multiple of
        eps dim times this matrix, entry by entry (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., 3.5), so a T^q zero up to roundoff has the
        whole space as null space. For diagonal T it is ||T^q||_2 itself. 0 when it
        or this matrix passes the float range; then sigma_max alone sets the cutoff.
        """
        bound = monomial([np.abs(m) for m in self.t], self.q)
        sigma = float(np.linalg.svd(bound, compute_uv=False)[0]) if np.isfinite(bound).all() else math.inf
        return sigma if math.isfinite(sigma) else 0.0

    @cached_property
    def null_space(self) -> tuple[bool, np.ndarray]:
        """Whether N(T^q) is invariant under every T_j and T_j*, and its basis B.

        B is orthonormal, at the rank cutoff of ``roundoff_scale``; the residual
        is the largest ||(I - BB*) X B||_F over X = T_j, T_j*, 0 for the trivial
        null space, which is reducing. A T^q past the float range raises
        NumericalFailureError, as the defects do on levels that overflow.
        """
        t, tol = self.t, self.tol
        if not np.isfinite(self.power).all():
            raise NumericalFailureError("T^q is not finite: the power overflows", {"q": list(self.q)})
        basis = null_space_basis(self.power, tol, self.roundoff_scale)
        outside = np.eye(t.dim) - basis @ adjoint(basis)
        with np.errstate(over="ignore"):  # frobenius_norm rescales what overflows
            scale = max(frobenius_norm(m) for m in t)
            residual = max(0.0, *(frobenius_norm(outside @ (x @ basis)) for m in t for x in (m, adjoint(m))))
        return tol.is_zero(residual, scale), basis

    @cached_property
    def triangularization(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(Q, [U_j]) of ``spectra.simultaneous_triangularize`` at ``seed``, for the section-3 audits."""
        from . import spectra

        return spectra.simultaneous_triangularize(self.t, self.seed, self.tol)

    def hypotheses(self, m: int) -> dict:
        """The section-2/3 hypotheses of an (m; q) claim: T is an (m; q)-partial
        isometry, and N(T^q) reduces T."""
        return {"partial_isometry": self.defect(m).is_zero, "null_space_reducing": self.null_space[0]}


def null_reducing_check(
    t: OperatorTuple, q, tol: ToleranceModel = DEFAULT_TOL
) -> tuple[bool, np.ndarray]:
    """Whether N(T^q) is invariant under every T_j and T_j*, with the basis tested
    (``Facts.null_space``)."""
    return Facts(t, q, tol).null_space


def isometry_defect(t: OperatorTuple, m: int, tol: ToleranceModel = DEFAULT_TOL) -> DefectResult:
    """The m-isometry defect, with its (-1)^(m-k) signs as defined."""
    result = _defect(power_levels([adjoint(x) for x in t], t, m), m, tol)
    return replace(result, matrix=(-1) ** m * result.matrix)


def partial_isometry_defect(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL
) -> DefectResult:
    """The joint (m; q)-partial-isometry defect T^q sum_k (-1)^k C(m,k) (...)."""
    return Facts(t, q, tol).defect(m)


def _state_sums(t: OperatorTuple, m: int, y: np.ndarray, ascent: int = 0) -> np.ndarray:
    """Per state y_c (column c of Y), sum_k (-1)^k C(m,k) level_(k+ascent)(y_c); finite or raises.

    level_k(y) = sum_{|alpha|=k} (k!/alpha!) <T^alpha y, T^alpha y>, from one product T_j Z per node
    of the monomial prefix tree and one fused conjugate dot ``np.vecdot`` over Z's columns, which
    neither copies conj(Z) nor runs einsum's generic loop; each <z, z> = ||z||^2 is real, so the
    levels are float64. With ascent 1 it is sum_j of the sum on T_j Y, as
    sum_{j: beta_j>0} k!/(beta-e_j)! = (k+1)!/beta!. A walk past MAX_STATE_NODES or
    MAX_STATE_PRODUCTS raises first.
    """
    nodes = math.comb(m + ascent + t.d, t.d)
    walk = f"the vector-state walk at d = {t.d}, order {m + ascent}"
    if nodes > MAX_STATE_NODES:
        raise ValueError(f"{walk} has {nodes} nodes, more than MAX_STATE_NODES = {MAX_STATE_NODES}")
    if (products := nodes * t.dim**2 * y.shape[1]) > MAX_STATE_PRODUCTS:
        work = f"on {y.shape[1]} states of dim {t.dim} takes {products} multiply-adds"
        raise ValueError(f"{walk} {work}, more than MAX_STATE_PRODUCTS = {MAX_STATE_PRODUCTS}")
    signs = np.array([(-1) ** k * math.comb(m, k) for k in range(m + 1)])[:, None]
    levels = np.zeros((m + ascent + 1, y.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        for k, weight, z in prefix_tree(t.d, m + ascent, y, lambda j, z: t[j] @ z):
            levels[k] += weight * np.vecdot(z.T, z.T).real
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
    shifted = adjoint(Facts(t, q).power) @ x[:, None]
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
    facts = Facts(t, q, tol)
    partial = facts.defect(m)
    isom = _defect(facts.levels(m), m, tol)
    reducing, basis = facts.null_space
    return ClassificationReport(
        m=m,
        q=facts.q,
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
    facts = Facts(t, q, tol)
    reducing, basis = facts.null_space
    operator = facts.defect(m)

    states = _scalar_states(t.dim, polarize)
    shift = adjoint(facts.power)
    magnitudes = np.abs(_state_sums(t, m, shift @ states if polarize else shift))
    worst = float(magnitudes.max())
    scalar_all_zero = bool((magnitudes <= tol.threshold(operator.scale)).all())

    both_directions = operator.is_zero == scalar_all_zero
    witnesses = []
    if not scalar_all_zero:
        witnesses.append(Witness("max-scalar-defect state", tuple(states[:, magnitudes.argmax()])))

    return build_report(
        "thm2.1", {"null_space_reducing": reducing},
        [sub_verdict(
            "operator-zero iff vector-state-zero", both_directions,
            operator_defect_zero=operator.is_zero, scalar_defect_all_zero=scalar_all_zero,
            max_scalar_defect=worst, polarized_states=polarize,
        )],
        witnesses,
        {
            "partial_defect_norm": operator.norm, "partial_defect_scale": operator.scale,
            "max_scalar_defect": worst, "null_dim": float(basis.shape[1]),
        },
        tolerances=tol, seed=seed, notes=(NOTE_THM21_SIGN,),
    )


def _null_spaces_stable(t: OperatorTuple, tol: ToleranceModel) -> bool:
    """N(T_j) = N(T_j^2) for every j. N(T_j) lies in N(T_j^2), so T_j must annihilate N(T_j^2)'s
    basis at T_j's rank cutoff, and the nullities, each at its own cutoff, must be equal. Each
    T_j is first scaled to unit magnitude (``unit_scaled``), so T_j^2 neither underflows nor
    overflows and the verdict does not depend on the input's units."""
    for m in map(unit_scaled, t):
        b2 = null_space_basis(m @ m, tol)
        annihilated = frobenius_norm(m @ b2) <= tol.rank_cutoff(t.dim, frobenius_norm(m))
        if _nullity(m, tol) != b2.shape[1] or not annihilated:
            return False
    return True


def audit_theorem_2_3(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Ascent: an (m; q)-partial isometry with reducing N(T^q) stays one at m+1, m+2."""
    facts = Facts(t, q, tol)
    base, up1, up2 = facts.defects(m, m + 1, m + 2)
    hypotheses = facts.hypotheses(m)
    return build_report(
        "thm2.3", hypotheses,
        [sub_verdict(
            "defect stays zero at m+1 and m+2", up1.is_zero and up2.is_zero,
            defect_m_zero=base.is_zero, null_space_reducing=hypotheses["null_space_reducing"],
            defect_m_plus_1_norm=up1.norm, defect_m_plus_2_norm=up2.norm,
        )],
        norms={
            "defect_m_norm": base.norm, "defect_m_plus_1_norm": up1.norm,
            "defect_m_plus_2_norm": up2.norm, "defect_scale": base.scale,
        },
        tolerances=tol, seed=seed,
    )


def audit_theorem_2_2(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Stable null spaces collapse any (m; q)-partial isometry to q = (1,...,1)."""
    facts, ones_q = Facts(t, q, tol), (1,) * t.d
    base = facts.defect(m)
    stable = _null_spaces_stable(t, tol)
    ones = (facts if facts.q == ones_q else facts.at(ones_q)).defect(m)
    return build_report(
        "thm2.2", {"partial_isometry": base.is_zero, "null_spaces_stable": stable},
        [sub_verdict(
            "collapse to q = (1,...,1)", ones.is_zero,
            defect_q_zero=base.is_zero, null_spaces_stable=stable, defect_ones_norm=ones.norm,
        )],
        norms={"defect_q_norm": base.norm, "defect_ones_norm": ones.norm},
        tolerances=tol, seed=seed,
    )


def audit_proposition_2_1(
    t: OperatorTuple, m: int, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Quasinormal (m; 1...1)-partial isometries are already (1; 1...1) ones.

    The statement assumes joint quasinormality while the proof uses the
    matricial kind; both flags are recorded and the stated (joint) hypothesis
    drives the verdict.
    """
    flags = quasinormal_class(t, tol)
    base, first = Facts(t, (1,) * t.d, tol).defects(m, 1)
    return build_report(
        "prop2.1", {"jointly_quasinormal": flags.joint, "partial_isometry": base.is_zero},
        [sub_verdict(
            "order drops to m = 1", first.is_zero,
            jointly_quasinormal=flags.joint, matricially_quasinormal=flags.matricial,
            defect_m_zero=base.is_zero, defect_1_norm=first.norm,
        )],
        norms={"defect_m_norm": base.norm, "defect_1_norm": first.norm},
        tolerances=tol, seed=seed, notes=(NOTE_PROP21_HYPOTHESIS,),
    )


def audit_proposition_2_4(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Given an (m; q)-partial isometry, (m+1; q) holds iff the shifted vector-state sum over
    the components vanishes on all basis states. As sum_j level_k(T_j Y) = level_(k+1)(Y) by
    sum_j k!/(beta-e_j)! = (k+1)!/beta!, one prefix tree of depth m+1 on T*^q is walked."""
    facts = Facts(t, q, tol)
    base, up = facts.defects(m, m + 1)
    worst = float(np.abs(_state_sums(t, m, adjoint(facts.power), ascent=1)).max())
    identity_zero = tol.is_zero(worst, max(1.0, base.scale))
    return build_report(
        "prop2.4", {"partial_isometry": base.is_zero},
        [sub_verdict(
            "(m+1; q) iff shifted identity vanishes", up.is_zero == identity_zero,
            defect_m_plus_1_zero=up.is_zero, identity_sum_zero=identity_zero, max_identity_sum=worst,
        )],
        norms={"defect_m_norm": base.norm, "defect_m_plus_1_norm": up.norm, "max_identity_sum": worst},
        tolerances=tol, seed=seed,
    )

