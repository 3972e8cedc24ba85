"""Left and right m-inverses of commuting tuples via the beta polynomial.

beta_m(S, T) = sum_k (-1)^(m-k) C(m,k) sum_{|alpha|=k} (k!/alpha!) S^alpha T^alpha
vanishes exactly when S is a joint left m-inverse of T. It is computed by
Lemma 4.1's recurrence on Phi_{S,T}(X) = sum_j S_j X T_j (``tuples.hereditary_shift``),

    beta_{k+1} = -beta_k + Phi_{S,T}(beta_k),  beta_0 = I.

Enumeration over multi-indices is the tests' independent oracle, not run here.
The power-sum left side is the level Phi_{S,T}^n(I) from ``tuples.power_levels``.
Only internal commutativity of S and of T is assumed; components of S need not
commute with components of T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import DEFAULT_TOL, NumericalFailureError, ToleranceModel, frobenius_norm
from .multiindex import pochhammer_descending
from .reports import NOTE_POCHHAMMER_ZERO, NOTE_PROP41_COEFF, AuditReport, build_report, sub_verdict
from .tuples import OperatorTuple, hereditary_shift, power_levels

PASS_TOL = 1e-10  # prop4.1: largest relative deviation of an expansion that passes


@dataclass(frozen=True)
class BetaResult:
    matrix: np.ndarray
    norm: float
    scale: float


def _check_shapes(s: OperatorTuple, t: OperatorTuple) -> None:
    if s.d != t.d or s.dim != t.dim:
        raise ValueError(
            f"tuples disagree in shape: (d={s.d}, dim={s.dim}) vs (d={t.d}, dim={t.dim})"
        )


def _beta_levels(s: OperatorTuple, t: OperatorTuple, m: int, betas=None) -> list[np.ndarray]:
    """beta_0..beta_m (or more) by beta_{k+1} = -beta_k + Phi_{S,T}(beta_k), after ``betas``."""
    betas = list(betas or [np.eye(t.dim, dtype=np.complex128)])
    while len(betas) <= m:
        betas.append(hereditary_shift(s, t, betas[-1]) - betas[-1])
    return betas


def beta(
    s: OperatorTuple,
    t: OperatorTuple,
    m: int,
    method: str = "auto",
) -> BetaResult:
    """beta_m(S, T) by the recurrence, with scale max_k ||beta_k||_F over k = 0..m.

    ``method`` is "auto" or "recurrence"; both run the same recurrence. A beta whose norm
    or scale overflows raises NumericalFailureError.
    """
    _check_shapes(s, t)
    if method not in ("auto", "recurrence"):
        raise ValueError(f"unknown beta method {method!r}")
    return _beta(s, t, m)


def _beta(s: OperatorTuple, t: OperatorTuple, m: int, betas=None) -> BetaResult:
    """``beta`` on tuples of one shape; the recurrence reads or continues given levels ``betas``."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite beta raises below
        betas = _beta_levels(s, t, m, betas)[: m + 1]
        matrix, scale = betas[-1], max(frobenius_norm(b) for b in betas)
        norm = frobenius_norm(matrix)
    if not (math.isfinite(norm) and math.isfinite(scale)):
        raise NumericalFailureError(
            "beta is not finite: its levels overflow",
            {"m": m, "norm": repr(norm), "scale": repr(scale)},
        )
    return BetaResult(matrix=matrix, norm=norm, scale=scale)


def is_left_m_inverse(
    s: OperatorTuple, t: OperatorTuple, m: int, tol: ToleranceModel = DEFAULT_TOL
) -> bool:
    """Whether beta_m(S, T) vanishes: S is a joint left m-inverse of T, and T a right one of S."""
    result = beta(s, t, m)
    return tol.is_zero(result.norm, result.scale)


def _power_sum_sides(s: OperatorTuple, t: OperatorTuple, n: int) -> tuple[list, list]:
    """The levels Phi_{S,T}^k(I) and beta_k(S, T), k = 0..n: both sides of every expansion.

    A non-finite one raises NumericalFailureError, as in ``beta``, before any deviation."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite level raises below
        levels, betas = power_levels(s, t, n), _beta_levels(s, t, n)
    for k in range(n + 1):
        if not (np.isfinite(levels[k]).all() and np.isfinite(betas[k]).all()):
            raise NumericalFailureError(
                "power sum is not finite: its levels overflow", {"k": k, "n": n}
            )
    return levels, betas


def _expansion(lhs, betas, n: int, mode: str, kmax: int) -> tuple[np.ndarray, float]:
    """rhs = sum_{k <= kmax} coeff(n, k) beta_k and its deviation from lhs."""
    rhs = sum(
        (math.comb(n, k) if mode == "binomial" else pochhammer_descending(n, k)) * betas[k]
        for k in range(kmax + 1)
    )
    return rhs, float(frobenius_norm(lhs - rhs) / max(1.0, frobenius_norm(lhs)))


def expand_power_sum(
    s: OperatorTuple,
    t: OperatorTuple,
    n: int,
    coefficient_mode: str = "binomial",
) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of the power-sum expansion, under a chosen coefficient set.

    lhs = sum_{|alpha|=n} (n!/alpha!) S^alpha T^alpha, computed as the level
    Phi_{S,T}^n(I); rhs = sum_k coeff(n, k) beta_k(S, T) from the beta
    recurrence, with coeff either the binomial C(n,k) (the corrected choice,
    an exact identity for all commuting pairs) or the printed descending
    Pochhammer n^(k). Returns (lhs, rhs, deviation) where
    deviation = ||lhs - rhs||_F / max(1, ||lhs||_F). Requires n >= 1: the
    Pochhammer convention 0^(0) = 0 breaks the n = 0 instance. A level or beta
    past the float range raises NumericalFailureError.
    """
    _check_shapes(s, t)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if coefficient_mode not in ("binomial", "pochhammer"):
        raise ValueError(f"unknown coefficient mode {coefficient_mode!r}")
    levels, betas = _power_sum_sides(s, t, n)
    rhs, deviation = _expansion(levels[n], betas, n, coefficient_mode, n)
    return levels[n], rhs, deviation


def audit_theorem_4_1(
    s: OperatorTuple,
    t: OperatorTuple,
    m: int,
    tol: ToleranceModel = DEFAULT_TOL,
    seed: int = 0,
) -> AuditReport:
    """Spectral consequences of a left m-inverse: sigma(T) maps into sigma(S)."""
    from .spectra import spectral_mapping_audit

    return spectral_mapping_audit("thm4.1", t, s, beta(s, t, m), tol, seed)


def audit_theorem_4_2(
    r: OperatorTuple,
    t: OperatorTuple,
    m: int,
    tol: ToleranceModel = DEFAULT_TOL,
    seed: int = 0,
) -> AuditReport:
    """Right-inverse variant: sigma(R) maps into sigma(T)."""
    from .spectra import spectral_mapping_audit

    return spectral_mapping_audit("thm4.2", r, t, beta(t, r, m), tol, seed)


def audit_proposition_4_1(
    s: OperatorTuple,
    t: OperatorTuple,
    tol: ToleranceModel = DEFAULT_TOL,
    seed: int = 0,
    n_max: int = 6,
    inverse_order: int | None = None,
) -> AuditReport:
    """Power-sum expansion audit over n = 1..n_max, both coefficient modes.

    The printed Pochhammer coefficients are the claim under audit; the
    binomial substitute is reported alongside. When ``inverse_order`` m is
    given and S verifies as a left m-inverse, the truncated expansions over
    k <= m-1 (item (2)) are audited as well, with the hypothesis decided as in
    ``is_left_m_inverse`` on the audit's own beta levels, continued past n_max.
    A level or beta past the float range raises NumericalFailureError before
    any deviation is taken.
    """
    _check_shapes(s, t)
    levels, betas = _power_sum_sides(s, t, n_max)

    deviation = cache(lambda mode, n, kmax: _expansion(levels[n], betas, n, mode, kmax)[1])

    def max_deviation(mode: str, kmax: int) -> float:
        """Largest deviation over n = 1..n_max, cut at k <= min(kmax, n); each cut is taken once."""
        return max(deviation(mode, n, min(kmax, n)) for n in range(1, n_max + 1))

    poch, binom = max_deviation("pochhammer", n_max), max_deviation("binomial", n_max)
    subs = [
        sub_verdict(
            "(1) expansion with printed pochhammer coefficients", poch <= PASS_TOL,
            binds_under=("commuting_pair",), max_deviation=poch, n_max=n_max,
        ),
        sub_verdict(  # the corrected variant
            "(1') expansion with binomial coefficients", binom <= PASS_TOL,
            informational=True, binds_under=("commuting_pair",), max_deviation=binom, n_max=n_max,
        ),
    ]
    breakdown = {"commuting_pair": True}
    norms = {"max_pochhammer_deviation": poch, "max_binomial_deviation": binom}

    if inverse_order is not None:
        inverse = _beta(s, t, inverse_order, betas)
        breakdown["left_m_inverse"] = tol.is_zero(inverse.norm, inverse.scale)
        poch = max_deviation("pochhammer", inverse_order - 1)
        binom = max_deviation("binomial", inverse_order - 1)
        subs += [
            sub_verdict(
                "(2) truncated expansion, pochhammer coefficients", poch <= PASS_TOL, max_deviation=poch
            ),
            sub_verdict(
                "(2') truncated expansion, binomial coefficients", binom <= PASS_TOL,
                informational=True, max_deviation=binom,
            ),
        ]

    return build_report(
        "prop4.1", breakdown, subs, norms=norms,
        tolerances=tol, seed=seed, notes=(NOTE_PROP41_COEFF, NOTE_POCHHAMMER_ZERO),
    )
