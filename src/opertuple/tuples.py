"""Commuting operator tuples: the validated container and its basic algebra.

Commutativity is enforced once, at construction; every formula downstream
silently assumes it. Monomial powers T^alpha follow the fixed component order
T_1^(a_1) ... T_d^(a_d) so results are bit-stable even though commutativity
would allow any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .linalg import (
    DEFAULT_TOL, NumericalFailureError, ToleranceModel, adjoint, as_matrix, binary_exponent, frobenius_norm,
    times_power_of_two, unit_scaled,
)
from .multiindex import validate_multiindex

UNITARY_TOL = 1e-8  # conjugate_by_unitary: largest ||V*V - I||_F accepted as unitary


class NonCommutingError(Exception):
    """A candidate tuple failed the pairwise-commutator gate."""

    def __init__(self, i: int, j: int, norm: float, threshold: float):
        super().__init__(
            f"components {i} and {j} do not commute: "
            f"||[T_{i}, T_{j}]||_F = {norm:.3e} > {threshold:.3e}"
        )
        self.i = i
        self.j = j
        self.norm = norm
        self.threshold = threshold


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """Ordered tuple of d pairwise-commuting square complex matrices."""

    matrices: tuple[np.ndarray, ...]
    max_commutator_norm: float

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, j: int) -> np.ndarray:
        return self.matrices[j]

    def __iter__(self):
        return iter(self.matrices)


def _exponent(a: np.ndarray) -> int:
    """The least e >= 0 that brings every real and imaginary part of A / 2^e below 2: exact away from
    underflow, so decisions on scaled factors are the plain ones, and their products cannot overflow."""
    return max(0, binary_exponent(a) - 1)


def _commutator_norm(x: np.ndarray, y: np.ndarray) -> float:
    """||XY - YX||_F, YX subtracted in place from XY."""
    c = x @ y
    c -= y @ x
    return frobenius_norm(c)


def unit_copy(t: OperatorTuple) -> tuple[OperatorTuple, int]:
    """(T', e) with T' = T / 2^e, e the one exponent of the whole tuple that brings T's largest real or
    imaginary part into [1, 2), as ``unit_scaled`` does. The normal basis and every spectral decision are
    taken on T', whose outputs ``scaled`` multiplies by 2^e; both are exact, so 2^k T has T's T' (T' its own)."""
    stack = np.stack(t.matrices)
    if not (e := binary_exponent(stack) - 1):
        return t, 0
    return OperatorTuple(tuple(scaled(stack, -e)), float(np.ldexp(t.max_commutator_norm, -2 * e))), e


def scaled(a: np.ndarray, e: int) -> np.ndarray:
    """a times 2^e, exactly; NumericalFailureError when its largest part passes the float range."""
    x = np.ascontiguousarray(a)
    if e > 0 and (top := binary_exponent(x) + e) > 1024:  # the largest part is in [2^(top-1), 2^top)
        raise NumericalFailureError("a spectral value passes the float range", {"binary_exponent": top})
    return np.ldexp(x.view(np.float64), e).view(x.dtype)


def combination(t: OperatorTuple, seed: int) -> np.ndarray:
    """sum_j c_j T_j at unit magnitude (``unit_scaled``), c a unit vector of complex normals drawn from
    ``seed``: the one combination every Schur basis of T is proposed from (on T' it cannot overflow)."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(t.d) + 1j * rng.standard_normal(t.d)
    return unit_scaled(sum(wj * m for wj, m in zip(c / np.linalg.norm(c), t)))


def conjugated(q: np.ndarray, t: OperatorTuple) -> np.ndarray:
    """The Q* T_j Q, stacked."""
    return np.stack([adjoint(q) @ m @ q for m in t])


def _pair_commutators(mats, partner=lambda m: m):
    """(i, j, ||[X_i, partner(X_j)]||_F, ||X_i||_F ||X_j||_F, ei + ej) for each pair i < j in turn, X_i = T_i / 2^ei
    (``_exponent``), once for all its pairs: exact away from underflow, so ``tol.is_zero`` of the last three is the
    plain decision wherever the plain products are finite, whatever the components' scales, and none overflows."""
    exponents = [_exponent(m) for m in mats]
    down = [scaled(m, -e) if e else m for m, e in zip(mats, exponents)]
    norms = [frobenius_norm(m) for m in down]
    for i, j in combinations(range(len(mats)), 2):
        yield i, j, _commutator_norm(down[i], partner(down[j])), norms[i] * norms[j], exponents[i] + exponents[j]


def make_tuple(matrices, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """Validate shapes and pairwise commutators (``_pair_commutators``); reject non-commuting input, with
    the norm and threshold in the input's units, inf where they pass the float range."""
    mats = tuple(as_matrix(m) for m in matrices)
    if not mats:
        raise ValueError("an operator tuple needs at least one component")
    dim = mats[0].shape[0]
    for j, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValueError(f"component {j} has dimension {m.shape[0]}, expected {dim}")
    worst = 0.0
    for i, j, norm, scale, e in _pair_commutators(mats):
        if not tol.is_zero(norm, scale, e):
            threshold = tol.threshold(scale, e)
            raise NonCommutingError(i, j, times_power_of_two(norm, e), times_power_of_two(threshold, e))
        worst = max(worst, times_power_of_two(norm, e))
    return OperatorTuple(matrices=mats, max_commutator_norm=worst)


def adjoint_tuple(t: OperatorTuple) -> OperatorTuple:
    """(T_1*, ..., T_d*), ungated like ``permute_tuple``: [T_i*, T_j*] = -[T_i, T_j]*, so the
    adjoints commute, with the same commutator norms, and ``max_commutator_norm`` carries over."""
    return OperatorTuple(tuple(adjoint(m) for m in t), t.max_commutator_norm)


def is_doubly_commuting(t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL) -> bool:
    """True when additionally T_i T_j* = T_j* T_i for all i != j, each pair judged as ``make_tuple`` judges
    [T_i, T_j]; since [T_j, T_i*] = [T_i, T_j*]*, each unordered pair i < j is judged once."""
    return all(tol.is_zero(norm, scale, e) for *_, norm, scale, e in _pair_commutators(t, adjoint))


def _adjoint_commutators(t: OperatorTuple):
    """(A, e, [A_j*], [||A_j||_F], c) on T's unit copy A = T / 2^e (``unit_copy``), c(i, j) = c(j, i) =
    ||[A_i, A_j*]||_F at scale ||A_i||_F ||A_j||_F, formed when first read: read by quasinormality and normality."""
    mats, e = unit_copy(t)
    adjoints = [adjoint(m) for m in mats]
    entry = cache(lambda i, j: _commutator_norm(mats[i], adjoints[j]))
    return mats, e, adjoints, [frobenius_norm(m) for m in mats], lambda i, j: entry(min(i, j), max(i, j))


def _normal(norms, c, tol: ToleranceModel) -> bool:
    """Every A_j normal, c(j, j) zero at scale ||A_j||_F^2 in A's units (``_adjoint_commutators``), stopping
    at the first that is not: for a commuting tuple, its normality (Fuglede)."""
    return all(tol.is_zero(c(j, j), norms[j] ** 2) for j in range(len(norms)))


def tuple_power(t: OperatorTuple, alpha) -> np.ndarray:
    """The monomial T^alpha = T_1^(a_1) ... T_d^(a_d); alpha = 0 gives I.

    A power past the float range is returned non-finite, without numpy's
    warnings; the defects raise on it as on levels that overflow.
    """
    entries = validate_multiindex(alpha)
    if len(entries) != t.d:
        raise ValueError(f"multi-index has {len(entries)} entries, tuple has d = {t.d}")
    return monomial(t, entries)


def monomial(mats, alpha) -> np.ndarray:
    """mats_1^(a_1) ... mats_d^(a_d) for any d square matrices, in their dtype, non-finite
    past the float range; ``tuple_power`` on a tuple, and the roundoff bound of T^q on |T_j|."""
    result = np.eye(mats[0].shape[0], dtype=mats[0].dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, a in zip(mats, alpha):
            if a:
                result = result @ np.linalg.matrix_power(m, a)
    return result


def hereditary_shift(s, t, x: np.ndarray) -> np.ndarray:
    """Phi_{S,T}(X) = sum_j S_j X T_j, the map every hereditary polynomial is built from."""
    return sum(sj @ x @ tj for sj, tj in zip(s, t))


def power_levels(s, t, kmax: int) -> list[np.ndarray]:
    """L_k = Phi_{S,T}^k(I), k = 0..kmax, for two sequences of d matrices, non-finite without numpy's
    warnings past the float range (as ``monomial``). For commuting S and T, L_k = sum_{|alpha|=k}
    (k!/alpha!) S^alpha T^alpha: the defects' level sums (S = T*) and the power-sum left sides.
    """
    if len(s) != len(t):
        raise ValueError(f"sequences have {len(s)} and {len(t)} components")
    levels = [np.eye(t[0].shape[0], dtype=np.complex128)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(kmax):
            levels.append(hereditary_shift(s, t, levels[-1]))
    return levels


def alternating_binomial_sum(levels, m: int) -> tuple[np.ndarray, float]:
    """sum_k (-1)^k C(m,k) L_k over the m + 1 given levels, and its scale max_k ||C(m,k) L_k||_F.

    The terms alternate and cancel, so a zero-test of the sum is relative to the
    largest term. The defects, and the tests' enumerated beta, are this sum.
    """
    terms = [math.comb(m, k) * level for k, level in enumerate(levels)]
    total = sum((-1) ** k * term for k, term in enumerate(terms))
    return total, max(frobenius_norm(term) for term in terms)


def conjugate_by_unitary(t: OperatorTuple, v, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """(V* T_1 V, ..., V* T_d V) for unitary V."""
    v = as_matrix(v)
    if v.shape[0] != t.dim:
        raise ValueError(f"unitary has dimension {v.shape[0]}, tuple has {t.dim}")
    defect = frobenius_norm(adjoint(v) @ v - np.eye(t.dim))
    if defect > UNITARY_TOL:
        raise ValueError(f"V is not unitary: ||V*V - I||_F = {defect:.3e}")
    vh = adjoint(v)
    return make_tuple([vh @ m @ v for m in t], tol)


def permute_tuple(t: OperatorTuple, sigma) -> OperatorTuple:
    """(T_sigma(0), ..., T_sigma(d-1)) for a 0-based permutation sigma.

    Callers pairing the tuple with an exponent vector q must permute q the
    same way.
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(t.d)):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{t.d - 1}")
    return OperatorTuple(
        matrices=tuple(t[j] for j in sigma),
        max_commutator_norm=t.max_commutator_norm,
    )


@dataclass(frozen=True)
class QuasinormalFlags:
    """The three nested quasinormality classes; matricial => joint => spherical."""

    matricial: bool
    joint: bool
    spherical: bool


def quasinormal_class(t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL) -> QuasinormalFlags:
    """Classify commutation of each T_i with the products T_j* T_k.

    matricial: [T_i, T_j* T_k] = 0 for all i, j, k;
    joint:     [T_i, T_j* T_j] = 0 for all i, j;
    spherical: [T_j, sum_k T_k* T_k] = 0 for all j.
    The implication chain is enforced on the outputs.

    Each commutator here is homogeneous of degree 3 in T, so every one is decided on T's unit copy
    A = T / 2^a (``_adjoint_commutators``) at exponent 3a, where products and sums are bounded by 8 d dim.

    A triple (i, j, k) is first put to a certificate. The Leibniz rule
    [A_i, A_j* A_k] = [A_i, A_j*] A_k + A_j* [A_i, A_k] bounds its norm by
    c_ij a_k + a_j k_ik (Frobenius norms: c_ij = ||[A_i, A_j*]||, k_ik = ||[A_i, A_k]||,
    a_j = ||A_j||). Widened by the roundoff of the computed products, 16 dim eps
    a_i a_j a_k (Higham, Accuracy and Stability, 2nd ed., 3.5: |fl(XY) - XY| <= gamma_n |X||Y|),
    and by what squares that underflow can hide in the norms, a bound at most half the
    threshold proves that the exact test of the computed T_j* T_k passes. Only a triple the
    bound cannot settle runs that test, so the flags are the exact tests' own. Each c_ij,
    k_ik, product and norm is formed once, when first needed, and c_ji = c_ij, k_ki = k_ik,
    k_ii = 0 and ||A_k* A_j|| = ||A_j* A_k|| are read, not formed: a quasinormal tuple costs
    d^2 commutators and d(d + 1)/2 products (42 matrix products at d = 4, not 2 d^3 + d^2).
    """
    (mats, a, grams, norms, adjoint_commutator), d, n = _adjoint_commutators(t), t.d, t.dim
    # a norm's underflowing squares hide at most n 2^-537 of it; with every a_j < 3 n and every
    # c_ij, k_ik < 18 n^2, n^3 2^-530 covers that in c_ij a_k + a_j k_ik and in the exact test
    roundoff, underflow = 16 * n * np.finfo(np.float64).eps, math.ldexp(n**3, -530)

    @cache
    def product(j: int, k: int) -> tuple[np.ndarray, float]:
        p = grams[j] @ mats[k]
        return p, frobenius_norm(p)

    @cache
    def commutator(i: int, k: int) -> float:  # k_ik = k_ki, k_ii = 0
        if i > k:
            return commutator(k, i)
        return 0.0 if i == k else _commutator_norm(mats[i], mats[k])

    def commutes(i: int, y: np.ndarray, y_norm: float) -> bool:
        return tol.is_zero(_commutator_norm(mats[i], y), norms[i] * y_norm, 3 * a)

    @cache
    def holds(i: int, j: int, k: int) -> bool:
        threshold = tol.threshold(norms[i] * product(min(j, k), max(j, k))[1], 3 * a)
        bound = (
            1.01 * (adjoint_commutator(i, j) * norms[k] + norms[j] * commutator(i, k))
            + roundoff * norms[i] * norms[j] * norms[k] + underflow
        )
        return bound <= 0.5 * threshold or commutes(i, *product(j, k))

    def ball_commutes() -> bool:
        ball = sum(product(k, k)[0] for k in range(d))
        ball_norm = frobenius_norm(ball)
        return all(commutes(j, ball, ball_norm) for j in range(d))

    matricial = all(holds(i, j, k) for i in range(d) for j in range(d) for k in range(d))
    joint = matricial or all(holds(i, j, j) for i in range(d) for j in range(d))
    spherical = joint or ball_commutes()
    return QuasinormalFlags(matricial=matricial, joint=joint, spherical=spherical)


def normal_basis(t: OperatorTuple, seed: int = 0, tol: ToleranceModel = DEFAULT_TOL):
    """(Q, ``conjugated``(Q, T')) on T's unit copy T' for a normal T, else None. Q holds the eigenvectors of
    the Hermitian part of T's seeded unit combination C (``combination``), C's spectral decomposition where
    its eigenvalues' real parts differ (Golub & Van Loan, 4th ed., 7.1, 8.1), accepted only when every
    Q* T'_j Q keeps below-diagonal mass within ``tol.rank_cutoff(n, max_j ||T'_j||_F)``, as points are."""
    mats, _, _, norms, c = _adjoint_commutators(t)
    if not _normal(norms, c, tol):
        return None
    unit = combination(mats, seed)
    q = np.linalg.eigh(unit + adjoint(unit))[1]  # a multiple of the Hermitian part
    us = conjugated(q, mats)
    mass = max(frobenius_norm(np.tril(u, -1)) for u in us)
    return (q, us) if mass <= tol.rank_cutoff(t.dim, max(norms)) else None
