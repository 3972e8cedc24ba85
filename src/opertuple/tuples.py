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
    c = rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t))
    return unit_scaled(sum(wj * m for wj, m in zip(c / np.linalg.norm(c), t)))


def conjugated(q: np.ndarray, t: OperatorTuple) -> np.ndarray:
    """The Q* T_j Q, stacked."""
    return np.stack([adjoint(q) @ m @ q for m in t])


def _commutator_table(mats):
    """(e, X, star, a, commutator), read by every commutation decision: e_i = ``binary_exponent``(T_i) - 1, X_i =
    T_i / 2^e_i (exact either way, largest part in [1, 2)), a_i = ||X_i||_F and, formed when first read, star(j) =
    X_j* and commutator(i, j, starred) = ||[X_i, X_j]||_F (0 for i = j), or ||[X_i, X_j*]||_F, as for (j, i). At
    e_i + e_j (+ e_k) these are the plain decisions wherever the plain products neither overflow nor underflow."""
    exponents = [binary_exponent(m) - 1 for m in mats]
    units = [np.ldexp(np.ascontiguousarray(m).view(np.float64), -e).view(m.dtype) if e else m
             for m, e in zip(mats, exponents)]
    # one dict, not functools.cache, which would cost a small tuple's gate a third of its time
    memo = {(i, i, False): 0.0 for i in range(len(exponents))}
    star = lambda j: memo[j] if j in memo else memo.setdefault(j, adjoint(units[j]))

    def commutator(i: int, j: int, starred: bool = False) -> float:
        i, j = min(i, j), max(i, j)
        if (i, j, starred) not in memo:
            memo[i, j, starred] = _commutator_norm(units[i], star(j) if starred else units[j])
        return memo[i, j, starred]

    return exponents, units, star, [frobenius_norm(x) for x in units], commutator


def make_tuple(matrices, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """Validate shapes and pairwise commutators, each ||[X_i, X_j]|| of ``_commutator_table`` judged at e_i + e_j;
    reject non-commuting input, with the norm and threshold in the input's units, inf past the float range."""
    mats = tuple(as_matrix(m) for m in matrices)
    if not mats:
        raise ValueError("an operator tuple needs at least one component")
    dim = mats[0].shape[0]
    for j, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValueError(f"component {j} has dimension {m.shape[0]}, expected {dim}")
    exponents, _, _, norms, commutator = _commutator_table(mats)
    worst = 0.0
    for i, j in combinations(range(len(mats)), 2):
        norm, scale, e = commutator(i, j), norms[i] * norms[j], exponents[i] + exponents[j]
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
    """True when additionally T_i T_j* = T_j* T_i for all i != j, each ||[X_i, X_j*]|| of ``_commutator_table``
    judged at e_i + e_j as ``make_tuple`` judges [X_i, X_j]; as [T_j, T_i*] = [T_i, T_j*]*, each pair once."""
    exponents, _, _, norms, commutator = _commutator_table(t)
    return all(tol.is_zero(commutator(i, j, True), norms[i] * norms[j], exponents[i] + exponents[j])
               for i, j in combinations(range(t.d), 2))


def _normal(table, tol: ToleranceModel) -> bool:
    """Every T_j normal: ||[X_j, X_j*]|| (``_commutator_table``) zero at scale ||X_j||_F^2 in X_j's own units, so
    each verdict depends on T_j alone; for a commuting tuple, its normality (Fuglede)."""
    *_, norms, commutator = table
    return all(tol.is_zero(commutator(j, j, True), norms[j] ** 2) for j in range(len(norms)))


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

    Each triple is decided on the ``_commutator_table``'s X_i = T_i / 2^e_i at exponent e_i + e_j + e_k (3e on
    T's unit copy T / 2^e wherever nothing underflows); the ball sum_k T_k* T_k is summed in that copy's units.
    The Leibniz rule [X_i, X_j* X_k] = [X_i, X_j*] X_k + X_j* [X_i, X_k] bounds a triple's norm by
    c_ij a_k + a_j k_ik (Frobenius norms: c_ij = ||[X_i, X_j*]||, k_ik = ||[X_i, X_k]||, a_j = ||X_j||).
    Widened by the computed products' roundoff, 16 dim eps a_i a_j a_k (Higham, Accuracy and Stability,
    2nd ed., 3.5: |fl(XY) - XY| <= gamma_n |X||Y|), and by what underflowing squares can hide, a bound at
    most half the threshold proves that the exact test of the computed X_j* X_k passes; only the other
    triples run it, so the flags are the exact tests' own. Each c_ij, k_ik, product and norm is formed once,
    and ||X_k* X_j|| = ||X_j* X_k|| is read, not formed: a quasinormal tuple costs d^2 commutators and
    d(d + 1)/2 products (42 matrix products at d = 4, not 2 d^3 + d^2).
    """
    (exponents, units, star, norms, commutator), d, n = _commutator_table(t), t.d, t.dim
    # a norm's underflowing squares hide at most n 2^-537 of it; with every a_j < 3 n and every
    # c_ij, k_ik < 18 n^2, n^3 2^-530 covers that in c_ij a_k + a_j k_ik and in the exact test
    roundoff, underflow = 16 * n * np.finfo(np.float64).eps, math.ldexp(n**3, -530)

    @cache
    def product(j: int, k: int) -> tuple[np.ndarray, float, int]:  # X_j* X_k, its norm and its exponent
        p = star(j) @ units[k]
        return p, frobenius_norm(p), exponents[j] + exponents[k]

    def commutes(i: int, y: np.ndarray, y_norm: float, e: int) -> bool:  # [X_i, Y], Y at exponent e
        return tol.is_zero(_commutator_norm(units[i], y), norms[i] * y_norm, exponents[i] + e)

    @cache
    def holds(i: int, j: int, k: int) -> bool:
        _, y_norm, e = product(min(j, k), max(j, k))
        threshold = tol.threshold(norms[i] * y_norm, exponents[i] + e)
        bound = (
            1.01 * (commutator(i, j, True) * norms[k] + norms[j] * commutator(i, k))
            + roundoff * norms[i] * norms[j] * norms[k] + underflow
        )
        return bound <= 0.5 * threshold or commutes(i, *product(j, k))

    def ball_commutes() -> bool:
        a = max(exponents)
        ball = sum(scaled(product(k, k)[0], 2 * (exponents[k] - a)) for k in range(d))
        ball_norm = frobenius_norm(ball)
        return all(commutes(j, ball, ball_norm, 2 * a) for j in range(d))

    matricial = all(holds(i, j, k) for i in range(d) for j in range(d) for k in range(d))
    joint = matricial or all(holds(i, j, j) for i in range(d) for j in range(d))
    spherical = joint or ball_commutes()
    return QuasinormalFlags(matricial=matricial, joint=joint, spherical=spherical)


def normal_basis(t: OperatorTuple, seed: int = 0, tol: ToleranceModel = DEFAULT_TOL):
    """(Q, ``conjugated``(Q, T')) on T' = T / 2^a (a = max_j e_j, T' built from the table's X_j) if ``_normal``, else
    None. Q holds the eigenvectors of the Hermitian part of T's seeded unit combination C (``combination``), C's
    spectral decomposition where its eigenvalues' real parts differ (Golub & Van Loan, 4th ed., 7.1, 8.1), accepted
    if every Q* T'_j Q keeps below-diagonal mass within ``tol.rank_cutoff(n, max_j ||T'_j||_F)``, as points are."""
    if not _normal(table := _commutator_table(t), tol):
        return None
    exponents, units, _, norms, _ = table
    a = max(exponents)
    mats = t if not a else [scaled(x, e - a) for x, e in zip(units, exponents)]  # T itself for spectra's copy
    unit = combination(mats, seed)
    q = np.linalg.eigh(unit + adjoint(unit))[1]  # a multiple of the Hermitian part
    us = conjugated(q, mats)
    mass = max(frobenius_norm(np.tril(u, -1)) for u in us)
    scale = max(math.ldexp(norm, e - a) for norm, e in zip(norms, exponents))  # max_j ||T'_j||_F
    return (q, us) if mass <= tol.rank_cutoff(t.dim, scale) else None
