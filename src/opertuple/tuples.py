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

from .linalg import DEFAULT_TOL, ToleranceModel, adjoint, as_matrix, frobenius_norm
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
    """The least e >= 0 that brings every real and imaginary part of A / 2^e below 2.

    Dividing by 2^e is exact away from underflow, so decisions on scaled factors
    are the plain ones wherever those are finite, and their products cannot overflow.
    """
    largest = np.abs(np.ascontiguousarray(a).view(np.float64)).max()  # unlike |a_ij|, finite
    return max(0, math.frexp(largest)[1] - 1)


def _scaled_down(a: np.ndarray, e: int) -> np.ndarray:
    """A / 2^e; A itself for e = 0."""
    return a * math.ldexp(1.0, -e) if e else a


def _commutator_norm(x: np.ndarray, y: np.ndarray) -> float:
    """||XY - YX||_F, YX subtracted in place from XY."""
    c = x @ y
    c -= y @ x
    return frobenius_norm(c)


def _commutator(x: np.ndarray, y: np.ndarray) -> tuple[float, float, int]:
    """``(norm, scale, e)`` for ``tol.is_zero(norm, scale, e)``: ||XY - YX||_F and its
    scale ||X||_F ||Y||_F, taken on X / 2^ex and Y / 2^ey (``_exponent``), e = ex + ey."""
    ex, ey = _exponent(x), _exponent(y)
    xs, ys = _scaled_down(x, ex), _scaled_down(y, ey)
    return _commutator_norm(xs, ys), frobenius_norm(xs) * frobenius_norm(ys), ex + ey


def _times_power_of_two(value: float, e: int) -> float:
    """value * 2^e for value >= 0, inf past the float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def make_tuple(matrices, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """Validate shapes and pairwise commutators; reject non-commuting input.

    Each pair i < j is judged as ``_commutator`` judges it, with each component
    scaled down once and reused for all its pairs. The norm and threshold
    reported on rejection are in the input's units, inf where they pass the
    float range.
    """
    mats = tuple(as_matrix(m) for m in matrices)
    if not mats:
        raise ValueError("an operator tuple needs at least one component")
    dim = mats[0].shape[0]
    for j, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValueError(
                f"component {j} has dimension {m.shape[0]}, expected {dim}"
            )
    exponents = [_exponent(m) for m in mats]
    scaled = [_scaled_down(m, e) for m, e in zip(mats, exponents)]
    norms = [frobenius_norm(m) for m in scaled]
    worst = 0.0
    for i, j in combinations(range(len(mats)), 2):
        x, y, e = scaled[i], scaled[j], exponents[i] + exponents[j]
        norm, scale = _commutator_norm(x, y), norms[i] * norms[j]
        if not tol.is_zero(norm, scale, e):
            threshold = tol.threshold(scale, e)
            raise NonCommutingError(
                i, j, _times_power_of_two(norm, e), _times_power_of_two(threshold, e)
            )
        worst = max(worst, _times_power_of_two(norm, e))
    return OperatorTuple(matrices=mats, max_commutator_norm=worst)


def adjoint_tuple(t: OperatorTuple) -> OperatorTuple:
    """(T_1*, ..., T_d*), ungated like ``permute_tuple``: [T_i*, T_j*] = -[T_i, T_j]*, so the
    adjoints commute, with the same commutator norms, and ``max_commutator_norm`` carries over."""
    return OperatorTuple(tuple(adjoint(m) for m in t), t.max_commutator_norm)


def is_doubly_commuting(t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL) -> bool:
    """True when additionally T_i T_j* = T_j* T_i for all i != j; since
    [T_j, T_i*] = [T_i, T_j*]*, each unordered pair i < j is judged once."""
    pairs = combinations(range(t.d), 2)
    return all(tol.is_zero(*_commutator(t[i], adjoint(t[j]))) for i, j in pairs)


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
    """L_k = Phi_{S,T}^k(I), k = 0..kmax, for two sequences of d matrices.

    For commuting S and T, L_k = sum_{|alpha|=k} (k!/alpha!) S^alpha T^alpha:
    the defects' level sums (S = T*) and the power-sum left sides.
    """
    if len(s) != len(t):
        raise ValueError(f"sequences have {len(s)} and {len(t)} components")
    levels = [np.eye(t[0].shape[0], dtype=np.complex128)]
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

    Each commutator here is homogeneous of degree 3 in T, so every one is
    decided on T / 2^a, with a the largest ``_exponent`` of the components, at
    exponent 3a: the products and their sum are then bounded by 8 d dim. Each
    T_j* T_k and its norm are formed once, when a commutator first needs them.
    """
    a = max(_exponent(m) for m in t)
    mats, d = [_scaled_down(m, a) for m in t], t.d
    grams, norms = [adjoint(m) for m in mats], [frobenius_norm(m) for m in mats]

    @cache
    def product(j: int, k: int) -> tuple[np.ndarray, float]:
        p = grams[j] @ mats[k]
        return p, frobenius_norm(p)

    def commutes(i: int, y: np.ndarray, y_norm: float) -> bool:
        return tol.is_zero(_commutator_norm(mats[i], y), norms[i] * y_norm, 3 * a)

    matricial = all(
        commutes(i, *product(j, k)) for i in range(d) for j in range(d) for k in range(d)
    )
    joint = matricial or all(commutes(i, *product(j, j)) for i in range(d) for j in range(d))
    ball = sum(product(k, k)[0] for k in range(d))
    ball_norm = frobenius_norm(ball)
    spherical = joint or all(commutes(j, ball, ball_norm) for j in range(d))
    return QuasinormalFlags(matricial=matricial, joint=joint, spherical=spherical)
