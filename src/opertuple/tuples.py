"""Commuting operator tuples: the validated container and its basic algebra.

Commutativity is enforced once, at construction; every formula downstream
silently assumes it. Monomial powers T^alpha follow the fixed component order
T_1^(a_1) ... T_d^(a_d) so results are bit-stable even though commutativity
would allow any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NumericalFailureError,
    ToleranceModel,
    adjoint,
    as_matrix,
    frobenius_norm,
    null_space_basis,
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


def _scaled_commutator(x: np.ndarray, y: np.ndarray, scale: float) -> tuple[float, float, int]:
    """``(norm, scale, e)`` for ``tol.is_zero(norm, scale, e)``: ||XY - YX||_F and its
    reference scale ||X||_F ||Y||_F (passed in), both in units of 2^e.

    e = 0 and both values are the plain ones wherever both are finite. When
    finite factors give a non-finite norm or scale (their products overflow,
    and inf - inf is NaN), X and Y are divided by 2^ex and 2^ey, powers of two
    that bring their largest real or imaginary part into [1, 2), and
    e = ex + ey: the pair is judged at that magnitude, where norm and scale are
    finite. Callers run it under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    norm = frobenius_norm(x @ y - y @ x)
    plain = math.isfinite(norm) and math.isfinite(scale)
    if plain or not (np.isfinite(x).all() and np.isfinite(y).all()):
        return norm, scale, 0
    ex, ey = (math.frexp(_largest_part(a))[1] - 1 for a in (x, y))
    xs, ys = x * math.ldexp(1.0, -ex), y * math.ldexp(1.0, -ey)
    return frobenius_norm(xs @ ys - ys @ xs), frobenius_norm(xs) * frobenius_norm(ys), ex + ey


def _largest_part(a: np.ndarray) -> float:
    """max |re| and |im| over the entries; unlike the modulus, it cannot overflow."""
    return float(np.abs(np.ascontiguousarray(a).view(np.float64)).max())


def _commutator(x: np.ndarray, y: np.ndarray) -> tuple[float, float, int]:
    """``_scaled_commutator`` with the scale ||X||_F ||Y||_F computed here."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _scaled_commutator(x, y, frobenius_norm(x) * frobenius_norm(y))


def _times_power_of_two(value: float, e: int) -> float:
    """value * 2^e for value >= 0, inf past the float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def make_tuple(matrices, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """Validate shapes and pairwise commutators; reject non-commuting input.

    The commutator gate is ``tol.is_zero`` on ``_scaled_commutator(T_i, T_j)`` for
    every i < j, so a pair whose products overflow is judged at a power-of-two
    rescale. The norm and threshold reported on rejection are in the input's
    units, inf where they pass the float range.
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
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [frobenius_norm(m) for m in mats]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                norm, scale, e = _scaled_commutator(mats[i], mats[j], norms[i] * norms[j])
                if not tol.is_zero(norm, scale, e):
                    threshold = tol.threshold(scale, e)
                    raise NonCommutingError(
                        i, j, _times_power_of_two(norm, e), _times_power_of_two(threshold, e)
                    )
                worst = max(worst, _times_power_of_two(norm, e))
    return OperatorTuple(matrices=mats, max_commutator_norm=worst)


def adjoint_tuple(t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """(T_1*, ..., T_d*); commuting because the originals commute."""
    return make_tuple([adjoint(m) for m in t], tol)


def is_doubly_commuting(t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL) -> bool:
    """True when additionally T_i T_j* = T_j* T_i for all i != j."""
    pairs = permutations(range(t.d), 2)  # every ordered pair i != j
    return all(tol.is_zero(*_commutator(t[i], adjoint(t[j]))) for i, j in pairs)


def tuple_power(t: OperatorTuple, alpha) -> np.ndarray:
    """The monomial T^alpha = T_1^(a_1) ... T_d^(a_d); alpha = 0 gives I.

    A power past the float range is returned non-finite, without numpy's
    warnings; the defects raise on it as on levels that overflow.
    """
    entries = validate_multiindex(alpha)
    if len(entries) != t.d:
        raise ValueError(f"multi-index has {len(entries)} entries, tuple has d = {t.d}")
    result = np.eye(t.dim, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, a in zip(t, entries):
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

    Each commutator here is homogeneous of degree 3 in T. If a product
    overflows, the flags are decided again on T / 2^a, with the largest real
    or imaginary part p / 2^a in [1, 2), at exponent 3a: the products and their
    sum are then bounded by 8 d dim.
    """
    flags = _quasinormal_flags(t.matrices, 0, tol)
    if flags is None:
        a = math.frexp(max(_largest_part(m) for m in t))[1] - 1
        flags = _quasinormal_flags([m * math.ldexp(1.0, -a) for m in t], 3 * a, tol)
    return flags


def _quasinormal_flags(mats, exponent: int, tol: ToleranceModel) -> QuasinormalFlags | None:
    """The flags with every decision at ``exponent``; None once a product overflowed.

    A non-finite product makes its commutator norm non-finite, and T_i is finite.
    """
    d = len(mats)
    overflow = False

    def commutes(x: np.ndarray, y: np.ndarray) -> bool:
        nonlocal overflow
        norm, scale, e = _commutator(x, y)
        overflow = overflow or not math.isfinite(norm)
        return tol.is_zero(norm, scale, e + exponent)

    with np.errstate(over="ignore", invalid="ignore"):
        grams = [adjoint(m) for m in mats]
        matricial = all(
            commutes(mats[i], grams[j] @ mats[k])
            for i in range(d)
            for j in range(d)
            for k in range(d)
        )
        joint = matricial or all(
            commutes(mats[i], grams[j] @ mats[j]) for i in range(d) for j in range(d)
        )
        ball = sum(grams[k] @ mats[k] for k in range(d))
        spherical = joint or all(commutes(mats[j], ball) for j in range(d))
    if overflow:
        return None
    return QuasinormalFlags(matricial=matricial, joint=joint, spherical=spherical)


def reducing_residual(t: OperatorTuple, basis: np.ndarray) -> float:
    """Max over j of ||(I - P) T_j B||_F and ||(I - P) T_j* B||_F for P = BB*."""
    if basis.shape[1] == 0:
        return 0.0
    projector = basis @ adjoint(basis)
    eye = np.eye(t.dim)
    worst = 0.0
    for m in t:
        for x in (m, adjoint(m)):
            worst = max(worst, frobenius_norm((eye - projector) @ x @ basis))
    return worst


def null_reducing_check(
    t: OperatorTuple, q, tol: ToleranceModel = DEFAULT_TOL
) -> tuple[bool, np.ndarray]:
    """Whether N(T^q) is invariant under every T_j and T_j*.

    Returns the verdict together with the orthonormal basis of N(T^q) that was
    tested. The trivial null space is reducing by convention. A T^q past the
    float range raises NumericalFailureError, as the defects do on levels that
    overflow.
    """
    power = tuple_power(t, q)
    if not np.isfinite(power).all():
        raise NumericalFailureError(
            "T^q is not finite: the power overflows", {"q": [int(v) for v in q]}
        )
    basis = null_space_basis(power, tol)
    if basis.shape[1] == 0:
        return True, basis
    scale = max(frobenius_norm(m) for m in t)
    residual = reducing_residual(t, basis)
    return tol.is_zero(residual, scale), basis
