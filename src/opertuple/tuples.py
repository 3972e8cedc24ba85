"""Commuting operator tuples: the validated container and its basic algebra.

Commutativity is enforced once, at construction; every formula downstream
silently assumes it. Monomial powers T^alpha follow the fixed component order
T_1^(a_1) ... T_d^(a_d) so results are bit-stable even though commutativity
would allow any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
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


def make_tuple(matrices, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """Validate shapes and pairwise commutators; reject non-commuting input.

    The commutator gate is ``tol.is_zero(||T_i T_j - T_j T_i||_F, ||T_i||_F ||T_j||_F)``
    for every i < j; a commutator that overflows to NaN is rejected.
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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves NaN, never zero
        norms = [frobenius_norm(m) for m in mats]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                commutator = frobenius_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                scale = norms[i] * norms[j]
                if not tol.is_zero(commutator, scale):
                    raise NonCommutingError(i, j, commutator, tol.threshold(scale))
                worst = max(worst, commutator)
    return OperatorTuple(matrices=mats, max_commutator_norm=worst)


def _commutator(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """||XY - YX||_F and its reference scale ||X||_F ||Y||_F, for ``tol.is_zero``."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves NaN, never zero
        return frobenius_norm(x @ y - y @ x), frobenius_norm(x) * frobenius_norm(y)


def adjoint_tuple(t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """(T_1*, ..., T_d*); commuting because the originals commute."""
    return make_tuple([adjoint(m) for m in t], tol)


def is_doubly_commuting(t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL) -> bool:
    """True when additionally T_i T_j* = T_j* T_i for all i != j."""
    pairs = permutations(range(t.d), 2)  # every ordered pair i != j
    return all(tol.is_zero(*_commutator(t[i], adjoint(t[j]))) for i, j in pairs)


def tuple_power(t: OperatorTuple, alpha) -> np.ndarray:
    """The monomial T^alpha = T_1^(a_1) ... T_d^(a_d); alpha = 0 gives I."""
    entries = validate_multiindex(alpha)
    if len(entries) != t.d:
        raise ValueError(f"multi-index has {len(entries)} entries, tuple has d = {t.d}")
    result = np.eye(t.dim, dtype=np.complex128)
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
    """

    def commutes(x: np.ndarray, y: np.ndarray) -> bool:
        return tol.is_zero(*_commutator(x, y))

    grams = [adjoint(m) for m in t]
    matricial = all(
        commutes(t[i], grams[j] @ t[k])
        for i in range(t.d)
        for j in range(t.d)
        for k in range(t.d)
    )
    joint = matricial or all(
        commutes(t[i], grams[j] @ t[j]) for i in range(t.d) for j in range(t.d)
    )
    ball = sum(grams[k] @ t[k] for k in range(t.d))
    spherical = joint or all(commutes(t[j], ball) for j in range(t.d))
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
    tested. The trivial null space is reducing by convention.
    """
    basis = null_space_basis(tuple_power(t, q), tol)
    if basis.shape[1] == 0:
        return True, basis
    scale = max(frobenius_norm(m) for m in t)
    residual = reducing_residual(t, basis)
    return tol.is_zero(residual, scale), basis
