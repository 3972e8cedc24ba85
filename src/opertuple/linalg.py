"""Dense complex matrix primitives shared by every other module.

Thin, contract-checked wrappers around numpy's LAPACK routines: adjoints,
Frobenius norms, exact power-of-two scaling to unit magnitude, rank-revealing
null spaces, and complex Schur triangularization. Rank decisions use a scale-invariant singular-value
cutoff instead of a fixed epsilon. The Schur form is built from eigenvectors,
so numpy is the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


class NumericalFailureError(RuntimeError):
    """A numerical routine failed to converge or violated its residual contract."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class ToleranceModel:
    """Thresholds governing every "zero", "commuting", and rank decision.

    A quantity of norm ``x`` with reference magnitude ``scale`` counts as zero
    when ``x <= threshold(scale) = abs_tol + rel_tol * scale``; a non-finite norm
    and a NaN scale are never zero. Both may be given in units of ``2^exponent``
    (the threshold is then ``abs_tol 2^-exponent + rel_tol * scale``), so a decision
    on operands past the float range is taken where both are finite. Rank cutoffs
    are ``rank_factor * eps * dim * sigma_max``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    rank_factor: float = 1e3

    def __post_init__(self):
        fields = (self.abs_tol, self.rel_tol, self.rank_factor)
        if not all(math.isfinite(f) and f >= 0 for f in fields):
            raise ValueError("tolerance fields must be finite and nonnegative")

    def threshold(self, scale: float = 0.0, exponent: int = 0) -> float:
        """The largest norm that counts as zero at reference magnitude ``scale``."""
        return math.ldexp(self.abs_tol, -exponent) + self.rel_tol * scale

    def is_zero(self, norm: float, scale: float = 0.0, exponent: int = 0) -> bool:
        return math.isfinite(norm) and norm <= self.threshold(scale, exponent)

    def rank_cutoff(self, dim: int, sigma_max: float) -> float:
        return self.rank_factor * _EPS * dim * sigma_max


DEFAULT_TOL = ToleranceModel()


def as_matrix(a) -> np.ndarray:
    """Validate and coerce to a finite square complex128 array."""
    m = np.array(a, dtype=np.complex128, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix dimension must be positive")
    if not np.isfinite(m.ravel(order="K").view(np.float64)).all():  # both parts, one pass
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T.copy()


def frobenius_norm(a: np.ndarray) -> float:
    """||a||_F; finite input whose squared entries overflow is rescaled by max |a_ij|.

    The two dot products ``np.linalg.norm(a, "fro")`` runs, without its argument
    handling, so the value agrees with numpy's to roundoff.
    """
    x = np.asarray(a)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
    else:
        norm = math.sqrt(x.dot(x))
    if math.isinf(norm) and math.isfinite(big := float(np.abs(x).max())):
        norm = big * frobenius_norm(x / big)
    return norm


def unit_scaled(m: np.ndarray) -> np.ndarray:
    """m times the power of two that brings its largest real or imaginary part into [1, 2);
    a zero m as it is. np.ldexp on the float64 view scales exactly in both directions, where
    math.ldexp(1.0, e) would overflow for the e > 1023 of subnormal input."""
    parts = np.ascontiguousarray(m).view(np.float64)
    largest = float(np.abs(parts).max())
    if largest == 0.0:
        return m
    return np.ldexp(parts, 1 - math.frexp(largest)[1]).view(np.complex128)


def null_space_basis(a: np.ndarray, tol: ToleranceModel = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of ``a``.

    Accepts rectangular input so stacked systems [T_1 - l_1; ...; T_d - l_d]
    can be handled. Basis vectors are right singular vectors whose singular
    values fall at or below the rank cutoff of max(sigma_max, ``scale``); an
    exactly zero matrix yields the full standard basis. ``scale`` is the
    magnitude of the operands ``a`` was computed from, whose roundoff can leave
    a zero ``a`` with a sigma_max of that roundoff alone. A tall or square input
    needs only the thin SVD; a wide one needs the full ``vh``, whose extra rows
    span the null space. A sigma_max past the float range is decided on ``a`` and
    ``scale`` times the power of two of ``unit_scaled``(a), which is exact.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    n = a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < n)
    sigma = np.zeros(n)
    sigma[: len(s)] = s
    sigma_max = float(sigma[0]) if n else 0.0
    if math.isinf(sigma_max):
        shift = 1 - math.frexp(float(max(np.abs(a.real).max(), np.abs(a.imag).max())))[1]
        return null_space_basis(unit_scaled(a), tol, math.ldexp(scale, shift))
    cutoff = tol.rank_cutoff(max(a.shape), max(sigma_max, scale))
    mask = sigma <= cutoff
    return vh.conj().T[:, mask]


def unitary_triangularize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form: returns (Q, U) with A = Q U Q*, Q unitary, U upper.

    Q is the QR factor of the eigenvector matrix and U = triu(Q* A Q) (Golub &
    Van Loan, Matrix Computations, 4th ed., 7.1). The contract is the residual alone; it
    counts the dropped lower triangle, so a defective A fails. Householder QR makes Q unitary
    to O(n eps) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 19.3).
    """
    a = as_matrix(a)
    try:
        q, _ = np.linalg.qr(np.linalg.eig(a)[1])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"Schur decomposition failed: {exc}", {"dim": a.shape[0]}
        ) from exc
    u = np.triu(adjoint(q) @ a @ q)
    with np.errstate(over="ignore"):  # frobenius_norm rescales what overflows
        scale = max(1.0, frobenius_norm(a))
        residual = frobenius_norm(a - q @ u @ adjoint(q))
    if residual > 1e-8 * scale:
        raise NumericalFailureError(
            "Schur factors violate the residual contract", {"residual": residual, "scale": scale}
        )
    return q, u
