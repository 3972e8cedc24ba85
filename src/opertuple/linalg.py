"""Dense complex matrix primitives shared by every other module.

Thin, contract-checked wrappers around numpy's LAPACK routines: adjoints, Frobenius norms,
``binary_exponent`` (which every exact power-of-two scaling reads), scaling to unit magnitude,
rank-revealing null spaces, and complex Schur triangularization. Rank decisions use a scale-invariant
singular-value cutoff instead of a fixed epsilon. The Schur form is built from eigenvectors, so numpy
is the only dependency.
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
    and a NaN scale are never zero. Both may be given in units of ``2^exponent`` (the threshold
    is then ``abs_tol 2^-exponent + rel_tol * scale``, inf past the float range), so a decision on
    operands past the float range, or scaled up from far below 1, is taken where both are finite.
    Rank cutoffs are ``rank_factor * eps * dim * sigma_max``.
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
        return times_power_of_two(self.abs_tol, -exponent) + self.rel_tol * scale

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
    """||a||_F; finite input whose squares overflow or underflow (a norm below 2^-511) is rescaled by max |a_ij|.

    The two dot products ``np.linalg.norm(a, "fro")`` runs, without its argument
    handling, so the value agrees with numpy's to roundoff. Its overflow warning is the caller's
    to silence (``np.errstate``): one errstate per call here slows the operator-polynomial path ~10%.
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
    if not 2.0**-511 <= norm < math.inf and 0.0 < (big := float(np.abs(x).max(initial=0.0))) < math.inf:
        norm = big * frobenius_norm(x.view(np.float64) / big)  # the parts: no complex division's 1 / big
    return norm


def times_power_of_two(value: float, e: int) -> float:
    """value * 2^e for value >= 0, inf past the float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def binary_exponent(a) -> int:
    """``math.frexp``'s exponent e of the largest real or imaginary part of ``a`` (a complex128 or
    float64 array, or a float), which lies in [2^(e-1), 2^e); 0 for a zero, empty or non-finite ``a``."""
    return math.frexp(float(np.abs(np.ascontiguousarray(a).view(np.float64)).max(initial=0.0)))[1]


def unit_scaled(m: np.ndarray) -> np.ndarray:
    """m times the power of two that brings its largest real or imaginary part into [1, 2), zero for
    a zero m; np.ldexp scales the parts exactly even where that power passes the float range."""
    x = np.ascontiguousarray(m)
    return np.ldexp(x.view(np.float64), 1 - binary_exponent(x)).view(x.dtype)


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
        return null_space_basis(unit_scaled(a), tol, math.ldexp(scale, 1 - binary_exponent(a)))
    cutoff = tol.rank_cutoff(max(a.shape), max(sigma_max, scale))
    mask = sigma <= cutoff
    return vh.conj().T[:, mask]


def unitary_triangularize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form: returns (Q, U) with A = Q U Q*, Q unitary, U upper.

    Q is the QR factor of the eigenvector matrix and U = triu(Q* A Q) (Golub &
    Van Loan, Matrix Computations, 4th ed., 7.1). The contract is the residual alone, the dropped
    lower triangle of Q* A Q, at most 1e-8 ||A||_F (so a defective A fails), which is
    ||A - Q U Q*||_F to roundoff since Householder QR makes Q unitary to O(n eps) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 19.3).
    """
    a = as_matrix(a)
    try:
        q, _ = np.linalg.qr(np.linalg.eig(a)[1])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"Schur decomposition failed: {exc}", {"dim": a.shape[0]}
        ) from exc
    full = adjoint(q) @ a @ q
    u = np.triu(full)
    with np.errstate(over="ignore"):  # frobenius_norm rescales what overflows
        scale = frobenius_norm(a)
        residual = frobenius_norm(np.tril(full, -1))
    if residual > 1e-8 * scale:
        raise NumericalFailureError(
            "Schur factors violate the residual contract", {"residual": residual, "scale": scale}
        )
    return q, u
