"""Dense complex matrix primitives shared by every other module.

Thin, contract-checked wrappers around numpy/scipy LAPACK routines: adjoints,
Frobenius norms, rank-revealing null spaces, eigendecomposition, and complex
Schur triangularization. Rank decisions use a scale-invariant singular-value
cutoff instead of a fixed epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

_EPS = float(np.finfo(np.float64).eps)


class NumericalFailureError(RuntimeError):
    """A numerical routine failed to converge or violated its residual contract."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class ToleranceModel:
    """Thresholds governing "zero", "commuting", and rank decisions.

    A quantity of norm ``x`` with reference magnitude ``scale`` counts as zero
    when ``x <= abs_tol + rel_tol * scale``. Rank cutoffs are
    ``rank_factor * eps * dim * sigma_max``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    rank_factor: float = 1e3

    def __post_init__(self):
        fields = (self.abs_tol, self.rel_tol, self.rank_factor)
        if not all(math.isfinite(f) and f >= 0 for f in fields):
            raise ValueError("tolerance fields must be finite and nonnegative")

    def is_zero(self, norm: float, scale: float = 0.0) -> bool:
        return norm <= self.abs_tol + self.rel_tol * scale

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
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T.copy()


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def null_space_basis(a: np.ndarray, tol: ToleranceModel = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of ``a``.

    Accepts rectangular input so stacked systems [T_1 - l_1; ...; T_d - l_d]
    can be handled. Basis vectors are right singular vectors whose singular
    values fall at or below the rank cutoff; an exactly zero matrix yields the
    full standard basis.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    n = a.shape[1]
    _, s, vh = np.linalg.svd(a)
    sigma = np.zeros(n)
    sigma[: len(s)] = s
    sigma_max = float(sigma[0]) if n else 0.0
    cutoff = tol.rank_cutoff(max(a.shape), sigma_max)
    mask = sigma <= cutoff
    return vh.conj().T[:, mask]


def eigendecomposition(a: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs (with algebraic multiplicity) of a square matrix.

    Each returned eigenvector is unit norm with residual
    ||A v - lambda v|| <= 1e-8 * max(1, ||A||_F). Ordering is whatever LAPACK
    produces; callers sort or cluster themselves. For defective matrices the
    vectors may repeat.
    """
    a = as_matrix(a)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigendecomposition did not converge: {exc}",
            {"dim": a.shape[0], "norm": frobenius_norm(a)},
        ) from exc
    bound = 1e-8 * max(1.0, frobenius_norm(a))
    pairs = []
    for lam, v in zip(values, vectors.T):
        v = v / np.linalg.norm(v)
        residual = float(np.linalg.norm(a @ v - lam * v))
        if residual > bound:
            raise NumericalFailureError(
                "eigenpair residual exceeds contract",
                {"eigenvalue": complex(lam), "residual": residual, "bound": bound},
            )
        pairs.append((complex(lam), v))
    return pairs


def unitary_triangularize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form: returns (Q, U) with A = Q U Q*, Q unitary, U upper."""
    a = as_matrix(a)
    try:
        u, q = scipy.linalg.schur(a, output="complex")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailureError(
            f"Schur decomposition failed: {exc}", {"dim": a.shape[0]}
        ) from exc
    scale = max(1.0, frobenius_norm(a))
    residual = frobenius_norm(a - q @ u @ adjoint(q))
    unitarity = frobenius_norm(adjoint(q) @ q - np.eye(a.shape[0]))
    if residual > 1e-8 * scale or unitarity > 1e-10:
        raise NumericalFailureError(
            "Schur factors violate the residual contract",
            {"residual": residual, "unitarity": unitarity, "scale": scale},
        )
    return q, u
