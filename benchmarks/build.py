"""Benchmark inputs built from the workload seed with plain numpy.

Nothing here calls into ``opertuple``: the program under test receives only
the matrices, so a change to the program cannot change its own inputs. Each
family is built so that the answers the program should give are known from
the construction itself; ``Instance`` carries that truth next to the
matrices.

Families (all tuples commute because every component is a function of one
diagonalisation):

* pi-diagonal: ``V diag(lambda_j) V*`` with ``V`` unitary, where every joint
  eigenvalue column is either a unit vector or has one zero coordinate. The
  (m; 1...1) partial-isometry defect is then exactly 0 for every m.
* non-normal: ``W diag(lambda_j) W^-1`` with ``W`` a unitary times a positive
  diagonal times a unitary (condition number at most e^1.4).
* inverse pair: ``T_j + 12 I`` over the non-normal family, and
  ``S_j = (T_j + 12 I)^-1 / d``, so sum_j S_j T_j = I and beta_1 = 0.

``variant`` draws further instances of the same family for one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SHIFT = 12.0
# A zero-variety column whose norm sits this close to 1 would make the
# isometry and spectral-radius truths depend on roundoff; such draws are redrawn.
_NORM_GAP = 0.1

_FAMILY_SALT = {"pi_diagonal": 1, "non_normal": 2}


@dataclass(frozen=True)
class Instance:
    """Matrices of one tuple and the truth known from how they were built."""

    family: str
    dim: int
    d: int
    matrices: tuple[np.ndarray, ...]
    columns: np.ndarray  # d x dim: column i is the joint eigenvalue of eigenvector i
    unit: np.ndarray  # bool per column: on the unit sphere (pi-diagonal only)

    @property
    def zero_variety(self) -> np.ndarray:
        """Columns with a zero coordinate, i.e. in the zero variety."""
        return np.any(self.columns == 0, axis=0)

    @property
    def radius(self) -> float:
        return float(np.max(np.linalg.norm(self.columns, axis=0)))

    @property
    def component_invertible(self) -> tuple[bool, ...]:
        return tuple(bool(np.all(self.columns[j] != 0)) for j in range(self.d))

    def isometry_defect_norm(self, m: int) -> float:
        """||beta_m(T*, T)||_F = sqrt(sum_i (||lambda_i||^2 - 1)^(2m)) for normal T."""
        gaps = np.linalg.norm(self.columns, axis=0) ** 2 - 1.0
        gaps[self.unit] = 0.0
        return float(math.sqrt(float(np.sum(gaps ** (2 * m)))))


@dataclass(frozen=True)
class InversePair:
    """T_j + 12 I and S_j = (T_j + 12 I)^-1 / d over one non-normal tuple."""

    s: tuple[np.ndarray, ...]
    t: tuple[np.ndarray, ...]


def _rng(seed: int, family: str, dim: int, d: int, variant: int) -> np.random.Generator:
    return np.random.default_rng([seed, _FAMILY_SALT[family], dim, d, variant])


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def pi_diagonal(seed: int, dim: int, d: int, variant: int = 0) -> Instance:
    """Unitarily conjugated diagonals: unit columns or one-zero-coordinate columns."""
    if d < 2:
        raise ValueError("the pi-diagonal family needs d >= 2")
    rng = _rng(seed, "pi_diagonal", dim, d, variant)
    columns = np.zeros((d, dim), dtype=np.complex128)
    unit = np.zeros(dim, dtype=bool)
    for i in range(dim):
        if rng.random() < 0.5:
            col = _complex_normal(rng, d)
            columns[:, i] = col / np.linalg.norm(col)
            unit[i] = True
            continue
        while True:
            col = _complex_normal(rng, d)
            col[int(rng.integers(d))] = 0.0
            if abs(np.linalg.norm(col) - 1.0) >= _NORM_GAP:
                break
        columns[:, i] = col
    v = _unitary(rng, dim)
    vh = v.conj().T
    mats = tuple(v @ np.diag(columns[j]) @ vh for j in range(d))
    return Instance("pi_diagonal", dim, d, mats, columns, unit)


def non_normal(seed: int, dim: int, d: int, variant: int = 0) -> Instance:
    """Similarity-conjugated diagonals with generic joint eigenvalues."""
    rng = _rng(seed, "non_normal", dim, d, variant)
    columns = _complex_normal(rng, (d, dim)) / math.sqrt(d)
    w = _unitary(rng, dim) @ np.diag(np.exp(rng.uniform(-0.7, 0.7, dim))) @ _unitary(rng, dim)
    w_inv = np.linalg.inv(w)
    mats = tuple(w @ np.diag(columns[j]) @ w_inv for j in range(d))
    return Instance("non_normal", dim, d, mats, columns, np.zeros(dim, dtype=bool))


def inverse_pair(seed: int, dim: int, d: int, variant: int = 0) -> InversePair:
    base = non_normal(seed, dim, d, variant)
    eye = np.eye(dim)
    t = tuple(m + SHIFT * eye for m in base.matrices)
    return InversePair(s=tuple(np.linalg.inv(m) / d for m in t), t=t)
