"""Deterministic instance factories: worked examples and seeded random families.

The paper's worked examples are the registry ``EXAMPLES``: one entry per id,
whose builder returns the tuple, its (m, q), the partner tuple of the inverse
examples, the paper-discrepancy notes, and ``rows(seed)``, the
expected-vs-observed table that ``opertuple reproduce`` prints. Every expected
value is written there once.

The seeded random families (``polynomial_family``, ``diagonal_conjugate``,
``scaled_family``) are plain functions of a caller's ``np.random.Generator``,
as ``random_unitary`` is: the same stream gives a bit-identical tuple, and the
order of draws inside each function is fixed, pinned by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceModel, adjoint, as_matrix, frobenius_norm
from .reports import NOTE_EX41_SCALING, format_point
from .tuplefile import MAX_EXAMPLE_D
from .tuples import OperatorTuple, make_tuple

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def example_2_1_matrix() -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [s, s, 0.0]], dtype=np.complex128
    )


def example_2_2_matrices() -> tuple[np.ndarray, np.ndarray]:
    t1 = np.array(
        [[0.0, 1j, 0.0], [0.0, 0.0, 1j], [1j, 0.0, 0.0]], dtype=np.complex128
    )
    return t1, np.eye(3, dtype=np.complex128)


def golden_ratio_matrix() -> np.ndarray:
    a = math.sqrt(_GOLDEN)
    return np.array([[a, 0.0], [1.0, 0.0]], dtype=np.complex128)


def example_4_1_matrices() -> tuple[np.ndarray, np.ndarray]:
    t1 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    s1 = np.array([[1.0, -1.0], [0.0, 1.0]], dtype=np.complex128)
    return t1, s1


@dataclass(frozen=True)
class PaperExample:
    """A worked example: the tuple, suggested (m, q), and its reproduction table.

    ``rows(seed)`` computes the expected-vs-observed rows that ``reproduce``
    prints. ``partner`` carries the candidate m-inverse tuple for the inverse
    examples and is None otherwise; ``notes`` are the paper-discrepancy notes.
    """

    id: str
    tuple: OperatorTuple
    m: int
    q: tuple[int, ...] | None
    rows: Callable[[int], list[dict]]
    partner: OperatorTuple | None = None
    notes: tuple[str, ...] = ()


# Fixed match bounds of the reproduction rows.
REPRODUCE_ZERO_TOL = 1e-12  # a norm expected to vanish
REPRODUCE_NORM_TOL = 1e-10  # a norm expected to equal a nonzero printed value
REPRODUCE_SPECTRUM_TOL = 1e-8  # L-inf distance of joint eigenvalues, and the spectral radius


def _row(quantity: str, expected, observed, match) -> dict:
    return {"quantity": quantity, "expected": expected, "observed": observed, "match": bool(match)}


def _verdict_row(quantity: str, expected: bool, observed) -> dict:
    return _row(quantity, expected, observed, observed == expected)


def _norm_row(quantity: str, expected: float, norm: float) -> dict:
    """A norm, matched within REPRODUCE_ZERO_TOL of an expected 0 and within
    REPRODUCE_NORM_TOL of any other expected value."""
    bound = REPRODUCE_ZERO_TOL if expected == 0.0 else REPRODUCE_NORM_TOL
    return _row(quantity, expected, norm, abs(norm - expected) <= bound)


def _example_2_1(example_id: str, d: int) -> PaperExample:
    base = example_2_1_matrix()
    scale = 1.0 / math.sqrt(d)
    t = make_tuple([scale * base] * d)
    m, q = 1, (1,) * d

    def rows(seed: int) -> list[dict]:
        from .defects import partial_isometry_defect

        defect = partial_isometry_defect(t, m, q)
        return [
            _norm_row("partial_defect_norm", 0.0, defect.norm),
            _verdict_row(f"is ({m}; {q}) partial isometry", True, defect.is_zero),
        ]

    return PaperExample(id=example_id, tuple=t, m=m, q=q, rows=rows)


def _example_2_2(example_id: str) -> PaperExample:
    t = make_tuple(list(example_2_2_matrices()))
    m, q = 2, (1, 1)

    def rows(seed: int) -> list[dict]:
        from .defects import partial_isometry_defect

        out = []
        for j, label in ((0, "T1"), (1, "T2")):
            single = partial_isometry_defect(make_tuple([t[j]]), m, (1,))
            out.append(_norm_row(f"{label} (2;1) defect norm", 0.0, single.norm))
        pair = partial_isometry_defect(t, m, q)
        out.append(_norm_row("pair (2;(1,1)) defect norm", math.sqrt(3.0), pair.norm))
        out.append(_verdict_row("pair is (2;(1,1)) partial isometry", False, pair.is_zero))
        return out

    return PaperExample(id=example_id, tuple=t, m=m, q=q, rows=rows)


def _golden_ratio(example_id: str, d: int) -> PaperExample:
    a = math.sqrt(_GOLDEN)
    mats = [golden_ratio_matrix()] + [np.zeros((2, 2), dtype=np.complex128)] * (d - 1)
    t = make_tuple(mats)
    m, q = 2, (1,) + (0,) * (d - 1)
    points = [(complex(a),) + (0j,) * (d - 1), (0j,) * d]

    def rows(seed: int) -> list[dict]:
        from .defects import partial_isometry_defect
        from .spectra import joint_spectrum

        defect = partial_isometry_defect(t, m, q)
        spec = joint_spectrum(t, seed=seed)
        observed = [lam for lam, _ in spec.point_spectrum]
        matched = len(observed) == len(points) and all(
            any(max(abs(x - y) for x, y in zip(lam, mu)) <= REPRODUCE_SPECTRUM_TOL for mu in observed)
            for lam in points
        )
        radius = spec.spectral_radius
        return [
            _norm_row("partial_defect_norm", 0.0, defect.norm),
            _row(
                "joint point spectrum",
                [format_point(p) for p in points],
                [format_point(p) for p in observed],
                matched,
            ),
            _row("spectral_radius", a, radius, abs(radius - a) <= REPRODUCE_SPECTRUM_TOL),
        ]

    return PaperExample(id=example_id, tuple=t, m=m, q=q, rows=rows)


def _example_4_1(example_id: str, partner_scale: float, beta_norm: float) -> PaperExample:
    """Example 4.1's T = (T_1, T_1) against S = partner_scale (S_1, S_1), whose
    beta_1..beta_4 all have norm ``beta_norm``: a left 2-inverse exactly when that is 0."""
    t1, s1 = example_4_1_matrices()
    t = make_tuple([t1, t1])
    s = make_tuple([partner_scale * s1] * 2)
    m = 2

    def rows(seed: int) -> list[dict]:
        from .minverse import beta, is_left_m_inverse

        out = [_norm_row(f"beta_{k} norm", beta_norm, beta(s, t, k).norm) for k in range(1, 5)]
        return out + [_verdict_row("is left m-inverse", beta_norm == 0.0, is_left_m_inverse(s, t, m))]

    return PaperExample(
        id=example_id, tuple=t, m=m, q=None, rows=rows, partner=s, notes=(NOTE_EX41_SCALING,)
    )


# The worked examples, one entry per id. A key ending in "(d)" takes a literal
# positive integer d in its place, e.g. "2.1(2)"; the other keys are ids as they stand.
EXAMPLES: dict[str, Callable[..., PaperExample]] = {
    "2.1(d)": _example_2_1,
    "2.2": _example_2_2,
    "3.golden(d)": _golden_ratio,
    "4.1-as-printed": lambda example_id: _example_4_1(example_id, 1.0, math.sqrt(2.0)),
    "4.1-corrected": lambda example_id: _example_4_1(example_id, 0.5, 0.0),
}


def paper_example(example_id: str) -> PaperExample:
    """Construct one of the worked examples of ``EXAMPLES``, exactly as printed."""
    stem, paren, inner = example_id.partition("(")
    key = f"{stem}(d)" if paren and example_id.endswith(")") else example_id
    if key not in EXAMPLES:
        raise ValueError(
            f"unknown example id {example_id!r}; valid ids are {', '.join(EXAMPLES)}"
        )
    if not paren:
        return EXAMPLES[key](example_id)
    try:
        d = int(inner[:-1])
    except ValueError:
        raise ValueError(f"bad dimension count in example id {example_id!r}") from None
    if d < 1:
        raise ValueError(f"example id {example_id!r} needs d >= 1")
    if d > MAX_EXAMPLE_D:
        raise ValueError(f"example id {example_id!r} needs d <= MAX_EXAMPLE_D = {MAX_EXAMPLE_D}")
    return EXAMPLES[key](example_id, d)


def scaled_single(a, lam, tol: ToleranceModel = DEFAULT_TOL) -> OperatorTuple:
    """(lambda_1 A, ..., lambda_d A) for a unit vector lambda.

    If A is an (m, q_1)-partial isometry the result is a joint
    (m; (q_1,...,q_d))-partial isometry by the multinomial collapse.
    """
    a = as_matrix(a)
    lam = np.asarray(lam, dtype=np.complex128).reshape(-1)
    if lam.size < 1:
        raise ValueError("lambda must have at least one entry")
    norm = float(np.linalg.norm(lam))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"lambda must lie on the unit sphere, got ||lambda||_2 = {norm}")
    return make_tuple([lj * a for lj in lam], tol)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # Fix phases so the factorization (hence the draw) is unique.
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    w = random_unitary(dim, rng)
    d = np.zeros(dim)
    d[:rank] = 1.0
    return w @ np.diag(d) @ adjoint(w)


def random_partial_isometry(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """A = U P with U unitary and P an orthogonal projection.

    Then A (I - A*A) = U P (I - P) = 0, so A is a (1, 1)-partial isometry up
    to roundoff.
    """
    return random_unitary(dim, rng) @ random_projection(dim, rank, rng)


def _bounded(mats: list[np.ndarray]) -> OperatorTuple:
    """The tuple of ``mats``, each scaled down into the Frobenius ball of radius 10."""
    out = []
    for m in mats:
        norm = frobenius_norm(m)
        out.append(m * (10.0 / norm) if norm > 10.0 else m)
    return make_tuple(out)


def polynomial_family(rng: np.random.Generator, dim: int, d: int, degree: int) -> OperatorTuple:
    """T_j = p_j(B): one random B scaled to ||B||_2 <= 1, d random polynomials of ``degree``."""
    base = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    base /= max(1.0, float(np.linalg.norm(base, 2)))
    mats = []
    for _ in range(d):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        acc = np.zeros((dim, dim), dtype=np.complex128)
        power = np.eye(dim, dtype=np.complex128)
        for c in coeffs:
            acc += c * power
            power = power @ base
        mats.append(acc)
    return _bounded(mats)


def diagonal_conjugate(
    rng: np.random.Generator, dim: int, d: int, unitary: bool, pi_diagonals: bool
) -> OperatorTuple:
    """T_j = V diag(D_j) V^-1, V unitary or a random similarity with condition number <= e^1.4.

    With ``pi_diagonals`` each coordinate's column of D is either a unit vector (on the
    sphere) or has a zero entry. The (m; 1...1) defect is then zero only when V is unitary
    and ``_bounded`` rescales no T_j (every ||T_j||_F <= 10). Both hold at dim <= 64 for
    d <= 4; past dim ~100 the rescaling sets in (every draw at dim 128, d = 4), and the
    defect is no longer zero. With a similarity V, T_j* is not V diag(conj D_j) V^-1, and
    the defect is of order 1.
    """
    if pi_diagonals:
        diag = np.zeros((d, dim), dtype=np.complex128)
        for i in range(dim):
            col = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            if rng.random() < 0.5:
                col /= np.linalg.norm(col)
            else:
                col[int(rng.integers(d))] = 0.0
            diag[:, i] = col
    else:
        diag = (rng.standard_normal((d, dim)) + 1j * rng.standard_normal((d, dim))) / math.sqrt(d)
    if unitary:
        v = random_unitary(dim, rng)
        v_inv = adjoint(v)
    else:
        v = random_unitary(dim, rng) @ np.diag(
            np.exp(rng.uniform(-0.7, 0.7, dim))
        ) @ random_unitary(dim, rng)
        v_inv = np.linalg.inv(v)
    return _bounded([v @ np.diag(diag[j]) @ v_inv for j in range(d)])


def scaled_family(rng: np.random.Generator, dim: int, d: int, rank: int) -> OperatorTuple:
    """``scaled_single(A, lambda)`` of a random rank-``rank`` partial isometry A and a random
    unit lambda; at rank = dim, A is drawn as a plain unitary."""
    base = random_unitary(dim, rng) if rank == dim else random_partial_isometry(dim, rank, rng)
    lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lam /= np.linalg.norm(lam)
    return scaled_single(base, lam)
