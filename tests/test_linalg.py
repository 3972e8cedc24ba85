import pathlib
import re

import numpy as np
import pytest

from opertuple.generators import example_2_1_matrix, example_2_2_matrices
from opertuple.linalg import (
    DEFAULT_TOL,
    ToleranceModel,
    adjoint,
    as_matrix,
    frobenius_norm,
    null_space_basis,
    unitary_triangularize,
)
from opertuple.spectra import joint_spectrum
from opertuple.tuples import make_tuple

RNG = np.random.default_rng(20240809)


def random_complex(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 0]]))


def test_adjoint_hand_example():
    a = np.array([[0, 1j], [0, 0]])
    expected = np.array([[0, 0], [-1j, 0]])
    np.testing.assert_array_equal(adjoint(a), expected)


def test_adjoint_involution_and_product_reversal():
    for _ in range(5):
        a, b = random_complex(4), random_complex(4)
        np.testing.assert_array_equal(adjoint(adjoint(a)), a)
        np.testing.assert_array_equal(adjoint(a @ b), adjoint(b) @ adjoint(a))


def test_frobenius_values():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    t1, _ = example_2_2_matrices()
    assert frobenius_norm(t1) == pytest.approx(np.sqrt(3.0), abs=1e-14)


def test_frobenius_submultiplicative():
    for _ in range(10):
        a, b = random_complex(5), random_complex(5)
        assert frobenius_norm(a @ b) <= frobenius_norm(a) * frobenius_norm(b) * (1 + 1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_frobenius_rescales_only_past_overflow():
    big = np.array([[1e160, 0], [3e160j, 0]])
    assert frobenius_norm(big) == pytest.approx(np.sqrt(10.0) * 1e160, rel=1e-15)
    assert frobenius_norm(np.array([[np.inf, 0], [0, 0]])) == np.inf
    for _ in range(5):
        a = random_complex(6) * 10.0 ** RNG.integers(-150, 150)
        assert frobenius_norm(a) == float(np.linalg.norm(a, "fro"))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_frobenius_is_numpys_norm():
    a = random_complex(7)
    cases = [a, a.real.copy(), np.arange(-12, 13).reshape(5, 5), a[::2, 1::3], a.T, a.real[:, ::-1]]
    for m in cases:
        np.testing.assert_array_max_ulp(frobenius_norm(m), np.linalg.norm(m, "fro"), maxulp=4)
    big = a * 1e160  # past the float range squared: rescaled by its largest modulus
    top = float(np.abs(big).max())
    assert np.linalg.norm(big, "fro") == np.inf
    np.testing.assert_array_max_ulp(frobenius_norm(big), top * np.linalg.norm(big / top, "fro"), maxulp=4)


def test_null_space_zero_matrix_full_basis():
    basis = null_space_basis(np.zeros((3, 3)))
    assert basis.shape == (3, 3)


def test_null_space_identity_empty():
    assert null_space_basis(np.eye(2)).shape == (2, 0)


def test_null_space_cutoff_takes_the_larger_scale():
    # A sigma_max of 1e-15 is its own cutoff's scale, so alone it is kept; at
    # scale 1 (the operands it was computed from) it is roundoff.
    a = 1e-15 * np.outer([1.0, 2.0, 2.0], [1.0, 0.0, 1.0])
    assert null_space_basis(a).shape == (3, 2)
    assert null_space_basis(a, scale=1.0).shape == (3, 3)
    assert null_space_basis(np.eye(3), scale=1e-3).shape == (3, 0)


def test_null_space_past_the_float_range_is_decided_at_unit_magnitude():
    # [N; N] has sigma_max = sqrt(2) 1.5e308, past the float range. An infinite cutoff
    # counted e_2 as null too, though N e_2 = 1.5e308 e_1; on the copy scaled by
    # 2^-1023 only e_1 is.
    n = np.array([[0.0, 1.5e308], [0.0, 0.0]])
    stack = np.vstack([n, n])
    basis = null_space_basis(stack)
    assert np.array_equal(basis, null_space_basis(np.ldexp(stack, -1023)))
    assert basis.shape == (2, 1)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=0.0)


def test_null_space_golden_column():
    # T = [[a, 0], [1, 0]]: T x = (a x1, x1) vanishes iff x1 = 0
    a = np.sqrt((1 + np.sqrt(5.0)) / 2)
    basis = null_space_basis(np.array([[a, 0.0], [1.0, 0.0]]))
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) < 1e-12
    assert abs(basis[0, 0]) < 1e-12


def test_null_space_properties_random_rank_deficient():
    for n in (3, 5):
        low = random_complex(n) @ np.diag([1.0] * (n - 1) + [0.0])
        basis = null_space_basis(low)
        gram = adjoint(basis) @ basis
        np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-12)
        s_max = np.linalg.svd(low, compute_uv=False)[0]
        cutoff = DEFAULT_TOL.rank_cutoff(n, float(s_max))
        for k in range(basis.shape[1]):
            assert np.linalg.norm(low @ basis[:, k]) <= 10 * cutoff


def _full_svd_null_space(a):
    """Reference: the null space from the full SVD, the same cutoff."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    sigma = np.zeros(a.shape[1])
    sigma[: len(s)] = s
    cutoff = DEFAULT_TOL.rank_cutoff(max(a.shape), float(sigma[0]))
    return vh.conj().T[:, sigma <= cutoff]


@pytest.mark.parametrize(
    "rows, cols, rank",
    [
        (24, 6, 6),  # tall stacks [T_1 - l_1; ...; T_4 - l_4], null dimension k = 0, 1, 2
        (24, 6, 5),
        (24, 6, 4),
        (3, 7, 3),  # wide: the null vectors are the rows of vh past the rank
        (4, 7, 2),
        (24, 6, 0),  # zero matrices
        (3, 7, 0),
        (5, 5, 0),
    ],
)
def test_null_space_matches_full_svd_reference(rows, cols, rank):
    rng = np.random.default_rng([rows, cols, rank])
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    a = left @ right
    basis = null_space_basis(a)
    reference = _full_svd_null_space(a)
    assert basis.shape == reference.shape == (cols, cols - rank)
    np.testing.assert_allclose(adjoint(basis) @ basis, np.eye(cols - rank), atol=1e-12)
    np.testing.assert_allclose(
        basis @ adjoint(basis), reference @ adjoint(reference), atol=1e-12
    )


def _eigenvalues(a):
    """The eigenvalues of A on the program's own path: the Taylor diagonal of the 1-tuple (A)."""
    return [lam for (lam,) in joint_spectrum(make_tuple([a])).taylor_diagonal]


def test_eigendecomposition_diagonal():
    values = sorted(lam.real for lam in _eigenvalues(np.diag([1.0, 2.0])))
    assert values == pytest.approx([1.0, 2.0])


def test_eigendecomposition_example_2_1():
    # characteristic polynomial -x^3 + x/sqrt(2): roots 0, +-2^(-1/4)
    mu = 2.0 ** (-0.25)
    values = _eigenvalues(example_2_1_matrix())
    assert sorted(lam.real for lam in values) == pytest.approx([-mu, 0.0, mu], abs=1e-10)
    for lam in values:
        assert abs(lam.imag) < 1e-10


def test_eigendecomposition_example_2_2_cube_roots():
    t1, _ = example_2_2_matrices()
    # T1 = i * (3-cycle): eigenvalues i * omega with omega^3 = 1
    expected = sorted((1j * np.exp(2j * np.pi * k / 3) for k in range(3)), key=np.angle)
    for lam, mu in zip(sorted(_eigenvalues(t1), key=np.angle), expected):
        assert abs(lam - mu) < 1e-10
    result = joint_spectrum(make_tuple([t1]))
    assert len(result.point_spectrum) == 3
    for ((lam,), x), res in zip(result.point_spectrum, result.residuals):
        v = np.asarray(x)
        assert min(abs(lam - mu) for mu in expected) < 1e-10
        assert max(res, np.linalg.norm(t1 @ v - lam * v)) < 1e-10


def test_unitary_triangularize_contracts():
    for n in (2, 5):
        a = random_complex(n)
        q, u = unitary_triangularize(a)
        assert frobenius_norm(a - q @ u @ adjoint(q)) <= 1e-8 * max(1, frobenius_norm(a))
        assert frobenius_norm(adjoint(q) @ q - np.eye(n)) <= 1e-10
        assert np.linalg.norm(np.tril(u, -1)) < 1e-10


def test_unitary_triangularize_hermitian_gives_diagonal():
    a = random_complex(4)
    h = a + adjoint(a)
    _, u = unitary_triangularize(h)
    off = u - np.diag(np.diag(u))
    assert frobenius_norm(off) < 1e-8 * frobenius_norm(h)


def test_tolerance_model_validation():
    with pytest.raises(ValueError):
        ToleranceModel(abs_tol=-1.0)
    tol = ToleranceModel()
    assert tol.is_zero(5e-11)
    assert not tol.is_zero(1e-3, scale=1.0)
    assert tol.is_zero(1e-3, scale=1e8)


def test_threshold_is_the_zero_test_formula():
    tol = ToleranceModel(abs_tol=1e-9, rel_tol=1e-6)
    for scale in (0.0, 1.0, 3.7, 1e8):
        assert tol.threshold(scale) == 1e-9 + 1e-6 * scale
        assert tol.is_zero(tol.threshold(scale), scale)
        assert not tol.is_zero(np.nextafter(tol.threshold(scale), np.inf), scale)
    assert DEFAULT_TOL.threshold() == DEFAULT_TOL.abs_tol


def test_threshold_in_units_of_a_power_of_two():
    # norm and scale given divided by 2^e: only abs_tol needs the same division
    tol = ToleranceModel(abs_tol=1e-9, rel_tol=1e-6)
    assert tol.threshold(3.0, 0) == tol.threshold(3.0)
    assert tol.threshold(3.0, 10) == 1e-9 / 1024 + 1e-6 * 3.0
    assert tol.threshold(3.0, 2000) == 1e-6 * 3.0
    assert tol.is_zero(3e-6, 3.0, 2000)
    assert not tol.is_zero(3.1e-6, 3.0, 2000)


def test_nan_is_never_zero():
    nan = float("nan")
    assert not DEFAULT_TOL.is_zero(nan, 1.0)
    assert not DEFAULT_TOL.is_zero(1.0, nan)
    assert not DEFAULT_TOL.is_zero(nan)
    assert not ToleranceModel(abs_tol=1e300, rel_tol=1e300).is_zero(nan, 1.0)


def test_non_finite_norm_is_never_zero():
    inf = float("inf")
    assert not DEFAULT_TOL.is_zero(inf, inf)
    assert not DEFAULT_TOL.is_zero(-inf)
    assert DEFAULT_TOL.is_zero(1e300, inf)


def test_tolerance_fields_are_read_only_by_the_model_and_its_serializer():
    # every zero decision goes through ToleranceModel.threshold / is_zero
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "opertuple"
    readers = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name not in ("linalg.py", "reports.py")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\.(abs_tol|rel_tol)\b", line)
    ]
    assert readers == []


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "rank_factor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_tolerance_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        ToleranceModel(**{field: value})
