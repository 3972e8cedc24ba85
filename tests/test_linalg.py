import numpy as np
import pytest

from opertuple.generators import example_2_1_matrix, example_2_2_matrices
from opertuple.linalg import (
    DEFAULT_TOL,
    ToleranceModel,
    adjoint,
    as_matrix,
    eigendecomposition,
    frobenius_norm,
    null_space_basis,
    unitary_triangularize,
)

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


def test_null_space_zero_matrix_full_basis():
    basis = null_space_basis(np.zeros((3, 3)))
    assert basis.shape == (3, 3)


def test_null_space_identity_empty():
    assert null_space_basis(np.eye(2)).shape == (2, 0)


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


def test_eigendecomposition_diagonal():
    pairs = eigendecomposition(np.diag([1.0, 2.0]))
    values = sorted(lam.real for lam, _ in pairs)
    assert values == pytest.approx([1.0, 2.0])


def test_eigendecomposition_example_2_1():
    # characteristic polynomial -x^3 + x/sqrt(2): roots 0, +-2^(-1/4)
    mu = 2.0 ** (-0.25)
    values = sorted(lam.real for lam, _ in eigendecomposition(example_2_1_matrix()))
    assert values == pytest.approx([-mu, 0.0, mu], abs=1e-10)
    for lam, _ in eigendecomposition(example_2_1_matrix()):
        assert abs(lam.imag) < 1e-10


def test_eigendecomposition_example_2_2_cube_roots():
    t1, _ = example_2_2_matrices()
    # T1 = i * (3-cycle): eigenvalues i * omega with omega^3 = 1
    got = sorted(eigendecomposition(t1), key=lambda p: np.angle(p[0]))
    expected = sorted((1j * np.exp(2j * np.pi * k / 3) for k in range(3)), key=np.angle)
    for (lam, v), mu in zip(got, expected):
        assert abs(lam - mu) < 1e-10
        assert np.linalg.norm(t1 @ v - lam * v) < 1e-10


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


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "rank_factor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_tolerance_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        ToleranceModel(**{field: value})
