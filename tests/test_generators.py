import math

import numpy as np
import pytest

from opertuple.defects import partial_isometry_defect
from opertuple.generators import (
    EXAMPLES,
    GeneratorSpec,
    example_2_1_matrix,
    paper_example,
    random_commuting_tuple,
    random_partial_isometry,
    random_unitary,
    scaled_single,
)
from opertuple.linalg import adjoint, frobenius_norm
from opertuple.tuples import is_doubly_commuting


def test_paper_example_ids_and_errors():
    for good in ("2.1(1)", "2.1(3)", "2.2", "3.golden(2)", "4.1-as-printed", "4.1-corrected"):
        paper_example(good)
    with pytest.raises(ValueError) as err:
        paper_example("5.9")
    assert "valid ids" in str(err.value)


@pytest.mark.parametrize("bad", ["2.1", "3.golden", "2.2(3)", "4.1-corrected(2)", "2.1(2"])
def test_unknown_example_ids_name_the_registry_keys(bad):
    with pytest.raises(ValueError) as err:
        paper_example(bad)
    assert str(err.value) == f"unknown example id {bad!r}; valid ids are " + ", ".join(EXAMPLES)
    assert list(EXAMPLES) == ["2.1(d)", "2.2", "3.golden(d)", "4.1-as-printed", "4.1-corrected"]


@pytest.mark.parametrize("bad", ["2.1()", "2.1(x)", "2.1(d)", "3.golden(0)", "3.golden(-1)"])
def test_bad_dimension_counts_rejected(bad):
    with pytest.raises(ValueError, match="d >= 1|bad dimension count"):
        paper_example(bad)


def test_paper_example_2_1_entries_exact():
    ex = paper_example("2.1(2)")
    s = 1.0 / math.sqrt(2.0)
    expected = example_2_1_matrix() * s
    for m in ex.tuple:
        np.testing.assert_array_equal(m, expected)
    assert ex.m == 1 and ex.q == (1, 1)


def test_paper_example_2_2_entries_exact():
    ex = paper_example("2.2")
    assert ex.tuple[0][0, 1] == 1j
    assert ex.tuple[0][2, 0] == 1j
    np.testing.assert_array_equal(ex.tuple[1], np.eye(3))


def test_paper_example_golden_value():
    ex = paper_example("3.golden(3)")
    a = ex.tuple[0][0, 0]
    assert abs(a) ** 2 == pytest.approx((1 + math.sqrt(5.0)) / 2.0, abs=1e-14)
    assert ex.q == (1, 0, 0)
    assert frobenius_norm(ex.tuple[1]) == 0.0


def test_paper_example_4_1_partner():
    ex = paper_example("4.1-corrected")
    np.testing.assert_array_equal(ex.partner[0] * 2.0, np.array([[1, -1], [0, 1]], dtype=complex))


def test_scaled_single_requires_unit_lambda():
    with pytest.raises(ValueError):
        scaled_single(np.eye(2), (1.0, 1.0))


def test_scaled_single_unitary_base_is_partial_isometry():
    u = random_unitary(3, np.random.default_rng(0))
    lam = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    t = scaled_single(u, lam)
    assert partial_isometry_defect(t, 1, (1, 1)).is_zero


def test_scaled_single_basis_lambda_pads_with_zero():
    t = scaled_single(np.eye(2), (1.0, 0.0, 0.0))
    assert frobenius_norm(t[1]) == 0.0 and frobenius_norm(t[2]) == 0.0


def test_scaled_single_matches_paper_example():
    d = 2
    lam = np.full(d, 1.0 / math.sqrt(d))
    t = scaled_single(example_2_1_matrix(), lam)
    ex = paper_example("2.1(2)")
    for a, b in zip(t, ex.tuple):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_random_partial_isometry_defect_property():
    # A = U P gives A (I - A* A) = 0 exactly up to roundoff; the scaled
    # tuple inherits the joint (1; 1...1) property
    rng = np.random.default_rng(2024)
    for trial in range(50):
        dim = int(rng.integers(2, 6))
        rank = int(rng.integers(1, dim + 1))
        a = random_partial_isometry(dim, rank, rng)
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam /= np.linalg.norm(lam)
        t = scaled_single(a, lam)
        res = partial_isometry_defect(t, 1, (1, 1))
        assert res.norm <= 1e-10


def test_generator_determinism_bit_identical():
    spec = GeneratorSpec(scheme="polynomial_family", seed=987, dim=4, d=3, params={"degree": 3})
    t1 = random_commuting_tuple(spec)
    t2 = random_commuting_tuple(spec)
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a, b)


def test_generator_distinct_seeds_differ():
    s1 = GeneratorSpec(scheme="polynomial_family", seed=1, dim=3, d=2)
    s2 = GeneratorSpec(scheme="polynomial_family", seed=2, dim=3, d=2)
    a = random_commuting_tuple(s1)[0]
    b = random_commuting_tuple(s2)[0]
    assert frobenius_norm(a - b) > 1e-6


def test_polynomial_family_commutes_tightly():
    for seed in range(5):
        spec = GeneratorSpec(scheme="polynomial_family", seed=seed, dim=5, d=3)
        t = random_commuting_tuple(spec)
        assert t.max_commutator_norm <= 1e-12
        assert max(frobenius_norm(m) for m in t) <= 10.0 + 1e-9


def test_diagonal_conjugate_unitary_is_doubly_commuting():
    spec = GeneratorSpec(
        scheme="diagonal_conjugate", seed=5, dim=4, d=2, params={"unitary": True}
    )
    assert is_doubly_commuting(random_commuting_tuple(spec))


def test_diagonal_conjugate_similarity_commutes():
    spec = GeneratorSpec(
        scheme="diagonal_conjugate", seed=6, dim=4, d=2, params={"unitary": False}
    )
    t = random_commuting_tuple(spec)
    assert t.max_commutator_norm <= 1e-10


def test_diagonal_conjugate_pi_diagonals_gives_partial_isometry():
    for seed in range(5):
        spec = GeneratorSpec(
            scheme="diagonal_conjugate",
            seed=seed,
            dim=5,
            d=3,
            params={"unitary": True, "pi_diagonals": True},
        )
        t = random_commuting_tuple(spec)
        assert partial_isometry_defect(t, 1, (1, 1, 1)).is_zero


def test_direct_sum_zero_pad_keeps_verdict():
    spec = GeneratorSpec(
        scheme="direct_sum",
        seed=17,
        dim=5,
        d=2,
        params={
            "blocks": [
                {"scheme": "paper_example", "dim": 3, "d": 2, "params": {"id": "2.1(2)"}}
            ],
            "zero_pad": 2,
        },
    )
    t = random_commuting_tuple(spec)
    assert t.dim == 5
    assert partial_isometry_defect(t, 1, (1, 1)).is_zero


def test_direct_sum_unitary_zero_block_reducing():
    from opertuple.tuples import null_reducing_check

    spec = GeneratorSpec(
        scheme="direct_sum",
        seed=3,
        dim=6,
        d=2,
        params={
            "blocks": [{"scheme": "scaled_single", "dim": 4, "d": 2, "params": {"base": "unitary"}}],
            "zero_pad": 2,
        },
    )
    t = random_commuting_tuple(spec)
    reducing, basis = null_reducing_check(t, (1, 1))
    assert reducing and basis.shape[1] == 2


def test_spec_roundtrip():
    spec = GeneratorSpec(scheme="scaled_single", seed=9, dim=3, d=2, params={"base": "unitary"})
    again = GeneratorSpec.from_dict(spec.to_dict())
    assert again == spec
    t1 = random_commuting_tuple(spec)
    t2 = random_commuting_tuple(again)
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a, b)


def test_random_unitary_is_unitary():
    u = random_unitary(5, np.random.default_rng(1))
    assert frobenius_norm(adjoint(u) @ u - np.eye(5)) < 1e-12
