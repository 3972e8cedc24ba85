import itertools
import math

import numpy as np
import pytest

from opertuple import cli
from opertuple.defects import null_reducing_check, partial_isometry_defect
from opertuple.generators import (
    EXAMPLES,
    diagonal_conjugate,
    example_2_1_matrix,
    paper_example,
    polynomial_family,
    random_partial_isometry,
    random_unitary,
    scaled_family,
    scaled_single,
)
from opertuple.linalg import adjoint, frobenius_norm
from opertuple.tuples import is_doubly_commuting, make_tuple


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


def rng(seed):
    return np.random.default_rng(seed)


def test_generator_determinism_bit_identical():
    t1 = polynomial_family(rng(987), 4, 3, 3)
    t2 = polynomial_family(rng(987), 4, 3, 3)
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a, b)


def test_generator_distinct_seeds_differ():
    a = polynomial_family(rng(1), 3, 2, 3)[0]
    b = polynomial_family(rng(2), 3, 2, 3)[0]
    assert frobenius_norm(a - b) > 1e-6


def test_polynomial_family_commutes_tightly():
    for seed in range(5):
        t = polynomial_family(rng(seed), 5, 3, 3)
        assert t.max_commutator_norm <= 1e-12
        assert max(frobenius_norm(m) for m in t) <= 10.0 + 1e-9


def test_diagonal_conjugate_unitary_is_doubly_commuting():
    assert is_doubly_commuting(diagonal_conjugate(rng(5), 4, 2, True, False))


def test_diagonal_conjugate_similarity_commutes():
    t = diagonal_conjugate(rng(6), 4, 2, False, False)
    assert t.max_commutator_norm <= 1e-10


def test_diagonal_conjugate_pi_diagonals_gives_partial_isometry():
    for seed in range(5):
        t = diagonal_conjugate(rng(seed), 5, 3, True, True)
        assert partial_isometry_defect(t, 1, (1, 1, 1)).is_zero


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_scaled_family_is_a_partial_isometry(rank):
    for seed in range(3):
        t = scaled_family(rng(seed), 4, 2, rank)
        assert np.linalg.matrix_rank(t[0]) == rank
        assert partial_isometry_defect(t, 1, (1, 1)).is_zero


def test_direct_sum_zero_pad_keeps_verdict():
    t = make_tuple([np.pad(m, (0, 2)) for m in paper_example("2.1(2)").tuple])
    assert t.dim == 5
    assert partial_isometry_defect(t, 1, (1, 1)).is_zero


def test_direct_sum_unitary_zero_block_reducing():
    t = make_tuple([np.pad(m, (0, 2)) for m in scaled_family(rng(3), 4, 2, 4)])
    reducing, basis = null_reducing_check(t, (1, 1))
    assert reducing and basis.shape[1] == 2


def test_random_unitary_is_unitary():
    u = random_unitary(5, np.random.default_rng(1))
    assert frobenius_norm(adjoint(u) @ u - np.eye(5)) < 1e-12


# Entry [0, 0] of every component, recorded from the draws before the seeded
# families became plain functions: seeds 0-2 for each family, and (seed, trial) in
# (0, 0), (0, 1), (1, 0), ..., (2, 1) for each random-instance builder of the CLI,
# partner S's components first. A change in the order of draws moves them.
FAMILIES = {
    "polynomial_family": lambda rng: polynomial_family(rng, 3, 2, 2),
    "diagonal_conjugate_unitary": lambda rng: diagonal_conjugate(rng, 4, 2, True, True),
    "diagonal_conjugate_similar": lambda rng: diagonal_conjugate(rng, 4, 2, False, False),
    "scaled_family_unitary": lambda rng: scaled_family(rng, 3, 2, 3),
    "scaled_family_rank_3": lambda rng: scaled_family(rng, 4, 2, 3),
}

PINNED_FAMILIES = {
    "polynomial_family": [
        (0.23903154560192+0.88139668403632j, 0.88928916615174-0.98516637917239j),
        (-0.88597048843395-0.45645963681416j, -2.9682790053009-0.71147773289567j),
        (0.2940510239379+0.24008421697348j, -1.2719381318128-2.3706754747396j),
    ],
    "diagonal_conjugate_unitary": [
        (0.15479241894386+0.12114885582802j, -0.34675348275224+0.015091386156256j),
        (0.42497159641444-0.15954158296584j, 0.021020898952383-0.35755977588081j),
        (-0.23431237301425-0.44473788993281j, 0+0j),
    ],
    "diagonal_conjugate_similar": [
        (0.11644388155416-0.16523755992984j, 0.36011305646561-0.62217101485859j),
        (-0.11366955364348-0.14413366321353j, -0.1647468855264-0.032591158271983j),
        (-0.17189178447628+0.065285261708958j, 0.96838989807417-0.27377633314024j),
    ],
    "scaled_family_unitary": [
        (-0.020554110288986-0.099539271371032j, 0.34478503811232-0.21266797691353j),
        (-0.17855128227866-0.14878999039672j, -0.0051204216698373-0.11192943773301j),
        (0.15377258353714+0.027880439894544j, -0.020256974887382+0.16623465254174j),
    ],
    "scaled_family_rank_3": [
        (0.15249330958364-0.00087507485951729j, 0.11721682747857+0.048523688565954j),
        (0.016042849488071+0.010319713745482j, -0.013889216647809+0.053306352234253j),
        (0.1805085814208+0.030710075674291j, 0.23371269503935-0.17623756082768j),
    ],
}
PINNED_INSTANCES = {
    "_partial_isometry_instance": [
        (0.1298099508443+0.74488708578076j, -0.20943552948075-0.32013009841341j),
        (0.15249330958364-0.00087507485951729j, 0.11721682747857+0.048523688565954j),
        (0.5377882890902+0.071322328321508j, -0.15497993659071-0.34188385258997j),
        (0.016042849488071+0.010319713745482j, -0.013889216647809+0.053306352234253j),
        (-0.080761805941814-0.36111443804435j, -0.3796862681061-0.029499383906677j),
        (0.1805085814208+0.030710075674291j, 0.23371269503935-0.17623756082768j),
    ],
    "_quasinormal_instance": [
        (0.15479241894386+0.12114885582802j, -0.34675348275224+0.015091386156256j),
        (0.15479241894386+0.12114885582802j, -0.34675348275224+0.015091386156256j),
        (0.42497159641444-0.15954158296584j, 0.021020898952383-0.35755977588081j),
        (0.42497159641444-0.15954158296584j, 0.021020898952383-0.35755977588081j),
        (-0.23431237301425-0.44473788993281j, 0+0j),
        (-0.23431237301425-0.44473788993281j, 0+0j),
    ],
    "_inverse_pair_instance": [
        (
            0.040627249552647-0.0029238876619772j, 0.038573023942971+0.0029488505572692j,
            12.239031545602+0.88139668403632j, 12.889289166152-0.98516637917239j,
        ),
        (
            0.39927557910922+0.096448180942875j, 0.81188193307449+0.15382756246586j,
            1.0438359539486-0.065365711595718j, 1.2800520114936-0.0021240149614209j,
        ),
        (
            0.045231055241848+0.0022278604236997j, 0.053929469488452+0.0039912826759932j,
            11.114029511566-0.45645963681416j, 9.0317209946991-0.71147773289567j,
        ),
        (
            0.72010991444431+0.012621060140347j, 0.4415337786525+0.16262198886877j,
            1.2790232406765+0.27156945197023j, 0.91081502458581-0.58046215325133j,
        ),
        (
            0.040649191162982-0.00079976506766379j, 0.043872199840568+0.009298126825786j,
            12.294051023938+0.24008421697348j, 10.728061868187-2.3706754747396j,
        ),
        (
            0.3930727482884+0.35268522121241j, 0.35608767401122-0.018254781436684j,
            1.191583287215+0.014414408303618j, 1.7744721048279-0.36415284901018j,
        ),
    ],
    "_polynomial_pair_instance": [
        (
            0.23903154560192+0.88139668403632j, 0.88928916615174-0.98516637917239j,
            -0.88597048843395-0.45645963681416j, -2.9682790053009-0.71147773289567j,
        ),
        (
            0.23903154560192+0.88139668403632j, 0.88928916615174-0.98516637917239j,
            -0.88597048843395-0.45645963681416j, -2.9682790053009-0.71147773289567j,
        ),
        (
            -0.88597048843395-0.45645963681416j, -2.9682790053009-0.71147773289567j,
            0.2940510239379+0.24008421697348j, -1.2719381318128-2.3706754747396j,
        ),
        (
            -0.88597048843395-0.45645963681416j, -2.9682790053009-0.71147773289567j,
            0.2940510239379+0.24008421697348j, -1.2719381318128-2.3706754747396j,
        ),
        (
            0.2940510239379+0.24008421697348j, -1.2719381318128-2.3706754747396j,
            0.80566102168055+1.7800320304568j, -0.89047967431948+0.88477608566824j,
        ),
        (
            0.2940510239379+0.24008421697348j, -1.2719381318128-2.3706754747396j,
            0.80566102168055+1.7800320304568j, -0.89047967431948+0.88477608566824j,
        ),
    ],
}


def corner_entries(*tuples):
    return [m[0, 0] for t in tuples if t is not None for m in t]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_draws_are_pinned(family):
    for seed, pinned in enumerate(PINNED_FAMILIES[family]):
        observed = corner_entries(FAMILIES[family](rng(seed)))
        np.testing.assert_allclose(observed, pinned, rtol=0, atol=1e-12)


@pytest.mark.parametrize("claim", list(cli.CLAIMS))
def test_random_instance_draws_are_pinned(claim):
    build = cli.CLAIMS[claim].random_instance
    cases = itertools.product(range(3), range(2))
    for (seed, trial), pinned in zip(cases, PINNED_INSTANCES[build.__name__], strict=True):
        s, t, _, _ = build(seed, trial)
        np.testing.assert_allclose(corner_entries(s, t), pinned, rtol=0, atol=1e-12)
