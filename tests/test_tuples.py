import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opertuple.defects import Facts, null_reducing_check
from opertuple.generators import (
    example_2_1_matrix,
    golden_ratio_matrix,
    paper_example,
    random_unitary,
)
from opertuple.linalg import DEFAULT_TOL, ToleranceModel, adjoint, binary_exponent, frobenius_norm
from opertuple.tuples import (
    NonCommutingError,
    OperatorTuple,
    QuasinormalFlags,
    _commutator_table,
    _normal,
    adjoint_tuple,
    conjugate_by_unitary,
    is_doubly_commuting,
    make_tuple,
    permute_tuple,
    quasinormal_class,
    tuple_power,
)

from quasinormal_oracle import matricial_flip, quasinormal_reference

RNG = np.random.default_rng(7)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def diag_pair():
    return make_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])


def test_make_tuple_accepts_diagonals():
    t = diag_pair()
    assert t.d == 2 and t.dim == 2
    assert t.max_commutator_norm == 0.0


def test_make_tuple_rejects_non_commuting():
    with pytest.raises(NonCommutingError) as err:
        make_tuple([NILPOTENT, NILPOTENT.T])
    assert err.value.i == 0 and err.value.j == 1
    assert err.value.norm == pytest.approx(np.sqrt(2.0))


def test_make_tuple_rejects_an_overflowing_commutator():
    # the products overflow; at a power-of-two rescale the commutator is as large as
    # ||X||_F ||Y||_F, and its norm, 2e400, is reported as inf
    with pytest.raises(NonCommutingError) as err:
        make_tuple([[[1e200, 1e200], [0, 0]], [[0, 0], [1e200, 1e200]]])
    assert np.isinf(err.value.norm)


HUGE = 4.5e153
ONES = np.ones((4, 4))

# ||X||_F ||Y||_F overflows, so a comparison at full size would accept any finite
# norm; each pair is far from commuting relative to it. In the first the products
# overflow too, in the second they stay finite.
HUGE_NON_COMMUTING = {
    "products-overflow": (np.diag([1.5e154, 3e154]), np.array([[1.5e154, 1e154], [0, 3e154]]), 1e154),
    "products-finite": (HUGE * ONES, HUGE * (ONES + np.diag([1.0, 0, 0, 0])), HUGE),
}


@pytest.mark.parametrize("x, y, unit", HUGE_NON_COMMUTING.values(), ids=list(HUGE_NON_COMMUTING))
def test_make_tuple_rejects_a_huge_pair_whose_scale_overflows(x, y, unit):
    xs, ys = x / unit, y / unit
    with pytest.raises(NonCommutingError) as err:
        make_tuple([x, y])
    assert err.value.norm == pytest.approx(np.linalg.norm(xs @ ys - ys @ xs) * unit * unit, rel=1e-12)
    scale = np.linalg.norm(xs) * np.linalg.norm(ys)
    assert err.value.threshold == pytest.approx(DEFAULT_TOL.rel_tol * scale * unit * unit, rel=1e-12)


def test_make_tuple_rejects_a_commutator_whose_norm_overflows():
    # ||[T_0, T_1]||_F = 1e160 squares past the float range; it is measured, not inf
    with pytest.raises(NonCommutingError) as err:
        make_tuple([[[1e160, 0], [0, 0]], [[0, 1], [0, 0]]])
    assert err.value.norm == pytest.approx(1e160, rel=1e-15)


def test_make_tuple_accepts_a_commuting_pair_whose_products_overflow():
    # T T overflows, and inf - inf would be NaN; at a power-of-two rescale the commutator is 0
    big = np.diag([1e160, 2e160])
    t = make_tuple([big, big])
    assert t.max_commutator_norm == 0.0
    assert is_doubly_commuting(t)
    assert quasinormal_class(t) == QuasinormalFlags(True, True, True)


@pytest.mark.parametrize(
    "mats", [[np.diag([1.0, 2.0]), np.diag([3.0, 1j])], [np.eye(2) + 1e-3 * NILPOTENT], [NILPOTENT]]
)
def test_quasinormal_class_past_the_square_root_of_the_float_range(mats):
    # T_j* T_k overflows at 2^600 T; the flags are the ones of T
    huge = [math.ldexp(1.0, 600) * m for m in mats]
    assert quasinormal_class(make_tuple(huge)) == quasinormal_class(make_tuple(mats))


def _commutator(x, y):
    """The tests' oracle of a commutation decision: ``(norm, scale, e)`` for
    ``tol.is_zero(norm, scale, e)``, ||XY - YX||_F and ||X||_F ||Y||_F taken on X / 2^ex
    and Y / 2^ey, each exponent ``binary_exponent`` less one, e = ex + ey."""
    ex, ey = binary_exponent(x) - 1, binary_exponent(y) - 1
    xs, ys = x * math.ldexp(1.0, -ex), y * math.ldexp(1.0, -ey)
    return frobenius_norm(xs @ ys - ys @ xs), frobenius_norm(xs) * frobenius_norm(ys), ex + ey


def test_commutator_in_the_float_range_is_the_plain_computation():
    # the table's ||[X_0, X_1]||, ||[X_0, X_1*]|| and scale ||X_0|| ||X_1||, scaled back
    # by 2^(e_0 + e_1), are the plain values for (X, Y) bit for bit wherever the plain squares do not
    # underflow; at 1e-150 the plain products' squares do, and the plain norms are rescued to roundoff
    for scale in (1e-150, 1e-60, 1.0, 1e60):
        for _ in range(20):
            x, y = (scale * (RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5)))
                    for _ in range(2))
            exponents, _, _, norms, commutator = _commutator_table([x, y])
            e = sum(exponents)
            values = commutator(0, 1), commutator(0, 1, True), norms[0] * norms[1]
            table = [math.ldexp(value, e) for value in values]
            plain = [
                frobenius_norm(x @ y - y @ x),
                frobenius_norm(x @ adjoint(y) - adjoint(y) @ x),
                frobenius_norm(x) * frobenius_norm(y),
            ]
            assert (commutator(1, 0), commutator(1, 0, True)) == values[:2]
            if scale == 1e-150:
                assert table == pytest.approx(plain, rel=1e-14)
            else:
                assert table == plain
            if scale != 1.0:  # at 1 the largest parts are below or above 1
                assert (e > 0) == (scale > 1.0)


def test_adjoint_commutator_table_in_the_float_range_is_the_plain_computation():
    # the table's ||[X_0, X_1*]|| for T = (X, Y*), scaled back by 2^(e_0 + e_1), and its scale
    # ||X_0|| ||X_1||, are the plain values for X and Y bit for bit wherever the plain squares do
    # not underflow; at 1e-150 the plain ones are rescued to roundoff
    for scale in (1e-150, 1e-60, 1.0, 1e60):
        for _ in range(20):
            x, y = (scale * (RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5)))
                    for _ in range(2))
            exponents, _, _, norms, commutator = _commutator_table([x, adjoint(y)])
            e = sum(exponents)
            plain = frobenius_norm(x @ y - y @ x), frobenius_norm(x) * frobenius_norm(adjoint(y))
            norm = math.ldexp(commutator(0, 1, True), e), math.ldexp(norms[0] * norms[1], e)
            assert commutator(1, 0, True) == commutator(0, 1, True)
            if scale == 1e-150:
                assert norm == pytest.approx(plain, rel=1e-14)
            else:
                assert norm == plain
            if scale != 1.0:  # at 1 the largest parts are below or above 1
                assert (e > 0) == (scale > 1.0)


@pytest.mark.parametrize("big, small", [(1e100, 1e-100), (2.0**300, 2.0**-250)])
def test_doubly_commuting_is_decided_per_pair_across_scales(big, small):
    # (big N, small N) commutes, but [big N, (small N)*] = big small [N, N*] is far above abs_tol;
    # on one copy of the whole tuple small N / big underflows, so each pair keeps its own exponents
    t = make_tuple([big * NILPOTENT, small * NILPOTENT])
    gap = frobenius_norm(big * small * (NILPOTENT @ NILPOTENT.T - NILPOTENT.T @ NILPOTENT))
    assert gap > 1.0
    assert not is_doubly_commuting(t)


def _accepted(mats, tol):
    try:
        make_tuple(mats, tol)
    except NonCommutingError:
        return False
    return True


EPS = 1e-6

# Each decision with its input and the one commutator (X, Y) it turns on, about 1e-6 relative.
COMMUTATION_DECISIONS = {
    "make_tuple": (
        _accepted,
        [np.diag([1.0, 0.0]), np.eye(2) + 1.4 * EPS * NILPOTENT],
        lambda mats: (mats[0], mats[1]),
    ),
    "is_doubly_commuting": (
        lambda mats, tol: is_doubly_commuting(make_tuple(mats), tol),
        [NILPOTENT, np.eye(2) + EPS * NILPOTENT],
        lambda mats: (mats[0], adjoint(mats[1])),
    ),
    "quasinormal_class": (
        lambda mats, tol: quasinormal_class(make_tuple(mats), tol)
        == QuasinormalFlags(True, True, True),
        [np.eye(2) + 1e-3 * NILPOTENT],
        lambda mats: (mats[0], adjoint(mats[0]) @ mats[0]),
    ),
    "normal": (
        lambda mats, tol: _normal(_commutator_table(make_tuple(mats)), tol),
        [np.eye(2) + 1e-3 * NILPOTENT],
        lambda mats: (mats[0], adjoint(mats[0])),
    ),
}


@pytest.mark.parametrize("name", COMMUTATION_DECISIONS)
def test_commutation_decisions_flip_at_the_same_threshold(name):
    decide, mats, pair = COMMUTATION_DECISIONS[name]
    gap, scale, exponent = _commutator(*pair(mats))
    assert exponent == 0
    ratio = gap / scale  # at abs_tol = 0 the decision flips at rel_tol = ratio
    assert 1e-7 < ratio < 1e-5
    assert not decide(mats, DEFAULT_TOL)
    assert decide(mats, ToleranceModel(rel_tol=1e-5))
    assert decide(mats, ToleranceModel(abs_tol=0.0, rel_tol=ratio * (1 + 1e-6)))
    assert not decide(mats, ToleranceModel(abs_tol=0.0, rel_tol=ratio * (1 - 1e-6)))


def _commutation_verdicts(mats, tol):
    # the tuple is built unchecked so that non-commuting input reaches all three
    t = OperatorTuple(tuple(np.asarray(m, dtype=complex) for m in mats), max_commutator_norm=0.0)
    return _accepted(mats, tol), is_doubly_commuting(t, tol), quasinormal_class(t, tol)


def _verdict_inputs(seed, d, dim, kind):
    """d random matrices, or powers of one normal or random matrix."""
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(d)]
    base = draws[0]
    if kind == "normal":
        u = random_unitary(dim, rng)
        base = u @ np.diag(np.diag(base)) @ adjoint(u)
    if kind == "random":
        return draws
    return [np.linalg.matrix_power(base, j + 1) / 4.0**j for j in range(d)]


VERDICT_INPUTS = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    dim=st.integers(1, 6),
    kind=st.sampled_from(["normal", "polynomial", "random"]),
)


@settings(max_examples=60, deadline=None)
@given(**VERDICT_INPUTS, k=st.integers(0, 1000))
def test_commutation_verdicts_are_invariant_under_powers_of_two(seed, d, dim, kind, k):
    # 2^k T crosses where products overflowed (~2^512) and cubic ones did (~2^341);
    # with abs_tol = 0 every decision is homogeneous, so it is the one T gets
    mats = _verdict_inputs(seed, d, dim, kind)
    tol = ToleranceModel(abs_tol=0.0)
    huge = [math.ldexp(1.0, k) * m for m in mats]
    assert _commutation_verdicts(huge, tol) == _commutation_verdicts(mats, tol)


def _per_component_verdicts(mats, tol):
    """The gate, is_doubly_commuting, normality and the matricial and joint flags: the decisions
    homogeneous in each component (the ball of the spherical flag mixes the components' scales)."""
    t = OperatorTuple(tuple(np.asarray(m, dtype=complex) for m in mats), max_commutator_norm=0.0)
    flags = quasinormal_class(t, tol)
    normal = _normal(_commutator_table(t), tol)
    return _accepted(mats, tol), is_doubly_commuting(t, tol), normal, flags.matricial, flags.joint


@settings(max_examples=60, deadline=None)
@given(**VERDICT_INPUTS, j=st.integers(0, 2), k=st.integers(-600, 600))
def test_commutation_verdicts_do_not_depend_on_one_components_scale(seed, d, dim, kind, j, k):
    # each decision is taken at the components' own exponents, so with abs_tol = 0 multiplying
    # one component by 2^k moves none, even where that component's products would underflow
    mats = _verdict_inputs(seed, d, dim, kind)
    tol = ToleranceModel(abs_tol=0.0)
    moved = list(mats)
    moved[j % d] = math.ldexp(1.0, k) * mats[j % d]
    assert _per_component_verdicts(moved, tol) == _per_component_verdicts(mats, tol)


@pytest.mark.parametrize("s", [1.0, 1e-100, 1e-170])
def test_make_tuple_rejects_a_non_commuting_pair_far_below_unit_scale(s):
    # [sN, sN^T] = s^2 [N, N^T] is nonzero at every s; its plain squares underflow below ~1e-77
    with pytest.raises(NonCommutingError):
        make_tuple([s * NILPOTENT, s * NILPOTENT.T], ToleranceModel(abs_tol=0.0))


def test_quasinormal_class_measures_a_component_far_below_the_largest():
    # T_1 = 2^-300 (I + N) is not quasinormal: [T_1, T_1* T_1] = 2^-900 [N, N* + N* N] != 0. On one
    # copy of the whole tuple that commutator underflows; at T_1's own exponent it is measured
    t = make_tuple([np.eye(2), math.ldexp(1.0, -300) * (np.eye(2) + NILPOTENT)])
    flags = quasinormal_class(t, ToleranceModel(abs_tol=0.0))
    assert not flags.matricial and not flags.joint


def test_make_tuple_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        make_tuple([np.eye(2), np.eye(3)])


def test_paper_example_2_2_commutes():
    t = paper_example("2.2").tuple
    assert t.max_commutator_norm < 1e-15


def test_doubly_commuting_cases():
    assert is_doubly_commuting(diag_pair())
    pair = make_tuple([NILPOTENT, NILPOTENT])
    assert not is_doubly_commuting(pair)  # N N* != N* N
    u = random_unitary(3, RNG)
    scaled = make_tuple([0.3 * u, (0.5 + 0.2j) * u])
    assert is_doubly_commuting(scaled)


def test_tuple_power_identity_and_diag():
    t = diag_pair()
    np.testing.assert_array_equal(tuple_power(t, (0, 0)), np.eye(2))
    np.testing.assert_allclose(tuple_power(t, (1, 1)), np.diag([3.0, 8.0]))


def test_tuple_power_example_2_1_square():
    t = make_tuple([example_2_1_matrix()])
    sq = tuple_power(t, (2,))
    np.testing.assert_allclose(sq @ np.eye(3)[:, 0], (1 / np.sqrt(2)) * np.eye(3)[:, 0], atol=1e-15)


def test_tuple_power_additivity_random():
    # T^(alpha+beta) = T^alpha T^beta on commuting tuples
    for _ in range(5):
        base = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        t = make_tuple([base, base @ base / 4.0])
        a, b = (2, 1), (1, 2)
        combined = tuple_power(t, (3, 3))
        split = tuple_power(t, a) @ tuple_power(t, b)
        scale = frobenius_norm(combined)
        assert frobenius_norm(combined - split) <= 1e-10 * max(1.0, scale)


def test_tuple_power_rejects_bad_length():
    with pytest.raises(ValueError):
        tuple_power(diag_pair(), (1,))


def test_conjugate_by_unitary_identity_and_invariants():
    t = diag_pair()
    same = conjugate_by_unitary(t, np.eye(2))
    for m1, m2 in zip(t, same):
        np.testing.assert_array_equal(m1, m2)
    v = random_unitary(2, RNG)
    moved = conjugate_by_unitary(t, v)
    for m1, m2 in zip(t, moved):
        assert frobenius_norm(m1) == pytest.approx(frobenius_norm(m2), abs=1e-10)


def test_conjugate_rejects_non_unitary():
    with pytest.raises(ValueError):
        conjugate_by_unitary(diag_pair(), 2.0 * np.eye(2))


def test_permute_roundtrip_and_swap():
    t = diag_pair()
    swapped = permute_tuple(t, (1, 0))
    np.testing.assert_array_equal(swapped[0], t[1])
    back = permute_tuple(swapped, (1, 0))
    for m1, m2 in zip(t, back):
        np.testing.assert_array_equal(m1, m2)
    with pytest.raises(ValueError):
        permute_tuple(t, (0, 0))


def test_quasinormal_diagonal_all_true():
    flags = quasinormal_class(diag_pair())
    assert flags.matricial and flags.joint and flags.spherical


def test_quasinormal_nilpotent_all_false():
    flags = quasinormal_class(make_tuple([NILPOTENT, NILPOTENT]))
    assert not flags.matricial and not flags.joint and not flags.spherical


@pytest.mark.parametrize("largest", [0.0, 5e-324, 1e-300, 0.75, 1.0, 1.99, 2.0, 1e300, 1.5e308])
def test_table_brings_each_component_to_unit_magnitude(largest):
    # e = binary_exponent - 1, either sign, and X = T / 2^e exactly, its largest part in [1, 2)
    a = np.array([[largest, 0.5 * largest], [0.0, 1j * largest]])
    [e], [x], *_ = _commutator_table([a])
    assert e == binary_exponent(a) - 1
    np.testing.assert_array_equal(np.ldexp(x.view(np.float64), e).view(complex), a)
    assert largest == 0.0 or 1.0 <= np.abs(x.view(np.float64)).max() < 2.0
    assert (e < 0) == (largest < 1.0)


def test_quasinormal_scaled_unitary_all_true():
    u = random_unitary(4, RNG)
    flags = quasinormal_class(make_tuple([0.7 * u, 0.2j * u]))
    assert flags.matricial and flags.joint and flags.spherical


def test_quasinormal_implication_chain_random():
    for k in range(10):
        mats = [RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))]
        t = make_tuple([mats[0], mats[0] @ mats[0] / 3.0])
        flags = quasinormal_class(t)
        assert (not flags.matricial or flags.joint) and (not flags.joint or flags.spherical)


def test_null_reducing_invertible_trivial():
    reducing, basis = null_reducing_check(diag_pair(), (1, 1))
    assert reducing and basis.shape[1] == 0


def test_null_reducing_example_2_1_fails():
    # N(T^2) = span{e1 - e2}; T*(e1 - e2) = (0, 0, 1) escapes
    base = example_2_1_matrix() / np.sqrt(2.0)
    t = make_tuple([base, base])
    reducing, basis = null_reducing_check(t, (1, 1))
    assert not reducing
    assert basis.shape[1] == 1
    direction = basis[:, 0]
    expected = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    overlap = abs(np.vdot(direction, expected))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_null_reducing_golden_fails():
    t = make_tuple([golden_ratio_matrix(), np.zeros((2, 2), dtype=complex)])
    reducing, basis = null_reducing_check(t, (1, 0))
    assert not reducing
    assert basis.shape[1] == 1  # span{e2}; A* e2 = (1, 0) escapes


def test_null_reducing_on_a_product_zero_up_to_roundoff():
    # T_1 = V diag(a) V*, T_2 = V diag(b) V* with a_i b_i = 0: T_1 T_2 = 0 exactly,
    # and its computed sigma_max is ~1e-15, so N(T^(1,1)) is the whole space.
    a = np.array([1.0, 2.0, 3.0, 0.5, 0.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.0, 0.0, 1.5, 2.0, 0.7, 1.0])
    dims = []
    for seed in range(5):
        v = random_unitary(8, np.random.default_rng(seed))
        t = make_tuple([v @ np.diag(a) @ adjoint(v), v @ np.diag(b) @ adjoint(v)])
        dims.append(null_reducing_check(t, (1, 1))[1].shape[1])
    assert dims == [8] * 5


def test_roundoff_scale_keeps_small_singular_values_of_invertible_powers():
    # For diagonal T the scale is ||T^q||_2 itself, so an invertible T^q keeps an
    # empty null space however small its least singular value is past the cutoff.
    small = np.diag([0.015] + [1.0] * 63)
    t = make_tuple([small] * 4)
    assert Facts(t, (1, 1, 1, 1)).roundoff_scale == pytest.approx(1.0, rel=1e-15)
    assert null_reducing_check(t, (1, 1, 1, 1))[1].shape[1] == 0
    single = make_tuple([np.diag([2e-5] + [1.0] * 63)])
    assert null_reducing_check(single, (1,))[1].shape[1] == 0
    assert null_reducing_check(single, (2,))[1].shape[1] == 0


def test_roundoff_scale_past_the_float_range():
    # T = 2^511 u v^T with v.u = 0: T^2 = 0 exactly, but each entry of |T|^2 is
    # 2^1024. The scale is dropped and sigma_max = 0 alone sets the cutoff, so
    # N(T^2) is the whole space.
    t = make_tuple([2.0**511 * np.outer([1, 1, 1, 1], [1, 1, -1, -1])])
    assert Facts(t, (2,)).roundoff_scale == 0.0
    assert null_reducing_check(t, (2,))[1].shape[1] == 4
    assert null_reducing_check(make_tuple([np.diag([1e200, 2e200])]), (0,))[0]


def test_roundoff_scale_is_zero_when_its_singular_value_overflows():
    # |T| = T = 1e308 J, J the 2x2 all-ones matrix: every entry is finite, but
    # sigma_max = 2e308 is not.
    assert Facts(make_tuple([np.full((2, 2), 1e308)]), (1,)).roundoff_scale == 0.0
    assert Facts(make_tuple([np.full((2, 2), 1e298)]), (1,)).roundoff_scale == pytest.approx(2e298)


@pytest.mark.parametrize("size", [1e298, 1e308])
def test_null_space_of_a_power_past_the_float_range_does_not_depend_on_units(size):
    # T = size J has null space span(e_1 - e_2) at every size. At 1e308 sigma_max
    # overflowed, the cutoff was inf, and N(T) came out the whole space, though T
    # maps e_1 to norm 2e308.
    t = make_tuple([np.full((2, 2), size)])
    reducing, basis = null_reducing_check(t, (1,))
    assert reducing and basis.shape == (2, 1)
    assert np.abs(t[0] @ basis).max() <= 1e-14 * size


def test_null_reducing_residual_norms_do_not_warn_on_overflow():
    # T^2 = 0; the residual ||(I - BB*) T* B||_F squares entries of 2e154, past the
    # float range, and frobenius_norm rescales it without a RuntimeWarning.
    reducing, basis = null_reducing_check(make_tuple([[[1e154, 1e154], [-1e154, -1e154]]]), (2,))
    assert not reducing
    assert basis.shape[1] == 1


def _commuting_family(kind, seed, d, dim):
    """Commuting normal, similar-diagonal or Jordan-polynomial matrices."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "jordan":  # Jordan blocks of eigenvalue 0 or 1e-12..1e-4, polynomials of degree 2
        mu = 0.0 if rng.random() < 0.5 else 10 ** rng.uniform(-12, -4)
        base = mu * np.eye(dim) + np.diag((rng.random(dim - 1) < 0.7).astype(float), 1)
        powers = [np.linalg.matrix_power(base, k) for k in range(3)]
        u = random_unitary(dim, rng)
        return [u @ sum(c * p for c, p in zip(cplx(3), powers)) @ adjoint(u) for _ in range(d)]
    if kind == "normal":
        v = random_unitary(dim, rng)
        inverse = adjoint(v)
    else:
        v = random_unitary(dim, rng) @ np.diag(np.exp(rng.uniform(-1, 1, dim))) @ random_unitary(dim, rng)
        inverse = np.linalg.inv(v)
    return [v @ np.diag(cplx(dim) * (rng.random(dim) < 0.7)) @ inverse for _ in range(d)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    dim=st.integers(1, 6),
    kind=st.sampled_from(["normal", "similar", "jordan"]),
)
def test_adjoint_tuple_is_the_gated_adjoint_and_double_commuting_is_symmetric(seed, d, dim, kind):
    t = make_tuple(_commuting_family(kind, seed, d, dim))
    gated = make_tuple([adjoint(m) for m in t])
    for m1, m2 in zip(gated, adjoint_tuple(t)):
        np.testing.assert_array_equal(m1, m2)
    ordered = all(
        DEFAULT_TOL.is_zero(*_commutator(t[i], adjoint(t[j])))
        for i in range(d)
        for j in range(d)
        if i != j
    )
    assert is_doubly_commuting(t) == ordered


def test_adjoint_tuple_roundtrip():
    t = paper_example("2.2").tuple
    back = adjoint_tuple(adjoint_tuple(t))
    for m1, m2 in zip(t, back):
        np.testing.assert_array_equal(m1, m2)


def _quasinormal_inputs(seed):
    """Normal tuples, polynomials in one non-normal matrix, nilpotents, and normal (+) non-normal."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = random_unitary(4, rng)
    normal = [u @ np.diag(cplx(4)) @ adjoint(u) for _ in range(3)]
    # near-normal, so the classes part at nearby tolerances; beside 100 I, the ball's
    # commutator is small next to its scale
    base = np.diag(cplx(4)) + 1e-6 * np.triu(cplx(4, 4), 1)
    polynomial = [base, 100.0 * np.eye(4), base @ base / 4.0]
    shift = np.diag(np.ones(3), 1)
    nilpotent = [shift, (1 + 2j) * shift @ shift, shift + shift @ shift @ shift]
    near_normal = np.diag(cplx(2)) + 1e-6 * NILPOTENT

    def block(c):
        return np.block([[np.diag(cplx(2)), np.zeros((2, 2))], [np.zeros((2, 2)), c * near_normal]])

    blocks = [block(c) for c in cplx(3)]
    # each family's fourth member, for d = 4, drawn after the first three
    normal.append(u @ np.diag(cplx(4)) @ adjoint(u))
    polynomial.append(base @ base @ base / 8.0)
    nilpotent.append((1 - 1j) * shift @ shift @ shift)
    blocks.append(block(cplx(1)[0]))
    return {"normal": normal, "polynomial": polynomial, "nilpotent": nilpotent, "direct_sum": blocks}


# relative thresholds, and absolute ones that act in the input's units at every scale
QUASINORMAL_TOLERANCES = (
    [DEFAULT_TOL]
    + [ToleranceModel(abs_tol=0.0, rel_tol=10.0**e) for e in np.arange(-12.0, -1.0, 0.5)]
    + [ToleranceModel(abs_tol=10.0**e, rel_tol=0.0) for e in range(-12, 40, 3)]
)


@pytest.mark.parametrize("k", [0, 40, -40])
@pytest.mark.parametrize("family", ["normal", "polynomial", "nilpotent", "direct_sum"])
def test_quasinormal_class_matches_the_triple_loop(family, k):
    for seed in range(4):
        mats = [math.ldexp(1.0, k) * m for m in _quasinormal_inputs(seed)[family]]
        for d in (1, 2, 3, 4):
            t = make_tuple(mats[:d])
            for tol in QUASINORMAL_TOLERANCES:
                assert quasinormal_class(t, tol) == quasinormal_reference(t, tol), (seed, d, tol)


def _near_normal_polynomials(seed, dim, d, size):
    """Polynomials in one matrix B = diag + ``size`` strictly upper: normal as ``size`` -> 0."""
    rng = np.random.default_rng(seed)
    base = np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    base += size * np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 1)
    return [base, base @ base / 4.0, np.eye(dim) + 0.5j * base, base @ base @ base / 8.0][:d]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12), d=st.integers(1, 4), size=st.integers(-12, -3)
)
def test_quasinormal_class_matches_the_triple_loop_through_the_flip(seed, dim, d, size):
    # rel_tol on a grid of 20 steps per decade through the tolerance at which the tuple turns
    # matricially quasinormal: below it some triple fails, and a certificate must not pass it
    t = make_tuple(_near_normal_polynomials(seed, dim, d, 10.0**size))
    flip = matricial_flip(t)
    for step in range(-10, 11):
        tol = ToleranceModel(abs_tol=0.0, rel_tol=flip * 10.0 ** (step / 20))
        assert quasinormal_class(t, tol) == quasinormal_reference(t, tol), (step, tol)


class _CountedProducts(np.ndarray):
    """A component that counts every matrix product it is a factor of, on either side."""

    count = 0

    def __matmul__(self, other):
        _CountedProducts.count += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        _CountedProducts.count += 1
        return np.asarray(other) @ np.asarray(self)


def quasinormal_work(monkeypatch, t):
    """quasinormal_class(t) with the table's components X counting their products (every product
    there has an X as a factor), with the second factor Y of each ||XY - YX|| it takes: (flags, the
    X's, the Y's, the number of products outside those commutators)."""
    from opertuple import tuples

    factors, units, commutator_norm, table_of = [], [], tuples._commutator_norm, tuples._commutator_table

    def counted(x, y):
        factors.append(np.asarray(y))
        return commutator_norm(x, y)

    def counting_table(mats):
        table = table_of(mats)
        table[1][:] = [x.view(_CountedProducts) for x in table[1]]  # read by the table's closures too
        units.extend(np.asarray(x) for x in table[1])
        return table

    monkeypatch.setattr(tuples, "_commutator_norm", counted)
    monkeypatch.setattr(tuples, "_commutator_table", counting_table)
    monkeypatch.setattr(_CountedProducts, "count", 0)
    flags = quasinormal_class(t)
    return flags, units, factors, _CountedProducts.count - 2 * len(factors)


def test_quasinormal_class_certifies_a_normal_tuple_without_an_exact_commutator(monkeypatch):
    # d = 4: c_ij = ||[A_i, A_j*]|| for i <= j (10), k_ik = ||[A_i, A_k]|| for i < k (6) and
    # A_j* A_k for j <= k (10), where the triple loop forms 2 d^3 + d^2 = 144 products
    rng = np.random.default_rng(11)
    u = random_unitary(6, rng)
    eigenvalues = 0.3 * (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    t = make_tuple([u @ np.diag(lam) @ adjoint(u) for lam in eigenvalues])
    flags, units, factors, products = quasinormal_work(monkeypatch, t)
    assert flags == QuasinormalFlags(True, True, True)
    assert len(factors) <= 16
    assert products <= 10
    components = [*units, *(adjoint(x) for x in units)]
    assert all(any(np.array_equal(y, m) for m in components) for y in factors)  # no [X_i, X_j* X_k]


def test_quasinormal_class_decides_matricial_on_the_first_triple(monkeypatch):
    # [N, N* N] != 0 fails the triple (0, 0, 0) after its certificate, c_00 = ||[N, N*]||; joint
    # reads that triple's decision, and spherical forms the ball N* N + N* N and fails at j = 0
    flags, _, factors, products = quasinormal_work(monkeypatch, make_tuple([NILPOTENT, NILPOTENT]))
    assert flags == QuasinormalFlags(False, False, False)
    gram = adjoint(NILPOTENT) @ NILPOTENT
    assert len(factors) == 3
    for y, expected in zip(factors, [adjoint(NILPOTENT), gram, 2 * gram]):
        np.testing.assert_array_equal(y, expected)
    assert products == 2  # N* N, as (0, 0) and as (1, 1) for the ball
