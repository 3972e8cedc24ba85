import math
import pathlib

import numpy as np
import pytest

from opertuple.defects import (
    audit_proposition_2_1,
    audit_proposition_2_4,
    audit_theorem_2_1,
    audit_theorem_2_2,
    audit_theorem_2_3,
    classify,
    isometry_defect,
    partial_isometry_defect,
    scalar_defect,
)
from opertuple.generators import (
    diagonal_conjugate,
    example_2_1_matrix,
    golden_ratio_matrix,
    paper_example,
    polynomial_family,
    random_unitary,
)
from opertuple.linalg import adjoint, frobenius_norm
from opertuple.spectra import audit_proposition_3_2, audit_theorem_3_1
from opertuple.tuplefile import parse_tuple_file
from opertuple.tuples import conjugate_by_unitary, make_tuple, permute_tuple

RNG = np.random.default_rng(31415)
DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def unitary_scaled(d, dim=3, seed=0):
    u = random_unitary(dim, np.random.default_rng(seed))
    return make_tuple([u / math.sqrt(d)] * d)


def test_isometry_defect_scalar_tuple():
    # T = (2I), m = 1: T*T - I = 3I
    t = make_tuple([2.0 * np.eye(2)])
    res = isometry_defect(t, 1)
    np.testing.assert_allclose(res.matrix, 3.0 * np.eye(2))
    assert res.norm == pytest.approx(3.0 * math.sqrt(2.0))
    assert not res.is_zero


def test_isometry_defect_normalized_identity():
    d = 3
    t = make_tuple([np.eye(2) / math.sqrt(d)] * d)
    assert isometry_defect(t, 1).is_zero


@pytest.mark.parametrize("m", [1, 2, 3])
def test_isometry_defect_unitary_scaled_any_order(m):
    res = isometry_defect(unitary_scaled(2), m)
    assert res.is_zero
    assert res.norm <= 1e-12 * max(1.0, res.scale)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_example_2_1_partial_isometry(d):
    ex = paper_example(f"2.1({d})")
    res = partial_isometry_defect(ex.tuple, 1, ex.q)
    assert res.norm <= 1e-12
    assert res.is_zero


def test_example_2_2_pair_defect_is_t1():
    ex = paper_example("2.2")
    res = partial_isometry_defect(ex.tuple, 2, (1, 1))
    # inner sum collapses to I (both components unitary), so defect = T1 T2 = T1
    np.testing.assert_allclose(res.matrix, ex.tuple[0], atol=1e-12)
    assert res.norm == pytest.approx(math.sqrt(3.0), abs=1e-10)
    assert not res.is_zero


def test_example_2_2_components_pass():
    ex = paper_example("2.2")
    for j in range(2):
        single = make_tuple([ex.tuple[j]])
        assert partial_isometry_defect(single, 2, (1,)).norm <= 1e-12


def test_example_2_1_single_matrix_q1():
    t = make_tuple([example_2_1_matrix()])
    assert partial_isometry_defect(t, 1, (1,)).norm <= 1e-12


def test_golden_ratio_partial_isometry():
    t = make_tuple([golden_ratio_matrix(), np.zeros((2, 2), dtype=complex)])
    res = partial_isometry_defect(t, 2, (1, 0))
    assert res.norm <= 1e-12


def test_sign_conventions_agree_in_norm():
    # T^q * (isometry inner sum) differs from the partial defect by (-1)^m only
    for seed in range(4):
        t = polynomial_family(np.random.default_rng(seed), 3, 2, 2)
        m, q = 2, (1, 1)
        partial = partial_isometry_defect(t, m, q)
        from opertuple.tuples import tuple_power

        flipped = tuple_power(t, q) @ isometry_defect(t, m).matrix
        assert frobenius_norm(flipped) == pytest.approx(partial.norm, rel=1e-12)


def test_scalar_defect_example_2_2_basis_value():
    ex = paper_example("2.2")
    value = scalar_defect(ex.tuple, 2, (1, 1), np.eye(3)[:, 0])
    assert value == pytest.approx(1.0, abs=1e-12)


def test_scalar_defect_example_2_1_vanishes():
    t = make_tuple([example_2_1_matrix()])
    for i in range(3):
        assert abs(scalar_defect(t, 1, (1,), np.eye(3)[:, i])) <= 1e-12


def test_scalar_defect_zero_vector():
    assert scalar_defect(unitary_scaled(2), 3, (1, 1), np.zeros(3)) == 0.0


def test_classify_paper_examples():
    ex21 = paper_example("2.1(2)")
    rep = classify(ex21.tuple, 1, ex21.q)
    assert rep.partial_isometry

    ex22 = paper_example("2.2")
    rep22 = classify(ex22.tuple, 2, (1, 1))
    assert not rep22.partial_isometry
    assert rep22.entrywise_invertible == (True, True)
    assert rep22.quasinormal.matricial  # both components unitary

    scaled = unitary_scaled(2)
    rep_u = classify(scaled, 1, (1, 1))
    assert rep_u.isometry and rep_u.partial_isometry


def test_unitary_invariance_of_defect_norms():
    ex = paper_example("2.2")
    for seed in range(3):
        v = random_unitary(3, np.random.default_rng(seed))
        moved = conjugate_by_unitary(ex.tuple, v)
        a = partial_isometry_defect(ex.tuple, 2, (1, 1))
        b = partial_isometry_defect(moved, 2, (1, 1))
        assert abs(a.norm - b.norm) <= 1e-10 * max(1.0, a.scale)


def test_permutation_equivariance():
    t = polynomial_family(np.random.default_rng(5), 3, 3, 2)
    q = (2, 1, 0)
    sigma = (2, 0, 1)
    base = classify(t, 2, q)
    moved = classify(permute_tuple(t, sigma), 2, tuple(q[j] for j in sigma))
    assert base.partial_isometry == moved.partial_isometry
    assert base.partial_defect_norm == pytest.approx(moved.partial_defect_norm, rel=1e-10)


def test_zero_padding_preserves_defect_norm():
    ex = paper_example("2.2")
    padded = make_tuple(list(ex.tuple.matrices) + [np.zeros((3, 3), dtype=complex)])
    a = partial_isometry_defect(ex.tuple, 2, (1, 1))
    b = partial_isometry_defect(padded, 2, (1, 1, 0))
    assert abs(a.norm - b.norm) <= 1e-12


def test_remark_2_3_ones_implies_componentwise_larger_q():
    # whenever the (m; 1...1) defect vanishes, so does (m; q) for q >= (1,...,1)
    ex = paper_example("2.1(2)")
    assert partial_isometry_defect(ex.tuple, 1, (1, 1)).is_zero
    for q in ((2, 1), (1, 2), (3, 2)):
        assert partial_isometry_defect(ex.tuple, 1, q).is_zero


def test_remark_2_3_fails_for_zero_coordinate():
    # the golden instance is (2; (1,)) but not (2; (0,)): the restriction
    # q >= (1,...,1) in the collapse direction is necessary
    t = make_tuple([golden_ratio_matrix()])
    assert partial_isometry_defect(t, 2, (1,)).is_zero
    assert not partial_isometry_defect(t, 2, (0,)).is_zero


def test_remark_2_4_adjoint_closure_doubly_commuting():
    # checkable claim: for doubly commuting tuples the (1; 1...1) class is
    # closed under adjoints
    from opertuple.tuples import adjoint_tuple, is_doubly_commuting

    for seed in range(5):
        t = diagonal_conjugate(np.random.default_rng(seed), 4, 2, True, True)
        assert is_doubly_commuting(t)
        forward = partial_isometry_defect(t, 1, (1, 1)).is_zero
        backward = partial_isometry_defect(adjoint_tuple(t), 1, (1, 1)).is_zero
        assert forward and backward


@pytest.mark.xfail(
    strict=True,
    reason="known false negative: roundoff in T^q L_k is of order eps ||T^q|| ||L_k||, "
    "but the defect scale is ||T^q L_k||, which drops the growth of L_k on N(T^q)",
)
def test_classify_partial_isometry_at_mid_grid():
    # Every diagonal column is a unit vector or has a zero coordinate, so the
    # (m; 1,...,1) defect vanishes exactly; the computed one is 2.2e-9 at scale 3.0.
    t = diagonal_conjugate(np.random.default_rng(1), 32, 4, True, True)
    assert classify(t, 6, (1, 1, 1, 1)).partial_isometry


def test_audit_thm_2_1_equivalence_cases():
    # hypotheses hold, both sides zero
    rep = audit_theorem_2_1(unitary_scaled(2), 1, (1, 1))
    assert rep.hypotheses_hold and rep.conclusion_holds

    # hypotheses hold (trivially reducing: T1 invertible... use 2.2), both sides nonzero
    ex = paper_example("2.2")
    rep22 = audit_theorem_2_1(ex.tuple, 2, (1, 1))
    assert rep22.hypotheses_hold
    assert rep22.conclusion_holds
    sv = rep22.sub_verdicts[0]
    assert sv.details["operator_defect_zero"] is False
    assert sv.details["scalar_defect_all_zero"] is False

    # hypotheses fail: still evaluated, flagged vacuous
    base = example_2_1_matrix() / math.sqrt(2.0)
    t = make_tuple([base, base])
    rep21 = audit_theorem_2_1(t, 1, (1, 1))
    assert not rep21.hypotheses_hold
    assert rep21.sub_verdicts[0].vacuous


def test_audit_thm_2_3_ascent_on_unitary_scaled():
    rep = audit_theorem_2_3(unitary_scaled(2), 1, (1, 1))
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.norms["defect_m_plus_1_norm"] <= 1e-10
    assert rep.norms["defect_m_plus_2_norm"] <= 1e-10


def test_audit_thm_2_3_hypothesis_failure_recorded():
    t = make_tuple([example_2_1_matrix()])
    rep = audit_theorem_2_3(t, 1, (1,))
    assert not rep.hypotheses_hold  # N(T) not reducing
    assert rep.hypothesis_breakdown["partial_isometry"] is True
    assert rep.hypothesis_breakdown["null_space_reducing"] is False
    assert rep.conclusion_holds  # vacuous


def test_audit_thm_2_2_diagonal_collapse():
    # diagonal entries: columns on the unit sphere or with a zero entry
    d1 = np.diag([1.0 / math.sqrt(2), 0.0, 0.6])
    d2 = np.diag([1.0 / math.sqrt(2), 0.5, 0.8])
    t = make_tuple([d1, d2])
    rep = audit_theorem_2_2(t, 1, (2, 3))
    assert rep.hypotheses_hold  # diagonal: N(T_j) = N(T_j^2); defect vanishes
    assert rep.conclusion_holds


def _stable_flag(t):
    return audit_theorem_2_2(t, 1, (1,) * t.d).hypothesis_breakdown["null_spaces_stable"]


def _nilpotent_block_sum():
    # J_3 (+) diag(1, 2), unitarily conjugated: N(T) has dimension 1, N(T^2) dimension 2
    jordan = np.zeros((5, 5), dtype=complex)
    jordan[0, 1] = jordan[1, 2] = 1.0
    jordan[3, 3], jordan[4, 4] = 1.0, 2.0
    v = random_unitary(5, np.random.default_rng(3))
    return [v @ jordan @ adjoint(v)]


def _singular_diagonalizable_pair():
    # S D_j S^-1 with S far from unitary: non-normal, singular, N(T_j) = N(T_j^2)
    s = np.eye(5) + np.triu(np.random.default_rng(4).standard_normal((5, 5)), 1)
    inverse = np.linalg.inv(s)
    diagonals = ([0.0, 0.0, 1.0, 2.0, -3.0], [0.0, 1.5, 0.0, 0.0, 1.0j])
    return [s @ np.diag(lam) @ inverse for lam in diagonals]


def _equal_nullity_jordan():
    # [[0, 2], [0, 0]] (+) [1e-13]: each numerical null space, at its own cutoff, has two
    # columns, N(T) = span(e1, e3) and N(T^2) = span(e1, e2), yet T e2 = 2 e1
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1], a[2, 2] = 2.0, 1e-13
    return [a]


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_audit_thm_2_2_null_spaces_stable(k):
    unstable = make_tuple([math.ldexp(1.0, k) * m for m in _nilpotent_block_sum()])
    assert _stable_flag(unstable) is False
    pair = _singular_diagonalizable_pair()
    stable = make_tuple([math.ldexp(1.0, k) * m for m in pair])
    assert all(frobenius_norm(m @ adjoint(m) - adjoint(m) @ m) > 1.0 for m in pair)
    assert _stable_flag(stable) is True
    equal_nullity = make_tuple([math.ldexp(1.0, k) * m for m in _equal_nullity_jordan()])
    assert _stable_flag(equal_nullity) is False
    rep = audit_theorem_2_2(equal_nullity, 1, (2,))
    assert rep.sub_verdicts[0].vacuous and rep.conclusion_holds
    if k == 0:  # the q = (2,) defect is zero and the q = (1,) one is not: only N(T) != N(T^2)
        assert rep.hypothesis_breakdown["partial_isometry"] and rep.norms["defect_ones_norm"] > 1


def _golden_ratio_file_tuple():
    return parse_tuple_file((DATA / "golden_ratio_d2.json").read_text()).tuple


@pytest.mark.parametrize("k", [-1000, -600, 0, 300])
def test_null_spaces_stable_does_not_depend_on_units(k):
    # 2^k T for the shipped golden-ratio pair: T_j^2 formed in the input's units
    # underflows to 0 at k = -600, which made N(T_j^2) the whole space.
    t = make_tuple([math.ldexp(1.0, k) * m for m in _golden_ratio_file_tuple()])
    assert _stable_flag(t) is True


def test_null_spaces_stable_on_a_subnormal_component():
    # The file's entries each moved up one ulp: T_2 becomes the all-(5e-324)(1 + i) matrix,
    # rank one with a stable null space, and T_2^2 underflows to 0 in the input's units.
    moved = [np.nextafter(m.view(np.float64), np.inf).view(np.complex128) for m in _golden_ratio_file_tuple()]
    rep = audit_theorem_2_2(make_tuple(moved), 2, (1, 0))
    assert rep.hypothesis_breakdown["null_spaces_stable"] is True


def test_audit_prop_2_1_jointly_quasinormal():
    d1 = np.diag([1.0 / math.sqrt(2), 0.0, 0.3])
    d2 = np.diag([1.0 / math.sqrt(2), 0.9, 0.0])
    t = make_tuple([d1, d2])
    rep = audit_proposition_2_1(t, 3)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.sub_verdicts[0].details["matricially_quasinormal"] is True


def test_audit_prop_2_4_identity():
    rep = audit_proposition_2_4(unitary_scaled(3), 1, (1, 1, 1))
    assert rep.hypotheses_hold and rep.conclusion_holds


# T^q, formed once per call and shared by the defects, the reducing check and the states;
# thm2.2 forms T^q and T^(1,...,1) unless they coincide. Each call forms one level list
# L_0..L_k, up to its highest order; thm2.2's two exponents share it.
POWERS_PER_OPERATION = {
    "partial_isometry_defect": (lambda t, q: partial_isometry_defect(t, 3, q), 1),
    "classify": (lambda t, q: classify(t, 3, q), 1),
    "thm2.1": (lambda t, q: audit_theorem_2_1(t, 3, q), 1),
    "thm2.2": (lambda t, q: audit_theorem_2_2(t, 3, q), 2),
    "thm2.2.ones": (lambda t, q: audit_theorem_2_2(t, 3, (1, 1)), 1),
    "thm2.3": (lambda t, q: audit_theorem_2_3(t, 3, q), 1),
    "prop2.1": (lambda t, q: audit_proposition_2_1(t, 3), 1),
    "prop2.4": (lambda t, q: audit_proposition_2_4(t, 3, q), 1),
    "thm3.1": (lambda t, q: audit_theorem_3_1(t, 3, q), 1),
    "prop3.2": (lambda t, q: audit_proposition_3_2(t, 3, q), 1),
}


@pytest.mark.parametrize("name", POWERS_PER_OPERATION)
def test_each_audit_forms_t_to_the_q_once(monkeypatch, name):
    from opertuple import defects, tuples

    call, expected = POWERS_PER_OPERATION[name]
    calls, power = [], tuples.tuple_power
    level_lists, power_levels = [], tuples.power_levels

    def counting(t, alpha):
        calls.append(tuple(alpha))
        return power(t, alpha)

    def counting_levels(s, t, kmax):
        level_lists.append(kmax)
        return power_levels(s, t, kmax)

    for module in (defects, tuples):
        monkeypatch.setattr(module, "tuple_power", counting)
        monkeypatch.setattr(module, "power_levels", counting_levels)
    t = polynomial_family(np.random.default_rng(5), 4, 2, 2)
    call(t, (2, 1))
    assert len(calls) == expected
    assert len(level_lists) == 1
