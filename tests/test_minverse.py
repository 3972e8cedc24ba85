import math

import numpy as np
import pytest

from opertuple import minverse
from opertuple.cli import _shifted_invertible_pair, _unipotent_two_inverse_pair
from opertuple.generators import paper_example, polynomial_family
from opertuple.linalg import NumericalFailureError, frobenius_norm
from opertuple.minverse import (
    audit_proposition_4_1,
    audit_theorem_4_1,
    audit_theorem_4_2,
    beta,
    expand_power_sum,
    is_left_m_inverse,
)
from opertuple.tuples import adjoint_tuple, make_tuple

from multiindex_oracle import beta_enumeration


def random_pair(seed, dim=3, d=2, degree=2):
    s = polynomial_family(np.random.default_rng(seed), dim, d, degree)
    t = polynomial_family(np.random.default_rng(seed + 10_000), dim, d, degree)
    return s, t


@pytest.mark.parametrize("d,m", [(1, 1), (2, 2), (3, 2), (2, 4)])
def test_beta_identity_tuples(d, m):
    t = make_tuple([np.eye(3)] * d)
    res = beta(t, t, m)
    np.testing.assert_allclose(res.matrix, (d - 1) ** m * np.eye(3), atol=1e-12)


def test_beta_scalar_inverse_d1():
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    s = make_tuple([np.linalg.inv(a)])
    t = make_tuple([a])
    assert beta(s, t, 1).norm <= 1e-12


def test_beta_corrected_example_collapses():
    ex = paper_example("4.1-corrected")
    for m in range(1, 5):
        assert beta(ex.partner, ex.tuple, m).norm <= 1e-12


def test_beta_as_printed_is_identity():
    ex = paper_example("4.1-as-printed")
    for m in range(1, 5):
        res = beta(ex.partner, ex.tuple, m)
        np.testing.assert_allclose(res.matrix, np.eye(2), atol=1e-12)
        assert res.norm == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_beta_methods_agree_on_random_pairs():
    for seed in range(10):
        s, t = random_pair(seed)
        for m in (1, 2, 3, 4):
            en, en_scale = beta_enumeration(s, t, m)
            re = beta(s, t, m, method="recurrence")
            scale = max(en_scale, re.scale, 1.0)
            assert frobenius_norm(en - re.matrix) <= 1e-10 * scale


def test_beta_methods_are_one_recurrence():
    # "auto" and "recurrence" take the same route; the scale is the largest level of it
    for seed in range(10):
        s, t = random_pair(seed)
        for m in (1, 2, 3, 4):
            auto, rec = beta(s, t, m, "auto"), beta(s, t, m, "recurrence")
            np.testing.assert_array_equal(auto.matrix, rec.matrix)
            assert (auto.norm, auto.scale) == (rec.norm, rec.scale)
            levels = minverse._beta_levels(s, t, m)
            assert auto.scale == max(frobenius_norm(level) for level in levels)


def test_beta_rejects_unknown_method():
    s, t = random_pair(0)
    with pytest.raises(ValueError, match="unknown beta method"):
        beta(s, t, 2, "enumeration")


def test_beta_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        beta(make_tuple([np.eye(2)]), make_tuple([np.eye(3)]), 1)


def test_left_inverse_scalar_example():
    s = make_tuple([np.eye(2), np.eye(2)])
    t = make_tuple([np.eye(2) / 3.0, 2.0 * np.eye(2) / 3.0])
    assert is_left_m_inverse(s, t, 1)


def test_left_inverse_printed_vs_corrected():
    printed = paper_example("4.1-as-printed")
    corrected = paper_example("4.1-corrected")
    for m in range(1, 5):
        assert not is_left_m_inverse(printed.partner, printed.tuple, m)
        assert is_left_m_inverse(corrected.partner, corrected.tuple, m)


def test_right_inverse_reciprocal_family():
    s, t = _shifted_invertible_pair(123)
    assert is_left_m_inverse(s, t, 1)
    assert is_left_m_inverse(t, s, 1)  # S is a right 1-inverse of T: beta_1(T, S) = 0


def test_adjoint_duality_norm_equality():
    # remark: S left m-inverse of T iff T* left m-inverse of S*;
    # concretely beta_m(S,T)* = beta_m(T*, S*), an exact norm equality
    for seed in range(5):
        s, t = random_pair(seed, dim=3, d=2)
        for m in (1, 2, 3):
            forward = beta(s, t, m).norm
            backward = beta(adjoint_tuple(t), adjoint_tuple(s), m).norm
            assert forward == pytest.approx(backward, rel=1e-12, abs=1e-14)
    printed = paper_example("4.1-as-printed")
    assert not is_left_m_inverse(adjoint_tuple(printed.tuple), adjoint_tuple(printed.partner), 2)
    corrected = paper_example("4.1-corrected")
    assert is_left_m_inverse(adjoint_tuple(corrected.tuple), adjoint_tuple(corrected.partner), 2)


def test_beta_zero_persists_upward():
    s, t = _unipotent_two_inverse_pair(7)
    b1 = beta(s, t, 1)
    assert b1.norm > 1e-6  # genuinely order 2
    for m in (2, 3, 4, 5):
        res = beta(s, t, m)
        assert res.norm <= 1e-10 * max(1.0, res.scale)


def test_expand_power_sum_probe_values():
    s = make_tuple([math.sqrt(2.0) * np.eye(2)])
    lhs, rhs, dev = expand_power_sum(s, s, 2, "binomial")
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    assert dev <= 1e-12
    _, rhs_p, dev_p = expand_power_sum(s, s, 2, "pochhammer")
    np.testing.assert_allclose(rhs_p, 5.0 * np.eye(2), atol=1e-12)
    assert dev_p == pytest.approx(0.25, abs=1e-12)


def test_expand_power_sum_binomial_exact_on_random_pairs():
    for seed in range(5):
        s, t = random_pair(seed)
        for n in range(1, 7):
            _, _, dev = expand_power_sum(s, t, n, "binomial")
            assert dev <= 1e-10


def test_expand_power_sum_requires_positive_n():
    s = make_tuple([np.eye(2)])
    with pytest.raises(ValueError):
        expand_power_sum(s, s, 0)


# S T = diag(1e400, 6e400) leaves the float range at the first level
HUGE_S, HUGE_T = np.diag([1e200, 3e200]), np.diag([1e200, 2e200])


@pytest.mark.parametrize(
    "call",
    [
        lambda s, t: expand_power_sum(s, t, 3),
        lambda s, t: expand_power_sum(s, t, 3, "pochhammer"),
        lambda s, t: audit_proposition_4_1(s, t),
    ],
    ids=["expand-binomial", "expand-pochhammer", "prop4.1"],
)
def test_overflowing_power_sum_raises(call):
    with pytest.raises(NumericalFailureError, match="power sum is not finite") as info:
        call(make_tuple([HUGE_S]), make_tuple([HUGE_T]))
    assert info.value.diagnostics["k"] == 1


def test_remark_4_2_two_inverse_closed_form():
    # for a left 2-inverse pair the power sums equal n(S1T1 + S2T2) - (n-1)I
    for seed in range(5):
        s, t = _unipotent_two_inverse_pair(seed)
        gram = s[0] @ t[0] + s[1] @ t[1]
        for n in range(1, 6):
            lhs, rhs, dev = expand_power_sum(s, t, n, "binomial")
            assert dev <= 1e-10
            closed = n * gram - (n - 1) * np.eye(2)
            assert frobenius_norm(lhs - closed) <= 1e-10 * max(1.0, frobenius_norm(lhs))


def test_audit_thm_4_1_corrected_mapping_holds():
    ex = paper_example("4.1-corrected")
    rep = audit_theorem_4_1(ex.partner, ex.tuple, 2)
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_audit_thm_4_1_scalar_counterexample():
    s = make_tuple([np.eye(2), np.eye(2)])
    t = make_tuple([np.eye(2) / 3.0, 2.0 * np.eye(2) / 3.0])
    rep = audit_theorem_4_1(s, t, 1)
    assert rep.hypotheses_hold
    assert not rep.conclusion_holds
    bad = [w for w in rep.witnesses if w.label == "eigenvalue whose image is missing"]
    assert len(bad) == 1
    lam = bad[0].value
    assert abs(lam[0] - 1 / 3) < 1e-8 and abs(lam[1] - 2 / 3) < 1e-8


def test_audit_thm_4_1_zero_identity_pair_readings():
    z = make_tuple([np.zeros((2, 2)), np.eye(2)])
    rep = audit_theorem_4_1(z, z, 3)
    assert rep.hypotheses_hold  # beta telescopes to zero
    assert rep.conclusion_holds  # printed reading is vacuously true for d >= 2
    strict = [sv for sv in rep.sub_verdicts if sv.name.startswith("(1')")][0]
    assert not strict.conclusion_holds and strict.vacuous


def test_audit_thm_4_2_reciprocal_family():
    s, t = _shifted_invertible_pair(55)
    rep = audit_theorem_4_2(s, t, 1)
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_audit_prop_4_1_modes():
    s, t = random_pair(3)
    rep = audit_proposition_4_1(s, t)
    poch = [sv for sv in rep.sub_verdicts if sv.name.startswith("(1) ")][0]
    binom = [sv for sv in rep.sub_verdicts if sv.name.startswith("(1')")][0]
    assert not poch.conclusion_holds
    assert binom.conclusion_holds
    assert not rep.conclusion_holds  # the claim fails with its printed coefficients


def test_audit_prop_4_1_truncated_with_inverse():
    ex = paper_example("4.1-corrected")
    rep = audit_proposition_4_1(ex.partner, ex.tuple, inverse_order=2)
    names = [sv.name for sv in rep.sub_verdicts]
    assert any(n.startswith("(2)") for n in names)
    binom2 = [sv for sv in rep.sub_verdicts if sv.name.startswith("(2')")][0]
    assert binom2.conclusion_holds


@pytest.mark.parametrize("n_max", [1, 2, 3, 6])
@pytest.mark.parametrize("inverse_order", [0, 1, 2, 3, 5, 7])
def test_prop_4_1_hypothesis_is_is_left_m_inverse(n_max, inverse_order):
    # beta_m read off the audit's own levels, and continued past n_max, decides as beta does
    pairs = [_unipotent_two_inverse_pair(3), _shifted_invertible_pair(5), random_pair(7)]
    for s, t in pairs:
        rep = audit_proposition_4_1(s, t, n_max=n_max, inverse_order=inverse_order)
        assert rep.hypothesis_breakdown["left_m_inverse"] == is_left_m_inverse(s, t, inverse_order)


@pytest.mark.parametrize("n_max", [1, 3, 5])
@pytest.mark.parametrize("inverse_order", [None, 0, 1, 2, 4, 5, 8])
def test_prop_4_1_takes_each_full_expansion_once(monkeypatch, n_max, inverse_order):
    # 2 n_max full expansions, then a truncated one only where the cut falls below n
    calls, expansion = [], minverse._expansion

    def counting(lhs, betas, n, mode, kmax):
        calls.append((n, mode, kmax))
        return expansion(lhs, betas, n, mode, kmax)

    monkeypatch.setattr(minverse, "_expansion", counting)
    audit_proposition_4_1(*_shifted_invertible_pair(3), n_max=n_max, inverse_order=inverse_order)
    cut = n_max if inverse_order is None else inverse_order - 1
    truncated = sum(1 for n in range(1, n_max + 1) if n > cut)
    assert len(calls) == len(set(calls)) == 2 * n_max + 2 * truncated
