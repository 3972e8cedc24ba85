"""The level engine L_k = Phi_{S,T}^k(I) against the multi-index enumeration oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opertuple import defects, minverse, tuples
from opertuple.generators import GeneratorSpec, random_commuting_tuple
from opertuple.linalg import adjoint, frobenius_norm
from opertuple.minverse import _beta_levels, _enumerated_levels
from opertuple.multiindex import multinomial_weight
from opertuple.tuples import adjoint_tuple, hereditary_shift, make_tuple, power_levels, tuple_power

from multiindex_oracle import enumerate_multiindices

GAP = 1e-12

SCHEMES = {
    "polynomial_family": {"degree": 2},
    "diagonal_conjugate": {"unitary": False},
}


def commuting(scheme, seed, dim, d):
    return random_commuting_tuple(GeneratorSpec(scheme, seed, dim, d, SCHEMES[scheme]))


@st.composite
def commuting_pairs(draw):
    """(S, T, k): each tuple internally commuting, S = T* or an independent tuple."""
    d = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 6))
    t = commuting(draw(st.sampled_from(sorted(SCHEMES))), draw(st.integers(0, 2**32)), dim, d)
    if draw(st.booleans()):
        s = adjoint_tuple(t)
    else:
        s = commuting(draw(st.sampled_from(sorted(SCHEMES))), draw(st.integers(0, 2**32)), dim, d)
    return s, t, draw(st.integers(0, 5))


def relative_gap(a, b, scale):
    return frobenius_norm(a - b) / max(1.0, scale)


def level_bound(s, t, k):
    """||Phi_{S,T}^k(I)||_F <= sqrt(dim) (sum_j ||S_j||_2 ||T_j||_2)^k, the size of the
    summands; with S != T* the sum itself may cancel far below it."""
    rho = sum(np.linalg.norm(sj, 2) * np.linalg.norm(tj, 2) for sj, tj in zip(s, t))
    return math.sqrt(t.dim) * rho**k


@settings(max_examples=60, deadline=None)
@given(commuting_pairs())
def test_levels_match_enumeration(pair):
    s, t, k = pair
    levels = power_levels(s, t, k)
    oracle = _enumerated_levels(s, t, k)
    for order, (level, expected) in enumerate(zip(levels, oracle)):
        assert relative_gap(level, expected, level_bound(s, t, order)) <= GAP


@settings(max_examples=60, deadline=None)
@given(commuting_pairs())
def test_beta_recurrence_is_binomial_difference_of_levels(pair):
    s, t, k = pair
    levels = power_levels(s, t, k)
    beta_k = _beta_levels(s, t, k)[k]
    terms = [math.comb(k, i) * levels[i] for i in range(k + 1)]
    combined = sum((-1) ** (k - i) * term for i, term in enumerate(terms))
    scale = max(frobenius_norm(term) for term in terms)
    assert relative_gap(beta_k, combined, scale) <= GAP


@pytest.mark.parametrize("d,k", [(1, 4), (2, 3), (3, 3), (4, 2)])
def test_prefix_tree_visits_every_multiindex_once(d, k):
    s = commuting("polynomial_family", 11, 4, d)
    t = commuting("polynomial_family", 12, 4, d)
    levels = _enumerated_levels(s, t, k)
    for order in range(k + 1):
        brute = sum(
            multinomial_weight(alpha) * (tuple_power(s, alpha) @ tuple_power(t, alpha))
            for alpha in enumerate_multiindices(d, order)
        )
        np.testing.assert_allclose(levels[order], brute, rtol=0, atol=1e-12 * max(1.0, frobenius_norm(brute)))


def test_power_levels_first_terms():
    t = make_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 0.5])])
    s = [adjoint(m) for m in t]
    levels = power_levels(s, t, 2)
    np.testing.assert_array_equal(levels[0], np.eye(2))
    np.testing.assert_allclose(levels[1], np.diag([10.0, 4.25]))
    np.testing.assert_allclose(levels[2], hereditary_shift(s, t, levels[1]))
    assert len(power_levels(s, t, 0)) == 1


def test_power_levels_rejects_mismatched_lengths():
    t = make_tuple([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        power_levels([np.eye(2)], t, 1)


def _count_shifts(monkeypatch):
    """Replace hereditary_shift wherever the library binds it with a wrapper that counts calls."""
    calls, shift = [], tuples.hereditary_shift

    def counting(s, t, x):
        calls.append(1)
        return shift(s, t, x)

    for module in (tuples, minverse):
        monkeypatch.setattr(module, "hereditary_shift", counting)
    return calls


WORK_M = 3
# Each level L_k and each beta_k is one hereditary shift, formed once per operation: prop4.1
# takes n_max levels and n_max betas, and continues the betas to inverse_order past n_max.
SHIFTS_PER_OPERATION = {
    "classify": (lambda s, t: defects.classify(t, WORK_M, (1, 1)), WORK_M),
    "thm2.3": (lambda s, t: defects.audit_theorem_2_3(t, WORK_M, (1, 1)), WORK_M + 2),
    "prop2.4": (lambda s, t: defects.audit_proposition_2_4(t, WORK_M, (1, 1)), WORK_M + 1),
    "beta.recurrence": (lambda s, t: minverse.beta(s, t, WORK_M, "recurrence"), WORK_M),
    "prop4.1": (lambda s, t: minverse.audit_proposition_4_1(s, t, n_max=4, inverse_order=3), 8),
    "prop4.1.at_n_max": (lambda s, t: minverse.audit_proposition_4_1(s, t, n_max=4, inverse_order=4), 8),
    "prop4.1.past_n_max": (lambda s, t: minverse.audit_proposition_4_1(s, t, n_max=2, inverse_order=5), 7),
}


@pytest.mark.parametrize("name", SHIFTS_PER_OPERATION)
def test_each_level_is_one_hereditary_shift(monkeypatch, name):
    call, expected = SHIFTS_PER_OPERATION[name]
    s, t = commuting("polynomial_family", 21, 4, 2), commuting("polynomial_family", 22, 4, 2)
    calls = _count_shifts(monkeypatch)
    call(s, t)
    assert len(calls) == expected
