import math

import pytest
from hypothesis import given, strategies as st

from opertuple.multiindex import multinomial_weight, pochhammer_descending, prefix_tree

from multiindex_oracle import enumerate_multiindices, pascal_multinomial


def test_enumeration_d2_k2_descending_lex():
    assert enumerate_multiindices(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_enumeration_zero_order():
    assert enumerate_multiindices(3, 0) == [(0, 0, 0)]


def test_enumeration_count_stars_and_bars():
    # |{alpha : |alpha| = 2, d = 3}| = C(4, 2) = 6
    assert len(enumerate_multiindices(3, 2)) == 6


def test_enumeration_rejects_d_zero():
    with pytest.raises(ValueError):
        enumerate_multiindices(0, 3)


@given(st.integers(1, 4), st.integers(0, 8))
def test_enumeration_no_duplicates_and_order(d, k):
    out = enumerate_multiindices(d, k)
    assert len(set(out)) == len(out)
    assert all(sum(a) == k for a in out)
    assert out == sorted(out, reverse=True)
    assert len(out) == math.comb(k + d - 1, d - 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_prefix_tree_carries_the_multinomial_weight(d):
    # with step alpha -> alpha + e_j each node's value is its own alpha
    def step(j, alpha):
        return alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]

    kmax = 6
    seen = []
    for k, weight, alpha in prefix_tree(d, kmax, (0,) * d, step):
        assert k == sum(alpha)
        assert weight == multinomial_weight(alpha)
        seen.append(alpha)
    expected = [alpha for k in range(kmax + 1) for alpha in enumerate_multiindices(d, k)]
    assert sorted(seen) == sorted(expected)


def test_multinomial_weight_basics():
    assert multinomial_weight((1, 1)) == 2
    assert multinomial_weight((0, 0, 0, 0)) == 1
    assert multinomial_weight((2, 1, 1)) == 12


def test_multinomial_weight_rejects_negative():
    with pytest.raises(ValueError):
        multinomial_weight((1, -1))


def test_weight_sum_d3_k2():
    assert sum(multinomial_weight(a) for a in enumerate_multiindices(3, 2)) == 9


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", list(range(0, 13)))
def test_weight_sum_is_d_to_the_k(d, k):
    # multinomial theorem at x_1 = ... = x_d = 1, exact integer equality
    assert sum(multinomial_weight(a) for a in enumerate_multiindices(d, k)) == d**k


def test_pochhammer_paper_conventions():
    assert pochhammer_descending(0, 0) == 0
    assert pochhammer_descending(0, 5) == 0
    assert pochhammer_descending(4, 5) == 0
    assert pochhammer_descending(3, 2) == 6


@pytest.mark.parametrize("n", range(1, 13))
def test_pochhammer_matches_binomial_times_factorial(n):
    for k in range(1, n + 1):
        assert pochhammer_descending(n, k) == math.comb(n, k) * math.factorial(k)


def test_pascal_examples():
    assert pascal_multinomial(2, (1, 1)) == (2, 2)
    assert pascal_multinomial(3, (3, 0)) == (1, 1)
    assert pascal_multinomial(4, (2, 1, 1)) == (12, 12)


def test_pascal_rejects_mismatched_total():
    with pytest.raises(ValueError):
        pascal_multinomial(3, (1, 1))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", list(range(1, 13)))
def test_pascal_identity_exhaustive(d, n):
    for parts in enumerate_multiindices(d, n):
        lhs, rhs = pascal_multinomial(n, parts)
        assert lhs == rhs


def test_overflow_guard():
    # C(70, 35) ~ 1.1e20 is past the signed 64-bit range and still exact
    assert multinomial_weight((35, 35)) == math.comb(70, 35)
