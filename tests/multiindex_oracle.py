"""Literal multi-index enumeration: the tests' oracle for the hereditary sums.

The paper writes every defect and beta as a sum over |alpha| = k with weights
k!/alpha!. The package computes these sums by recurrence; the tests check it
against the enumeration below, and check the enumeration itself against the
stars-and-bars count, the multinomial theorem and the Pascal-type recursion.
"""

from __future__ import annotations

import math

import numpy as np

from opertuple.multiindex import MultiIndex, prefix_tree, validate_multiindex
from opertuple.tuples import alternating_binomial_sum


def enumerate_multiindices(d: int, k: int) -> list[MultiIndex]:
    """All alpha in Z_+^d with |alpha| = k, in descending lexicographic order.

    The list has length C(k+d-1, d-1).
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension d must be a positive integer, got {d!r}")
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"order k must be a nonnegative integer, got {k!r}")
    if d == 1:
        return [(k,)]
    out: list[MultiIndex] = []
    for first in range(k, -1, -1):
        for rest in enumerate_multiindices(d - 1, k - first):
            out.append((first,) + rest)
    return out


def enumerated_levels(s, t, kmax: int) -> list[np.ndarray]:
    """sum_{|alpha|=k} (k!/alpha!) S^alpha T^alpha for k = 0..kmax, by enumeration.

    The monomials grow on the prefix tree: one product per node for S and for T.
    """
    eye = np.eye(t.dim, dtype=np.complex128)
    levels = [np.zeros_like(eye) for _ in range(kmax + 1)]
    pairs = prefix_tree(t.d, kmax, (eye, eye), lambda j, pair: (s[j] @ pair[0], t[j] @ pair[1]))
    for k, weight, (s_alpha, t_alpha) in pairs:
        levels[k] += weight * (s_alpha @ t_alpha)
    return levels


def beta_enumeration(s, t, m: int) -> tuple[np.ndarray, float]:
    """beta_m with its (-1)^(m-k) signs: the (-1)^k sum of the enumerated levels, times (-1)^m.

    Returns (beta_m, scale), the scale being the largest term of the alternating sum.
    """
    total, scale = alternating_binomial_sum(enumerated_levels(s, t, m), m)
    return (-1) ** m * total, scale


def pascal_multinomial(n: int, parts) -> tuple[int, int]:
    """Both sides of C(n; k_1..k_d) = sum_j C(n-1; k_1..k_j - 1..k_d).

    Terms on the right whose adjusted entry would go negative contribute 0.
    Returns (lhs, rhs), each evaluated independently from factorials; their
    equality is the identity under test.
    """
    entries = validate_multiindex(parts)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if len(entries) < 2:
        raise ValueError("pascal_multinomial needs at least two parts")
    if sum(entries) != n:
        raise ValueError(f"parts must sum to n = {n}, got |parts| = {sum(entries)}")

    lhs = math.factorial(n)
    for a in entries:
        lhs //= math.factorial(a)

    rhs = 0
    for j, a in enumerate(entries):
        if a == 0:
            continue
        adjusted = entries[:j] + (a - 1,) + entries[j + 1 :]
        term = math.factorial(n - 1)
        for b in adjusted:
            term //= math.factorial(b)
        rhs += term

    return lhs, rhs
