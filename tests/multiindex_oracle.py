"""Literal multi-index enumeration: the tests' oracle for the hereditary sums.

The paper writes every defect and beta as a sum over |alpha| = k with weights
k!/alpha!. The package computes these sums by recurrence; the tests check it
against the enumeration below, and check the enumeration itself against the
stars-and-bars count, the multinomial theorem and the Pascal-type recursion.
"""

from __future__ import annotations

import math

from opertuple.multiindex import MultiIndex, validate_multiindex


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
