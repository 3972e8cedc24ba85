"""Exact integer combinatorics of multi-indices alpha in Z_+^d.

Enumeration, factorials, multinomial weights |alpha|!/alpha!, the Pascal-type
recursion for multinomial coefficients, and the descending Pochhammer symbol
with its three-case convention (n = 0 maps to 0, as does k > n > 0).

All arithmetic is exact; results are guarded against leaving the signed
64-bit range so values stay interchange-safe.
"""

from __future__ import annotations

import math

MultiIndex = tuple[int, ...]

_INT64_MAX = 2**63 - 1


def _checked(value: int, what: str) -> int:
    if value > _INT64_MAX:
        raise OverflowError(f"{what} = {value} exceeds the 64-bit integer range")
    return value


def validate_multiindex(alpha) -> MultiIndex:
    """Coerce to a tuple of nonnegative ints, rejecting anything else."""
    entries = tuple(alpha)
    if not entries:
        raise ValueError("multi-index must have at least one entry")
    for a in entries:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise ValueError(f"multi-index entries must be nonnegative integers, got {a!r}")
    return entries


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


def prefix_tree(d: int, kmax: int, root, step):
    """Walk every alpha in Z_+^d with |alpha| <= kmax depth first, yielding (alpha, value).

    Children are alpha + e_j for j at or after alpha's last nonzero entry. alpha = 0
    carries ``root``, a child ``step(j, parent's value)``; only the current path is alive.
    """

    def visit(alpha: MultiIndex, last: int, value):
        yield alpha, value
        if sum(alpha) < kmax:
            for j in range(last, d):
                yield from visit(alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :], j, step(j, value))

    yield from visit((0,) * d, 0, root)


def multinomial_weight(alpha) -> int:
    """|alpha|! / (alpha_1! ... alpha_d!), exactly."""
    entries = validate_multiindex(alpha)
    value = math.factorial(sum(entries))
    for a in entries:
        value //= math.factorial(a)
    return _checked(value, "multinomial weight")


def pochhammer_descending(n: int, k: int) -> int:
    """Descending Pochhammer n^(k): 0 if n = 0, 0 if k > n > 0, else C(n,k)*k!.

    The n = 0 convention (0 even for k = 0) is deliberate; callers that need
    the combinatorial value 1 at n = k = 0 must special-case it themselves.
    """
    if not isinstance(n, int) or n < 0 or not isinstance(k, int) or k < 0:
        raise ValueError(f"pochhammer_descending needs nonnegative integers, got {n!r}, {k!r}")
    if n == 0:
        return 0
    if k > n:
        return 0
    return _checked(math.comb(n, k) * math.factorial(k), "pochhammer symbol")


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

    return _checked(lhs, "multinomial coefficient"), _checked(rhs, "pascal sum")
