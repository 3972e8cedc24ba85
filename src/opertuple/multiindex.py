"""Exact integer combinatorics of multi-indices alpha in Z_+^d.

Validation, the depth-first walk over the monomial prefix tree, multinomial
weights |alpha|!/alpha!, and the descending Pochhammer symbol with its
three-case convention (n = 0 maps to 0, as does k > n > 0). All arithmetic
is exact Python integers.
"""

from __future__ import annotations

import math

MultiIndex = tuple[int, ...]


def validate_multiindex(alpha) -> MultiIndex:
    """Coerce to a tuple of nonnegative ints, rejecting anything else."""
    entries = tuple(alpha)
    if not entries:
        raise ValueError("multi-index must have at least one entry")
    for a in entries:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise ValueError(f"multi-index entries must be nonnegative integers, got {a!r}")
    return entries


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
    return value


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
    return math.comb(n, k) * math.factorial(k)
