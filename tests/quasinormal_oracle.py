"""The plain triple loop: the tests' oracle for the quasinormality flags.

The paper defines matricial quasinormality by [T_i, T_j* T_k] = 0 for all i, j, k,
joint quasinormality by the triples with j = k, and spherical quasinormality by
[T_j, sum_k T_k* T_k] = 0. The package certifies most triples by a bound and
shares products between them; the loop below forms every product and every
commutator anew, on the same power-of-two rescale, and decides each one exactly.
"""

from __future__ import annotations

from opertuple.linalg import adjoint, frobenius_norm
from opertuple.tuples import QuasinormalFlags, unit_copy


def _scaled(t):
    """(A, a): the components of T's unit copy A = T / 2^a (``unit_copy``), as the package takes them."""
    copy, a = unit_copy(t)
    return list(copy), a


def quasinormal_reference(t, tol) -> QuasinormalFlags:
    """The flags by the plain triple loop, each T_j* T_k and each norm formed anew per commutator."""
    mats, a = _scaled(t)
    d = len(mats)

    def commutes(x, y):
        norm, scale = frobenius_norm(x @ y - y @ x), frobenius_norm(x) * frobenius_norm(y)
        return tol.is_zero(norm, scale, 3 * a)

    grams = [adjoint(m) for m in mats]
    matricial = all(
        commutes(mats[i], grams[j] @ mats[k]) for i in range(d) for j in range(d) for k in range(d)
    )
    joint = matricial or all(commutes(mats[i], grams[j] @ mats[j]) for i in range(d) for j in range(d))
    ball = sum(grams[k] @ mats[k] for k in range(d))
    spherical = joint or all(commutes(mats[j], ball) for j in range(d))
    return QuasinormalFlags(matricial=matricial, joint=joint, spherical=spherical)


def matricial_flip(t) -> float:
    """The relative tolerance (absolute 0) at which t turns matricially quasinormal: the largest
    ||[A_i, A_j* A_k]||_F / (||A_i||_F ||A_j* A_k||_F) over the triples."""
    mats, _ = _scaled(t)
    products = [adjoint(y) @ z for y in mats for z in mats]
    return max(
        frobenius_norm(x @ p - p @ x) / (frobenius_norm(x) * frobenius_norm(p)) for x in mats for p in products
    )
