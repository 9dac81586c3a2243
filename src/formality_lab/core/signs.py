"""Koszul sign bookkeeping.

A single engine serves every graded sign in the package.  The sign of a
permutation of homogeneous objects is the product, over inverted pairs, of
(-1)^((|x|-s)(|y|-s)) where s is a degree shift: s=0 gives the plain
graded-commutative convention, s=1 the suspension-shifted convention used
by brackets on multivector fields and by the homotopy-Lie checks.
"""

from __future__ import annotations


def koszul_sign(perm, degrees, shift=0):
    """Sign for rearranging objects of the given degrees by ``perm``.

    ``perm[i]`` is the original position of the object that ends up at
    position i, so ``perm = (1, 0)`` means "swap the two objects".
    ``degrees`` are indexed by original position.  Every transposition of
    adjacent objects x, y contributes (-1)^((|x|-shift)(|y|-shift)); the
    result is the product over one (equivalently any) decomposition.
    """
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of 0..{k-1}: {perm!r}")
    if len(degrees) != k:
        raise ValueError("degree list does not match permutation length")
    sign = 1
    for i in range(k):
        di = degrees[perm[i]] - shift
        if di % 2 == 0:
            continue
        for j in range(i + 1, k):
            if perm[i] > perm[j] and (degrees[perm[j]] - shift) % 2 != 0:
                sign = -sign
    return sign


def unshuffle_sign(n, subset, degrees, shift=0):
    """Sign moving objects at ``subset`` positions to the front.

    ``subset`` must be strictly increasing positions in range(n); the
    complement keeps its order.  This is the Koszul sign of the
    (p, n-p)-unshuffle sending (x_0 .. x_{n-1}) to (x_I, x_J).
    """
    rest = [i for i in range(n) if i not in subset]
    perm = tuple(list(subset) + rest)
    return koszul_sign(perm, degrees, shift)


def decalage_sign(degrees):
    """Suspension bookkeeping sign for applying a k-ary bracket.

    For arguments of (unshifted) degrees d_1 .. d_k this is
    (-1)^(sum_{a=1}^{k} (k-a) * (d_a - 1)), the sign relating a graded
    multilinear map to its suspended counterpart.  The homotopy-Lie and
    homotopy-module identities hold with pure shifted Koszul unshuffle
    signs once every bracket application carries this factor.
    """
    k = len(degrees)
    total = sum((k - 1 - a) * (degrees[a] - 1) for a in range(k))
    return -1 if total % 2 else 1
