"""Sparse vectors over finite bases.

Vectors are plain dicts label -> Fraction with no stored zeros; the helper
functions keep that invariant so equality of dicts is equality of vectors.
"""

from __future__ import annotations

from fractions import Fraction


def vec(*pairs):
    out = {}
    for lab, val in pairs:
        if not isinstance(val, Fraction):
            val = Fraction(val)
        if val:
            out[lab] = out.get(lab, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}


def vadd_into(acc, other, scale=1):
    """acc += scale * other, in place; returns acc."""
    if scale == 0:
        return acc
    for lab, val in other.items():
        w = acc.get(lab, 0) + scale * val
        if w:
            acc[lab] = w
        else:
            acc.pop(lab, None)
    return acc

