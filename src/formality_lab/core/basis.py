"""Sparse vectors, the one accumulate-and-drop-zeros helper, the one scalar coercion.

Every sparse container in the package (polynomials, multivectors and
forms, chains and cochains, operators, series) is a dict key -> value with
no stored zeros.  ``add_term`` is the one place that keeps that invariant,
so equality of dicts is equality of vectors.  A value is zero when it is
falsy: ``Fraction(0)`` and every container with no terms.
"""

from __future__ import annotations

from fractions import Fraction


def rational(v):
    """``v`` as a Fraction; anything but an int or a Fraction raises TypeError."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected exact rational, got {type(v).__name__}")


def add_term(d, key, value):
    """d[key] += value in place, dropping the key when the sum is zero."""
    old = d.get(key)
    if old is not None:
        value = old + value
    if value:
        d[key] = value
    else:
        d.pop(key, None)


def vadd_into(acc, other, scale=1):
    """acc += scale * other, in place; returns acc."""
    if scale:
        for lab, val in other.items():
            add_term(acc, lab, scale * val)
    return acc


def vec(*pairs):
    out = {}
    for lab, val in pairs:
        add_term(out, lab, rational(val))
    return out
