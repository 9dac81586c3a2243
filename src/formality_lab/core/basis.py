"""Sparse vectors, the one accumulate-and-drop-zeros helper, the one scalar coercion.

Every sparse container in the package (polynomials, multivectors and
forms, chains and cochains, operators, series) is a dict key -> value with
no stored zeros.  ``add_term`` is the one place that keeps that invariant,
so equality of dicts is equality of vectors.  A value is zero when it is
falsy: ``0`` and every container with no terms.

Scalars are exact rationals: an ``int`` when integral, a ``Fraction``
otherwise.  Arithmetic on values that are all integers therefore never
builds a ``Fraction``.  Products such as ``Fraction(1, 2) * 2`` may still
store ``Fraction(1, 1)``; values are compared by value (``1 ==
Fraction(1)`` and their hashes agree), so nothing renormalizes them.
"""

from __future__ import annotations

from fractions import Fraction


def rational(v):
    """``v`` as an exact scalar: an ``int`` when integral, else a ``Fraction``.

    Never returns ``Fraction(n, 1)``; anything but an int or a Fraction
    raises TypeError.
    """
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
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
