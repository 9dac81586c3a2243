"""Sparse vectors: the one vector-space base, the one accumulate-and-drop-zeros
helper, the one scalar coercion.

Every sparse container in the package (polynomials, multivectors and
forms, chains and cochains, operators, series) is a dict key -> value with
no stored zeros.  ``add_term`` is the one place that keeps that invariant,
so equality of dicts is equality of vectors.  A value is zero when it is
falsy: ``0`` and every container with no terms.  ``Sparse`` writes the
vector-space operations once for every container whose dict is ``c``.

Scalars are exact rationals: an ``int`` when integral, a ``Fraction``
otherwise.  Arithmetic on values that are all integers therefore never
builds a ``Fraction``.  Products such as ``Fraction(1, 2) * 2`` may still
store ``Fraction(1, 1)``; values are compared by value (``1 ==
Fraction(1)`` and their hashes agree), so nothing renormalizes them.
``common_denominator`` and ``rescaled`` let a computation run on ``int``
numerators instead: clear a nested container's denominators once, and
divide once per output scalar at the end, normalized by ``rational``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def common_denominator(x):
    """The lcm of the denominators of every scalar in ``x``: an exact
    scalar, or a ``Sparse`` whose values are scalars or ``Sparse``."""
    if isinstance(x, Sparse):
        return lcm(1, *map(common_denominator, x.c.values()))
    return rational(x).denominator


def rescaled(x, s):
    """s * x for a nonzero exact scalar ``s`` and ``x`` as in
    ``common_denominator``, every scalar normalized by ``rational``: an
    ``int`` wherever it is integral, never ``Fraction(n, 1)``.  Each product
    is formed on integer numerators and denominators, so only a non-integral
    result builds a ``Fraction``."""
    s = rational(s)
    sn, sd = s.numerator, s.denominator

    def walk(v):
        if isinstance(v, Sparse):
            return v._like({key: walk(w) for key, w in v.c.items()})
        v = rational(v)
        n, d = sn * v.numerator, sd * v.denominator
        g = gcd(n, d)
        return n // g if g == d else Fraction(n // g, d // g)

    return walk(x)


def vadd_into(acc, other, scale=1):
    """acc += scale * other, in place; returns acc."""
    if scale:
        for lab, val in other.items():
            add_term(acc, lab, scale * val)
    return acc


def add_row(table, key, v, scale=1):
    """table[key] += scale * v for a table of sparse vectors, dropping the
    key when its vector cancels.  A new key goes last and a row that
    cancels leaves, as in a sum of containers."""
    acc = table.setdefault(key, {})
    vadd_into(acc, v, scale)
    if not acc:
        del table[key]


def vec(*pairs):
    out = {}
    for lab, val in pairs:
        add_term(out, lab, rational(val))
    return out


class Sparse:
    """A vector stored as the zero-free dict ``c``: basis key -> exact
    scalar, or -> a nonzero container that is itself a vector.

    A subclass names in ``_space`` the slots that fix its vector space, and
    its ``__init__`` checks outside input.  Building an element of that
    space around a zero-free dict (``_like``), sums, differences, negation,
    scalar multiples, equality and the zero test are defined here, once.
    Elements of different spaces (or types) raise ``ValueError`` when
    added and are unequal.
    """

    __slots__ = ()
    _space = ()

    def _like(self, c):
        """The element of this element's space whose dict is ``c``, taken
        over unchecked: a new object of this type with every ``_space`` slot
        copied."""
        out = object.__new__(type(self))
        for slot in self._space:
            setattr(out, slot, getattr(self, slot))
        out.c = c
        return out

    def _same(self, other):
        """Raise ValueError unless ``other`` lies in this element's space;
        return the element whose space a sum of the two lies in."""
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} and {type(other).__name__}")
        for slot in self._space:
            if getattr(self, slot) != getattr(other, slot):
                raise ValueError(f"{type(self).__name__}s differ in {slot}")
        return self

    def __add__(self, other):
        space = self._same(other)
        c = dict(self.c)
        for key, v in other.c.items():
            add_term(c, key, v)
        return space._like(c)

    def __sub__(self, other):
        space = self._same(other)
        c = dict(self.c)
        for key, v in other.c.items():
            add_term(c, key, -v)
        return space._like(c)

    def __neg__(self):
        return self._like({key: -v for key, v in self.c.items()})

    def __rmul__(self, scalar):
        s = rational(scalar)
        if s == 1:
            return self._like(dict(self.c))
        if s == -1:
            return -self
        return self._like({key: s * v for key, v in self.c.items()} if s else {})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.c == other.c and all(
            getattr(self, slot) == getattr(other, slot) for slot in self._space
        )

    def __bool__(self):
        return bool(self.c)

    def is_zero(self):
        return not self.c
