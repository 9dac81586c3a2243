"""Sparse multivariate polynomials over the rationals.

Terms are a dict from exponent tuples to exact scalars (``int`` or
``Fraction``, see ``core.basis``) with no stored zeros.
Nothing here ever truncates: the degree-capped quotient lives in
``algebras.FunctionModel``, whose structure algebra has a truncating product.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm, prod
from operator import add, sub

from .core.basis import Sparse, add_term, rational


def mul_terms(c1, c2):
    """The product of two exponent dicts, as a new zero-free dict."""
    out = {}
    for e1, v1 in c1.items():
        for e2, v2 in c2.items():
            add_term(out, tuple(map(add, e1, e2)), v1 * v2)
    return out


def diff_terms(c, alpha):
    """The derivative d^alpha of an exponent dict, as a zero-free dict.

    One rule for every multi-index: d^alpha x^e = (prod_i perm(e_i, alpha_i))
    x^(e - alpha), where ``perm(k, a)`` is the falling factorial
    k(k-1)..(k-a+1), 0 when a > k.  The weights are ``int``s, so an ``int``
    coefficient stays an ``int``.  A zero ``alpha`` returns ``c`` itself,
    which callers must not mutate.
    """
    if not any(alpha):
        return c
    out = {}
    for e, v in c.items():
        w = prod(map(perm, e, alpha))
        if w:
            out[tuple(map(sub, e, alpha))] = v * w
    return out


class Poly(Sparse):
    __slots__ = ("n", "c")
    _space = ("n",)

    def __init__(self, n, coeffs=None):
        self.n = n
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = rational(v)
                if not v:
                    continue
                e = tuple(e)
                if len(e) != n or any(k < 0 for k in e):
                    raise ValueError(f"bad exponent tuple {e!r} for {n} variables")
                add_term(self.c, e, v)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, v):
        return cls(n, {(0,) * n: v})

    @classmethod
    def var(cls, n, i):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1})

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        return cls(n, {tuple(exps): coeff})

    # -- access -------------------------------------------------------------
    def coeff(self, exps):
        return self.c.get(tuple(exps), 0)

    def terms_sorted(self):
        return sorted(self.c.items())

    # -- arithmetic (the vector-space half is ``Sparse``'s) -----------------
    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a container's __rmul__ takes it
            return self.__rmul__(other)
        self._same(other)
        return self._like(mul_terms(self.c, other.c))

    # -- calculus -----------------------------------------------------------
    def diff(self, i):
        alpha = [0] * self.n
        alpha[i] = 1
        return self.diff_multi(tuple(alpha))

    def diff_multi(self, alpha):
        if len(alpha) != self.n:
            raise ValueError(f"multi-index {alpha!r} does not have {self.n} entries")
        d = diff_terms(self.c, alpha)
        return self if d is self.c else self._like(d)

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for e, v in self.terms_sorted():
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{v}" + ("*" + mono if mono else ""))
        return " + ".join(bits)


def compositions(total, parts):
    """Each way to write ``total`` as an ordered sum of ``parts`` naturals,
    in lexicographic order."""
    if parts < 2:
        if parts or not total:
            yield (total,) * parts
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials_upto(n, cap):
    """All exponent tuples in n variables of total degree <= cap, graded-lex."""
    return [e for d in range(cap + 1) for e in compositions(d, n)]
