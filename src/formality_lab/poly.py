"""Sparse multivariate polynomials over the rationals.

Terms are a dict from exponent tuples to exact scalars (``int`` or
``Fraction``, see ``core.basis``) with no stored zeros.
Nothing here ever truncates: the degree-capped quotient lives in
``algebras.FunctionModel``, which wraps these with a truncating product.
"""

from __future__ import annotations

from itertools import product as _cartesian

from .core.basis import add_term, rational


class Poly:
    __slots__ = ("n", "c")

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

    # -- predicates & access ----------------------------------------------
    def __bool__(self):
        return bool(self.c)

    def is_zero(self):
        return not self

    def constant_term(self):
        return self.c.get((0,) * self.n, 0)

    def coeff(self, exps):
        return self.c.get(tuple(exps), 0)

    def terms_sorted(self):
        return sorted(self.c.items())

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        self._check(other)
        p = Poly.zero(self.n)
        p.c = dict(self.c)
        for e, v in other.c.items():
            add_term(p.c, e, v)
        return p

    def __neg__(self):
        p = Poly.zero(self.n)
        p.c = {e: -v for e, v in self.c.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        v = rational(scalar)
        if v == -1:
            return -self
        p = Poly.zero(self.n)
        if v == 1:
            p.c = dict(self.c)
        elif v:
            p.c = {e: v * w for e, w in self.c.items()}
        return p

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.__rmul__(other)
        self._check(other)
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                add_term(out, tuple(a + b for a, b in zip(e1, e2)), v1 * v2)
        p = Poly.zero(self.n)
        p.c = out
        return p

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __hash__(self):
        return hash((self.n, frozenset(self.c.items())))

    # -- calculus -----------------------------------------------------------
    def diff(self, i):
        out = {}
        for e, v in self.c.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = v * e[i]
        p = Poly.zero(self.n)
        p.c = out
        return p

    def diff_multi(self, alpha):
        p = self
        for i, k in enumerate(alpha):
            for _ in range(k):
                p = p.diff(i)
                if not p:
                    return p
        return p

    def truncate(self, degree_cap):
        """Drop all terms of total degree above the cap."""
        p = Poly.zero(self.n)
        p.c = {e: v for e, v in self.c.items() if sum(e) <= degree_cap}
        return p

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for e, v in self.terms_sorted():
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{v}" + ("*" + mono if mono else ""))
        return " + ".join(bits)


def monomials_upto(n, cap):
    """All exponent tuples in n variables of total degree <= cap, graded-lex."""
    out = []
    for d in range(cap + 1):
        out.extend(e for e in _cartesian(range(d + 1), repeat=n) if sum(e) == d)
    return out
