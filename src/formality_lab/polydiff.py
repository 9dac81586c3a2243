"""Polydifferential operators on polynomial functions.

An operator of arity n sends an n-tuple of polynomials to a polynomial,

    D(a_1, .., a_n) = sum_T  c_T(x) * d^{T_1}a_1 * ... * d^{T_n}a_n,

where each T_i is a multi-index and c_T is a polynomial coefficient.
Everything here runs on honest (untruncated) polynomials: composition uses
the exact Leibniz rule, so the cochain-level identities hold on the nose.
Degree-capped evaluation is a separate, last step (see ``hochschild``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from math import factorial
from operator import gt

from .core.basis import add_term, rational
from .core.linalg import solve
from .poly import Poly, diff_terms, mul_terms


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _leibniz_splits(alpha, parts):
    """Ways to write multi-index ``alpha`` as an ordered sum of ``parts``
    multi-indices, with the multinomial weight of each split."""
    per_var = []
    for a_v in alpha:
        opts = []
        for comp in _compositions(a_v, parts):
            w = factorial(a_v)
            for p in comp:
                w //= factorial(p)
            opts.append((comp, w))
        per_var.append(opts)
    nv = len(alpha)
    for choice in _cartesian(*per_var):
        weight = 1
        for _, w in choice:
            weight *= w
        split = tuple(
            tuple(choice[v][0][k] for v in range(nv)) for k in range(parts)
        )
        yield split, weight


class PolyDiffOperator:
    """terms[(T_1, .., T_n)] = coefficient polynomial (zero-free dict)."""

    __slots__ = ("nvars", "arity", "terms")

    def __init__(self, nvars, arity, terms=None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.nvars = nvars
        self.arity = arity
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                key = tuple(tuple(t) for t in key)
                if len(key) != arity:
                    raise ValueError(f"term key {key!r} does not match arity {arity}")
                for t in key:
                    if len(t) != nvars or any(k < 0 for k in t):
                        raise ValueError(f"bad multi-index {t!r}")
                if not isinstance(poly, Poly):
                    poly = Poly.const(nvars, poly)
                if poly.n != nvars:
                    raise ValueError("coefficient variable count mismatch")
                add_term(self.terms, key, poly)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, nvars, arity):
        return cls(nvars, arity)

    @classmethod
    def multiplication(cls, nvars):
        """The product cochain (a, b) -> a*b."""
        z = (0,) * nvars
        return cls(nvars, 2, {(z, z): Poly.const(nvars, 1)})

    @classmethod
    def element(cls, poly):
        """An arity-0 cochain: the polynomial itself."""
        op = cls(poly.n, 0)
        if poly:
            op.terms[()] = poly
        return op

    @property
    def lie_degree(self):
        """Degree in the bracket grading: arity minus one."""
        return self.arity - 1

    # -- vector-space operations ---------------------------------------------
    def _check(self, other):
        if self.nvars != other.nvars or self.arity != other.arity:
            raise ValueError("operator shapes differ")

    def __add__(self, other):
        self._check(other)
        out = PolyDiffOperator(self.nvars, self.arity)
        out.terms = dict(self.terms)
        for key, poly in other.terms.items():
            add_term(out.terms, key, poly)
        return out

    def __neg__(self):
        out = PolyDiffOperator(self.nvars, self.arity)
        out.terms = {k: -p for k, p in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = rational(scalar)
        out = PolyDiffOperator(self.nvars, self.arity)
        if scalar:
            out.terms = {k: scalar * p for k, p in self.terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self

    def __repr__(self):
        return (
            f"PolyDiffOperator(nvars={self.nvars}, arity={self.arity}, "
            f"{len(self.terms)} terms)"
        )

    # -- evaluation -----------------------------------------------------------
    def apply(self, args):
        """Sum over terms of c_T * d^{T_1}a_1 * ... * d^{T_n}a_n.

        Each slot's derivatives come from a table keyed by multi-index that
        lives for this call only; a multi-index above the argument's largest
        exponent in some variable kills the term before any lookup.  The
        products run on exponent dicts, and the sum is wrapped in a ``Poly``
        once.
        """
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        if any(a.n != self.nvars for a in args):
            raise ValueError("variable counts differ")
        tables = [{} for _ in args]
        tops = [tuple(map(max, zip(*a.c))) if a.c else None for a in args]
        total = {}
        for key, c in self.terms.items():
            p = c.c
            for alpha, a, table, top in zip(key, args, tables, tops):
                if top is None or any(map(gt, alpha, top)):
                    break
                d = table.get(alpha)
                if d is None:
                    d = table[alpha] = diff_terms(a.c, alpha)
                if not d:
                    break
                p = mul_terms(p, d)
            else:
                for e, v in p.items():
                    add_term(total, e, v)
        out = Poly.zero(self.nvars)
        out.c = total
        return out

    # -- composition ------------------------------------------------------------
    def insert(self, other, pos):
        """Plug ``other`` into argument slot ``pos``, expanding derivatives
        that used to hit that slot over other's coefficient and arguments by
        the Leibniz rule.  No sign convention is applied here."""
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        if not 0 <= pos < self.arity:
            raise ValueError("insertion slot out of range")
        n, m = self.arity, other.arity
        out = PolyDiffOperator(self.nvars, n + m - 1)
        for alphas, c in self.terms.items():
            splits = list(_leibniz_splits(alphas[pos], m + 1))
            for betas, e in other.terms.items():
                for split, weight in splits:
                    coeff = weight * (c * e.diff_multi(split[0]))
                    if not coeff:
                        continue
                    mids = tuple(
                        tuple(b + s for b, s in zip(beta, spl))
                        for beta, spl in zip(betas, split[1:])
                    )
                    key = alphas[:pos] + mids + alphas[pos + 1 :]
                    add_term(out.terms, key, coeff)
        return out


def circle(D, E):
    """Insertion sum: sum_j (-1)^((arity(E)-1)*j) of E into slot j of D."""
    n, m = D.arity, E.arity
    if n + m == 0:
        # no slots to insert into and the honest arity would be negative:
        # report an arity-0 zero sentinel
        return PolyDiffOperator.zero(D.nvars, 0)
    out = PolyDiffOperator.zero(D.nvars, n + m - 1)
    for j in range(n):
        term = D.insert(E, j)
        if ((m - 1) * j) % 2:
            term = -term
        out = out + term
    return out


def bracket(D, E):
    """Graded commutator of insertions; degree of arity-n input is n-1."""
    n, m = D.arity, E.arity
    second = circle(E, D)
    if ((n - 1) * (m - 1)) % 2:
        return circle(D, E) + second
    return circle(D, E) - second


def cup(D, E):
    """(D cup E)(a_1..a_{n+m}) = (-1)^(nm) D(a_1..a_n) * E(a_{n+1}..)."""
    if D.nvars != E.nvars:
        raise ValueError("variable counts differ")
    n, m = D.arity, E.arity
    sign = -1 if (n * m) % 2 else 1
    out = PolyDiffOperator(D.nvars, n + m)
    for alphas, c in D.terms.items():
        for betas, e in E.terms.items():
            add_term(out.terms, alphas + betas, sign * (c * e))
    return out


def _block_keys(target):
    """Group an operator's terms by (coefficient monomial, slot-wise
    multi-index total).  The cochain differential preserves both, so an
    exactness solve decomposes into these blocks."""
    blocks = {}
    for tkey, poly in target.terms.items():
        tau = tuple(sum(a[v] for a in tkey) for v in range(target.nvars))
        for mono, coeff in poly.c.items():
            block = blocks.setdefault((mono, tau), {})
            block[tkey] = block.get(tkey, Fraction(0)) + coeff
    return blocks


def _splits(tau, slots):
    """All ordered tuples of `slots` multi-indices summing to tau."""
    nv = len(tau)
    per_var = []
    for v in range(nv):
        combos = []
        def rec(remaining, parts):
            if len(parts) == slots - 1:
                combos.append(parts + [remaining])
                return
            for take in range(remaining + 1):
                rec(remaining - take, parts + [take])
        rec(tau[v], [])
        per_var.append(combos)
    out = []
    def build(v, acc):
        if v == nv:
            keys = tuple(tuple(acc[w][s] for w in range(nv)) for s in range(slots))
            out.append(keys)
            return
        for combo in per_var[v]:
            build(v + 1, acc + [combo])
    build(0, [])
    return out


def delta_primitive(target):
    """Solve delta(X) = target for X of one lower arity; None if not exact.

    Works block-by-block over (coefficient monomial, total derivative
    multi-index), which the differential preserves, so each linear solve
    stays small.
    """
    if target.arity < 2:
        raise ValueError("target arity must be at least 2")
    nv = target.nvars
    arity = target.arity - 1
    result = PolyDiffOperator.zero(nv, arity)
    for (mono, tau), rhs_terms in _block_keys(target).items():
        basis = _splits(tau, arity)
        images = []
        eq_keys = set(rhs_terms)
        for bkey in basis:
            e = PolyDiffOperator(nv, arity, {bkey: Poly.monomial(nv, mono, 1)})
            img = delta(e)
            flat = {}
            for tkey, poly in img.terms.items():
                cf = poly.c.get(mono, Fraction(0))
                if cf:
                    flat[tkey] = cf
            images.append(flat)
            eq_keys.update(flat)
        eq_list = sorted(eq_keys)
        rows = []
        rhs = []
        for ek in eq_list:
            rows.append({j: images[j][ek] for j in range(len(basis)) if ek in images[j]})
            rhs.append(rhs_terms.get(ek, Fraction(0)))
        sol = solve(rows, rhs, len(basis))
        if sol is None:
            return None
        for j, val in sol.items():
            if val:
                add_term(result.terms, basis[j], Poly.monomial(nv, mono, val))
    return result


def delta(D):
    """Hochschild coboundary: bracket with the product cochain."""
    return bracket(PolyDiffOperator.multiplication(D.nvars), D)
