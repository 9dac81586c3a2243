"""Polydifferential operators on polynomial functions.

An operator of arity n sends an n-tuple of polynomials to a polynomial,

    D(a_1, .., a_n) = sum_T  c_T(x) * d^{T_1}a_1 * ... * d^{T_n}a_n,

where each T_i is a multi-index and c_T is a polynomial coefficient.
Everything here runs on honest (untruncated) polynomials: composition uses
the exact Leibniz rule, so the cochain-level identities hold on the nose.
Degree-capped evaluation is a separate, last step (see ``hochschild``).
The insertion sum ``circle_rows`` and the ``bracket`` are ``hochschild``'s,
the same code as for cochain tables, on the rows of ``insert_rows``.
"""

from __future__ import annotations

from functools import cache
from itertools import product as _cartesian
from math import factorial
from operator import add, gt, le

from .core.basis import Sparse, add_row, add_term
from .core.linalg import solve
from .hochschild import bracket
from .poly import Poly, compositions, diff_terms, mul_terms


def _leibniz_splits(alpha, parts):
    """Ways to write multi-index ``alpha`` as an ordered sum of ``parts``
    multi-indices, with the multinomial weight of each split."""
    per_var = []
    for a_v in alpha:
        opts = []
        for comp in compositions(a_v, parts):
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


@cache
def _landing_splits(alpha, top, m):
    """The Leibniz splits of ``alpha`` into a first part s0 and ``m`` more,
    in ``_leibniz_splits`` order, kept only where s0 can land on a
    coefficient whose largest exponents are ``top`` (a larger s0 kills it):
    (s0, the other parts, weight) each."""
    return tuple(
        (split[0], split[1:], weight)
        for split, weight in _leibniz_splits(alpha, m + 1)
        if all(map(le, split[0], top))
    )


class PolyDiffOperator(Sparse):
    """c[(T_1, .., T_n)] = coefficient polynomial (zero-free dict)."""

    __slots__ = ("nvars", "arity", "c")
    _space = ("nvars", "arity")

    def __init__(self, nvars, arity, terms=None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.nvars = nvars
        self.arity = arity
        self.c = {}
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
                add_term(self.c, key, poly)

    # -- constructors -------------------------------------------------------
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
            op.c[()] = poly
        return op

    def assemble(self, other, arity, rows):
        """The operator of ``arity`` whose rows {slot multi-indices:
        {exponent: scalar}} are ``rows``, summed from insertions of
        ``other`` into this one (or the reverse); ValueError unless both act
        on the same variables."""
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        zero = Poly.zero(self.nvars)
        out = PolyDiffOperator(self.nvars, arity)
        out.c = {key: zero._like(row) for key, row in rows.items()}
        return out

    def __repr__(self):
        return (
            f"PolyDiffOperator(nvars={self.nvars}, arity={self.arity}, "
            f"{len(self.c)} terms)"
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
        for key, c in self.c.items():
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
    def insert_rows(self, other, pos):
        """``other`` plugged into argument slot ``pos``, as rows {slot
        multi-indices: {exponent: scalar}} for ``assemble``.

        The derivatives d^alpha that hit that slot are spread by the Leibniz
        rule over other's coefficient (the part s0) and its arguments.  Only
        parts s0 up to the coefficient's largest exponents are visited; each
        derivative of a coefficient and each product with it is built once,
        on exponent dicts.  No sign convention is applied here.
        """
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        if not 0 <= pos < self.arity:
            raise ValueError("insertion slot out of range")
        m = other.arity
        terms = [
            (betas, e.c, tuple(map(max, zip(*e.c))), {})
            for betas, e in other.c.items()
        ]
        out = {}
        for alphas, c in self.c.items():
            alpha, head, tail = alphas[pos], alphas[:pos], alphas[pos + 1 :]
            for betas, e, top, derivs in terms:
                prods = {}
                for s0, rest, weight in _landing_splits(alpha, top, m):
                    p = prods.get(s0)
                    if p is None:
                        d = derivs.get(s0)
                        if d is None:
                            d = derivs[s0] = diff_terms(e, s0)
                        p = prods[s0] = mul_terms(c.c, d) if d else {}
                    if p:
                        key = head + tuple(map(_shift, betas, rest)) + tail
                        add_row(out, key, p, weight)
        return out


def _shift(beta, s):
    return tuple(map(add, beta, s))


def cup(D, E):
    """(D cup E)(a_1..a_{n+m}) = (-1)^(nm) D(a_1..a_n) * E(a_{n+1}..)."""
    if D.nvars != E.nvars:
        raise ValueError("variable counts differ")
    n, m = D.arity, E.arity
    sign = -1 if (n * m) % 2 else 1
    out = PolyDiffOperator(D.nvars, n + m)
    for alphas, c in D.c.items():
        for betas, e in E.c.items():
            add_term(out.c, alphas + betas, sign * (c * e))
    return out


def _block_keys(target):
    """Group an operator's terms by (coefficient monomial, slot-wise
    multi-index total).  The cochain differential preserves both, so an
    exactness solve decomposes into these blocks."""
    blocks = {}
    for tkey, poly in target.c.items():
        tau = tuple(sum(a[v] for a in tkey) for v in range(target.nvars))
        for mono, coeff in poly.c.items():
            add_term(blocks.setdefault((mono, tau), {}), tkey, coeff)
    return blocks


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
    result = PolyDiffOperator(nv, arity)
    for (mono, tau), rhs_terms in _block_keys(target).items():
        # every ordered split of tau over the slots, the first variable
        # slowest (``solve``'s free-variable choice depends on this order)
        basis = [split for split, _ in _leibniz_splits(tau, arity)]
        images = []
        for bkey in basis:
            img = delta(PolyDiffOperator(nv, arity, {bkey: Poly.monomial(nv, mono, 1)}))
            images.append({tkey: p.c[mono] for tkey, p in img.c.items() if mono in p.c})
        sol = solve(images, rhs_terms)
        if sol is None:
            return None
        for j, val in sol.items():
            add_term(result.c, basis[j], Poly.monomial(nv, mono, val))
    return result


def delta(D):
    """Hochschild coboundary: bracket with the product cochain."""
    return bracket(PolyDiffOperator.multiplication(D.nvars), D)
