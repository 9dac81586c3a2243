"""Polynomial multivector fields and differential forms with exact calculus.

Multivectors are encoded as polynomials in even coordinates and odd frame
symbols: a degree-k field is a dict from strictly increasing index tuples
(i_1 < .. < i_k) to polynomial coefficients.  The bracket of multivectors
is the canonical odd Poisson bracket of that encoding; the four axioms it
must satisfy (vector-field case = Lie derivative, functions bracket to
zero, shifted graded Lie, odd Leibniz over the wedge) are enforced by the
test suite rather than hand-threaded signs.

Everything is computed on honest polynomials -- no degree cap -- because
partial derivatives do not descend to the capped quotient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial
from operator import add

from .core.basis import add_term, rational
from .poly import Poly
from .polydiff import PolyDiffOperator


def _merge_sign(left, right):
    """Sign for sorting the concatenation of two increasing tuples.

    Returns (sign, merged) or None when an index repeats (the product
    vanishes).  Odd symbols anticommute, so the sign counts inversions.
    """
    if set(left) & set(right):
        return None
    inv = sum(1 for a in left for b in right if a > b)
    merged = tuple(sorted(left + right))
    return (-1 if inv % 2 else 1, merged)


def _remove_index(key, i):
    """Odd partial derivative / first-slot insertion on a basis symbol:
    returns (sign, key minus i) or None if i is absent."""
    if i not in key:
        return None
    pos = key.index(i)
    return (-1 if pos % 2 else 1, key[:pos] + key[pos + 1 :])


class _Exterior:
    """Shared shape of multivectors and forms: graded, exterior, sparse."""

    __slots__ = ("nvars", "k", "c")

    def __init__(self, nvars, k, coeffs=None):
        if k < 0:
            raise ValueError("exterior degree must be >= 0")
        self.nvars = nvars
        self.k = k
        self.c = {}
        if coeffs:
            for key, p in coeffs.items():
                key = tuple(key)
                if len(key) != k or list(key) != sorted(set(key)):
                    raise ValueError(
                        f"index tuple {key!r} is not {k} strictly increasing indices"
                    )
                if any(not 0 <= i < nvars for i in key):
                    raise ValueError(f"index out of range in {key!r}")
                if not isinstance(p, Poly):
                    p = Poly.const(nvars, p)
                add_term(self.c, key, p)

    @classmethod
    def zero(cls, nvars, k):
        return cls(nvars, k)

    def _check(self, other):
        if type(self) is not type(other) or self.nvars != other.nvars or self.k != other.k:
            raise ValueError("mismatched exterior elements")

    def __add__(self, other):
        # a zero element is degree-agnostic: over-contracting produces
        # degree-0 zeros that must still combine with honest degrees
        if self.k != other.k:
            if not self and type(self) is type(other) and self.nvars == other.nvars:
                out = type(other)(other.nvars, other.k)
                out.c = dict(other.c)
                return out
            if not other and type(self) is type(other) and self.nvars == other.nvars:
                out = type(self)(self.nvars, self.k)
                out.c = dict(self.c)
                return out
        self._check(other)
        out = type(self)(self.nvars, self.k)
        out.c = dict(self.c)
        for key, p in other.c.items():
            add_term(out.c, key, p)
        return out

    def __neg__(self):
        out = type(self)(self.nvars, self.k)
        out.c = {key: -p for key, p in self.c.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        out = type(self)(self.nvars, self.k)
        if isinstance(scalar, Poly):
            for key, p in self.c.items():
                s = scalar * p
                if s:
                    out.c[key] = s
            return out
        scalar = rational(scalar)
        if scalar == -1:
            return -self
        if scalar == 1:
            out.c = dict(self.c)
        elif scalar:
            out.c = {key: scalar * p for key, p in self.c.items()}
        return out

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.nvars == other.nvars and self.k == other.k and self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def is_zero(self):
        return not self

    def wedge(self, other):
        if type(self) is not type(other) or self.nvars != other.nvars:
            raise ValueError("mismatched wedge factors")
        return _monomial_pairs(self, other, _wedge_rule, type(self), self.k + other.k)

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, {len(self.c)} terms)"


class MultiVector(_Exterior):
    """Sum of c_I(x) * frame_I with I strictly increasing; k = |I|."""

    @classmethod
    def function(cls, poly):
        return cls(poly.n, 0, {(): poly})


class Form(_Exterior):
    """Sum of c_I(x) * dx^I with I strictly increasing."""

    @classmethod
    def function(cls, poly):
        return cls(poly.n, 0, {(): poly})


def pairing(mv, form):
    """<frame_I, dx^J> = delta_IJ on increasing tuples (determinant rule)."""
    if not isinstance(mv, MultiVector) or not isinstance(form, Form):
        raise TypeError("pairing takes (MultiVector, Form)")
    if mv.nvars != form.nvars or mv.k != form.k:
        raise ValueError("mismatched pairing")
    total = Poly.zero(mv.nvars)
    for key, p in mv.c.items():
        q = form.c.get(key)
        if q is not None:
            total = total + p * q
    return total


# -- the monomial-pair kernel of wedge and Schouten ---------------------------------

def _monomial_pairs(A, B, rule, cls, k):
    """sum over term pairs of c_a * c_b * (frame_fa x^ea  op  frame_fb x^eb).

    ``rule(fa, fb)`` gives the integer result of the bilinear operation on
    unit frames as a tuple of ``(merged, sign, i, side)`` entries, cached
    per frame pair (at most 4^n pairs for n variables):
    ``sign * frame_merged * x^(ea + eb)``, times ``eb[i]`` and with
    ``x_i`` removed when ``side`` is 1 (d/dx_i of the right monomial), or
    ``ea[i]`` when ``side`` is 0; ``i`` is None for no derivative.  Products
    of coefficients accumulate in one exponent dict per merged frame with
    ``add_term``; no intermediate ``Poly`` is built.
    """
    acc = {}
    for fa, pa in A.c.items():
        for fb, pb in B.c.items():
            for merged, sign, i, side in rule(fa, fb):
                terms = acc.setdefault(merged, {})
                for ea, ca in pa.c.items():
                    for eb, cb in pb.c.items():
                        if i is None:
                            add_term(terms, tuple(map(add, ea, eb)), sign * (ca * cb))
                            continue
                        m = eb[i] if side else ea[i]
                        if not m:
                            continue
                        e = list(map(add, ea, eb))
                        e[i] -= 1
                        add_term(terms, tuple(e), (sign * m) * (ca * cb))
    out = cls(A.nvars, k)
    for merged, terms in acc.items():
        if terms:
            p = Poly.zero(A.nvars)
            p.c = terms
            out.c[merged] = p
    return out


@cache
def _wedge_rule(fa, fb):
    ms = _merge_sign(fa, fb)
    return () if ms is None else ((ms[1], ms[0], None, 0),)


# -- Schouten bracket via the odd-symbol encoding ------------------------------

@cache
def _schouten_rule(ka, kb):
    """Unit-frame entries of [frame_ka x^ea, frame_kb x^eb] for ``_monomial_pairs``.

    The first half is sum_i (odd derivative of the left frame by frame_i)
    wedge (d/dx_i of the right monomial); the second half swaps the roles.
    """
    # sa: the (-1)^(a-1) of the first half; sw: the swap
    # (d_ksi B)^(d_x A) -> (d_x A)^(d_ksi B), degrees (b-1) and a
    sa = -1 if (len(ka) - 1) % 2 else 1
    sw = -1 if ((len(kb) - 1) * len(ka)) % 2 else 1
    out = []
    for left, right, outer, side in ((ka, kb, sa, 1), (kb, ka, -sw, 0)):
        for pos, i in enumerate(left):
            ms = _merge_sign(left[:pos] + left[pos + 1 :], right)
            if ms is None:
                continue
            sign, merged = ms
            out.append((merged, outer * (-sign if pos % 2 else sign), i, side))
    return tuple(out)


def schouten(A, B):
    """The multivector bracket.

    [A, B] = (-1)^(a-1) sum_i (d_frame_i A) ^ (d_x_i B)
                      -  sum_i (d_x_i A) ^ (d_frame_i B)

    with a = exterior degree of A.  The sign placement is pinned by the
    test battery: restriction to vector fields is the Lie derivative,
    functions bracket to zero, the shifted grading makes it a graded Lie
    bracket, and it is an odd derivation of the wedge.  Those four facts
    determine it uniquely among the sign variants of this formula shape.
    """
    if A.nvars != B.nvars:
        raise ValueError("variable counts differ")
    if A.k == 0 and B.k == 0:
        return MultiVector.zero(A.nvars, 0)
    return _monomial_pairs(A, B, _schouten_rule, MultiVector, A.k + B.k - 1)


def jacobiator(pi):
    """(1/2)[pi, pi] for a bivector: the trivector obstructing Jacobi.

    Normalized so that pairing it against df ^ dg ^ dh gives exactly the
    cyclic sum {f,{g,h}} + {g,{h,f}} + {h,{f,g}}.
    """
    if pi.k != 2:
        raise ValueError("jacobiator takes a bivector")
    return Fraction(1, 2) * schouten(pi, pi)


def poisson_bracket(pi, f, g):
    """{f, g} = <pi, df ^ dg>."""
    if pi.k != 2:
        raise ValueError("poisson_bracket takes a bivector")
    return pairing(pi, deRham_d(Form.function(f)).wedge(deRham_d(Form.function(g))))


# -- Cartan calculus on forms -----------------------------------------------------

def deRham_d(alpha):
    n = alpha.nvars
    out = Form(n, alpha.k + 1)
    for key, p in alpha.c.items():
        for i in range(n):
            dp = p.diff(i)
            if not dp:
                continue
            ms = _merge_sign((i,), key)
            if ms is None:
                continue
            sign, merged = ms
            add_term(out.c, merged, sign * dp)
    return out


def contract(mv, alpha):
    """i_mv with i_{X^Y} = i_X o i_Y and first-slot single insertions."""
    if mv.nvars != alpha.nvars:
        raise ValueError("variable counts differ")
    n = mv.nvars
    if mv.k > alpha.k:
        return Form.zero(n, 0)
    out = Form(n, alpha.k - mv.k)
    for kv, pv in mv.c.items():
        for kf, pf in alpha.c.items():
            sign = 1
            key = kf
            dead = False
            for i in reversed(kv):  # innermost factor inserts first
                rem = _remove_index(key, i)
                if rem is None:
                    dead = True
                    break
                s, key = rem
                sign *= s
            if dead:
                continue
            add_term(out.c, key, sign * (pv * pf))
    return out


def lie_derivative(mv, alpha):
    """L = d i - (-1)^k i d for a degree-k multivector."""
    first = deRham_d(contract(mv, alpha))
    second = contract(mv, deRham_d(alpha))
    if mv.k % 2:
        return first + second
    return first - second


# -- bridges to the operator world -------------------------------------------------

def hkr(mv):
    """The multidifferential operator (a_1..a_k) -> <mv, da_1 ^ .. ^ da_k>.

    Expands the determinant pairing: each increasing tuple I contributes
    sum over permutations sigma of sgn(sigma) * c_I * prod d_{i_sigma(b)}.
    A 0-vector becomes the arity-0 cochain (the function itself).
    """
    n = mv.nvars
    k = mv.k
    if k == 0:
        return PolyDiffOperator.element(mv.c.get((), Poly.zero(n)))
    terms = {}
    for key, p in mv.c.items():
        for perm in permutations(range(k)):
            inv = sum(
                1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
            )
            sgn = -1 if inv % 2 else 1
            tkey = []
            for b in range(k):
                e = [0] * n
                e[key[perm[b]]] = 1
                tkey.append(tuple(e))
            add_term(terms, tuple(tkey), sgn * p)
    op = PolyDiffOperator(n, k)
    op.terms = terms
    return op


def connes_mu(entries):
    """(1/n!) a_0 da_1 ^ .. ^ da_n for a list of polynomial tensor factors."""
    if not entries:
        raise ValueError("need at least the degree-0 entry")
    n = len(entries) - 1
    out = Form.function(entries[0])
    for a in entries[1:]:
        out = out.wedge(deRham_d(Form.function(a)))
    return Fraction(1, factorial(n)) * out


def connes_mu_chain(model, ch):
    """Apply connes_mu to every tensor term of a chain over the capped model.

    Faithful as long as the total degree of each term stays at or below the
    cap (no truncation ever fires on the samples used).
    """
    nv = model.nvars
    total = Form.zero(nv, ch.n) if ch.n else Form.zero(nv, 0)
    for tup, coeff in ch.c.items():
        entries = [model.basis_poly(i) for i in tup]
        total = total + coeff * connes_mu(entries)
    return total
