"""Polynomial multivector fields and differential forms with exact calculus.

Multivectors are encoded as polynomials in even coordinates and odd frame
symbols.  A degree-k field or form is stored flat, as a dict from
(frame, exponent) pairs to nonzero exact scalars: the frame is a strictly
increasing index tuple (i_1 < .. < i_k), and c[(I, e)] is the coefficient
of x^e frame_I.  Sums, multiples and every operator below accumulate
scalars straight into such a dict; ``wedge_into`` and ``schouten_into``
accumulate into one the caller owns, so a checker can sum signed products
and brackets without building any of them.  ``Poly`` appears only at the edge: the
constructor takes one coefficient per frame, ``function`` takes one, and
``pairing`` and the coefficients of ``hkr`` are ``Poly``s.

The bracket of multivectors is the canonical odd Poisson bracket of that
encoding; the four axioms it must satisfy (vector-field case = Lie
derivative, functions bracket to zero, shifted graded Lie, odd Leibniz over
the wedge) are enforced by the test suite rather than hand-threaded signs.

Everything is computed on honest polynomials -- no degree cap -- because
partial derivatives do not descend to the capped quotient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import combinations, permutations
from math import factorial
from operator import add

from .core.basis import Sparse, add_term
from .core.signs import koszul_sign
from .poly import Poly, monomials_upto
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


class _Exterior(Sparse):
    """Shared shape of multivectors and forms: graded, exterior, sparse.

    ``c`` is flat: ``c[(frame, e)]`` is the nonzero scalar coefficient of
    x^e frame, with no stored zeros (``core.basis.add_term``).
    """

    __slots__ = ("nvars", "k", "c")
    _space = ("nvars", "k")

    def __init__(self, nvars, k, coeffs=None):
        """``coeffs`` maps each frame to a ``Poly`` or an exact scalar."""
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
                elif p.n != nvars:
                    raise ValueError(f"coefficient of {key!r} is in {p.n} variables, not {nvars}")
                for e, v in p.c.items():
                    add_term(self.c, (key, e), v)

    @classmethod
    def zero(cls, nvars, k):
        return cls(nvars, k)

    @classmethod
    def function(cls, poly):
        return cls(poly.n, 0, {(): poly})

    @classmethod
    def maker(cls, nvars):
        """``(k, c) ->`` the degree-k element of this class in ``nvars``
        variables whose flat dict is ``c``, taken over unchecked: how a
        checker turns what ``wedge_into``/``schouten_into`` accumulated into
        an element."""
        return partial(_make, cls, nvars)

    def _same(self, other):
        """A zero of any degree (over-contracting gives degree 0) adds to
        anything: a sum lies in the space of its nonzero arguments."""
        if type(self) is not type(other) or self.nvars != other.nvars:
            raise ValueError("mismatched exterior elements")
        if not self.c:
            return other
        if other.c and other.k != self.k:
            raise ValueError("mismatched exterior elements")
        return self

    def __rmul__(self, scalar):
        if not isinstance(scalar, Poly):
            return Sparse.__rmul__(self, scalar)
        if scalar.n != self.nvars:
            raise ValueError("variable counts differ")
        # the function as a degree-0 element: its multiple is a wedge
        f = _make(type(self), self.nvars, 0, {((), e): v for e, v in scalar.c.items()})
        c = {}
        wedge_into(c, f, self, 1)
        return self._like(c)

    def wedge(self, other):
        if type(self) is not type(other) or self.nvars != other.nvars:
            raise ValueError("mismatched wedge factors")
        acc = {}
        wedge_into(acc, self, other, 1)
        return _make(type(self), self.nvars, self.k + other.k, acc)

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, {len(self.c)} terms)"


_new = object.__new__


def _make(cls, nvars, k, c):
    """The degree-k element of ``cls`` whose flat dict is ``c``, unchecked."""
    out = _new(cls)
    out.nvars = nvars
    out.k = k
    out.c = c
    return out


class MultiVector(_Exterior):
    """Sum of c_I(x) * frame_I with I strictly increasing; k = |I|."""


class Form(_Exterior):
    """Sum of c_I(x) * dx^I with I strictly increasing."""


def frame_monomials(nvars, degrees, cap):
    """The (frame, exponent) keys of the monomial basis of multivectors or
    forms: each strictly increasing frame of each degree in ``degrees``,
    in order, times each exponent of total degree at most ``cap``."""
    exponents = monomials_upto(nvars, cap)
    for k in degrees:
        for key in combinations(range(nvars), k):
            for e in exponents:
                yield key, e


def pairing(mv, form):
    """<frame_I, dx^J> = delta_IJ on increasing tuples (determinant rule)."""
    if not isinstance(mv, MultiVector) or not isinstance(form, Form):
        raise TypeError("pairing takes (MultiVector, Form)")
    if mv.nvars != form.nvars or mv.k != form.k:
        raise ValueError("mismatched pairing")
    total = {}
    fitems = form.c.items()
    for (key, ea), ca in mv.c.items():
        for (kb, eb), cb in fitems:
            if kb == key:
                add_term(total, tuple(map(add, ea, eb)), ca * cb)
    p = Poly.zero(mv.nvars)
    p.c = total
    return p


# -- the monomial-pair kernel of wedge, Schouten and contraction ------------------

def _monomial_pairs(acc, A, B, rule, sign):
    """Accumulate sign * sum over term pairs of
    c_a * c_b * (frame_fa x^ea  op  frame_fb x^eb) into the flat dict ``acc``.

    ``rule(fa, fb)`` gives the integer result of the bilinear operation on
    unit frames as a tuple of ``(merged, w, i, side)`` entries, cached per
    frame pair (at most 4^n pairs for n variables): ``w * frame_merged *
    x^(ea + eb)``, times ``eb[i]`` and with ``x_i`` removed when ``side`` is
    1 (d/dx_i of the right monomial), or ``ea[i]`` when ``side`` is 0; ``i``
    is None for no derivative.  Products of coefficients accumulate with
    ``add_term``, so a sum that cancels leaves no stored zero.  ``c_a * c_b``
    is built once per term pair, negated for a weight of -1 and multiplied
    only by a weight other than 1 and -1.
    """
    bitems = B.c.items()
    for (fa, ea), ca in A.c.items():
        for (fb, eb), cb in bitems:
            entries = rule(fa, fb)
            if not entries:
                continue
            c = ca * cb
            for merged, w, i, side in entries:
                if i is None:
                    e = tuple(map(add, ea, eb))
                else:
                    m = eb[i] if side else ea[i]
                    if not m:
                        continue
                    e = list(map(add, ea, eb))
                    e[i] -= 1
                    e = tuple(e)
                    w *= m
                w *= sign
                add_term(acc, (merged, e), c if w == 1 else -c if w == -1 else w * c)


def wedge_into(acc, A, B, sign):
    """Accumulate ``sign * (A ^ B)`` into the flat dict ``acc``."""
    _monomial_pairs(acc, A, B, _wedge_rule, sign)


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


def schouten_into(acc, A, B, sign):
    """Accumulate ``sign * [A, B]`` into the flat dict ``acc``.  Two
    functions bracket to zero: when both degrees are 0 nothing is written."""
    if A.k or B.k:
        _monomial_pairs(acc, A, B, _schouten_rule, sign)


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
    acc = {}
    schouten_into(acc, A, B, 1)
    return _make(MultiVector, A.nvars, max(A.k + B.k - 1, 0), acc)


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
    c = {}
    for (key, e), v in alpha.c.items():
        for i, m in enumerate(e):
            if not m:
                continue
            for merged, sign, _, _ in _wedge_rule((i,), key):
                de = list(e)
                de[i] -= 1
                add_term(c, (merged, tuple(de)), (sign * m) * v)
    return _make(Form, alpha.nvars, alpha.k + 1, c)


@cache
def _contract_rule(kv, kf):
    """Unit-frame entry of i_frame_kv on dx^kf for ``_monomial_pairs``.

    With dx^kf = s * dx^kv ^ dx^rest, inserting the k factors of frame_kv
    innermost first (i_{X^Y} = i_X o i_Y, first-slot single insertions)
    gives (-1)^(k(k-1)/2) * s * dx^rest; nothing when kv is not in kf.
    """
    if not set(kv) <= set(kf):
        return ()
    rest = tuple(i for i in kf if i not in kv)
    k = len(kv)
    s = _merge_sign(kv, rest)[0]
    return ((rest, -s if k * (k - 1) // 2 % 2 else s, None, 0),)


def contract(mv, alpha):
    """i_mv with i_{X^Y} = i_X o i_Y and first-slot single insertions."""
    if mv.nvars != alpha.nvars:
        raise ValueError("variable counts differ")
    n = mv.nvars
    if mv.k > alpha.k:
        return Form.zero(n, 0)
    c = {}
    _monomial_pairs(c, mv, alpha, _contract_rule, 1)
    return _make(Form, n, alpha.k - mv.k, c)


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
    polys = {}
    for (key, e), v in mv.c.items():
        if key not in polys:
            polys[key] = Poly.zero(n)
        polys[key].c[e] = v
    if k == 0:
        return PolyDiffOperator.element(polys.get((), Poly.zero(n)))
    terms = {}
    for key, p in polys.items():
        for perm in permutations(range(k)):
            sgn = koszul_sign(perm, (1,) * k)
            tkey = []
            for b in range(k):
                e = [0] * n
                e[key[perm[b]]] = 1
                tkey.append(tuple(e))
            add_term(terms, tuple(tkey), sgn * p)
    op = PolyDiffOperator(n, k)
    op.c = terms
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
    total = Form.zero(nv, ch.n)
    for tup, coeff in ch.c.items():
        entries = [model.basis_poly(i) for i in tup]
        total = total + coeff * connes_mu(entries)
    return total
