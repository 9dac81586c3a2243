"""The shared accumulate-and-drop-zeros helper, the monomial-pair kernel and
the flat (frame, exponent) storage of multivectors and forms, against the
code they replaced.

The nested storage comes first: ``_NestedExterior`` with ``NestedMultiVector``
and ``NestedForm``, and ``nested_pairing``, ``_nested_monomial_pairs``,
``nested_schouten``, ``nested_deRham_d``, ``nested_contract``,
``nested_lie_derivative`` and ``nested_hkr``.  They are ``cartan``'s
``_Exterior`` arithmetic and operators from when a field was a dict
``{frame: Poly}``, their bodies verbatim apart from the ``Nested`` and
``nested_`` names; the frame rules are the package's, except
``_remove_index``, the frame-sign helper of the contraction before it was
a kernel rule, which ``parent_exterior`` keeps.  ``_nested`` rebuilds
a flat element as ``{frame: Poly}`` with its scalars untouched; every
reference below runs on its output, and the comparisons with the older
bodies read the flat shape only through it.

The ``_parent_*`` functions and ``_half_bracket`` below are the bodies of
``Poly.__add__``, ``Poly.__mul__``, ``_Exterior.__add__``,
``_Exterior.wedge``, ``cartan._half_bracket`` and ``cartan.schouten``
from before ``core.basis.add_term``, kept verbatim as the reference: each
writes its own get/add/pop loop (the polynomial ones check their variable
counts through ``parent_vector_ops._poly_check``, the body of the
``Poly._check`` they called).  Inside ``_parent_arithmetic()`` the
polynomial and nested exterior sums and products run on those bodies, so
the reference never touches ``core.basis.add_term``.  On seeded inputs with
exact cancellations the current code must give the same coefficient dicts.
Scalars are compared by value; each is an ``int`` or a ``Fraction``
(``core.basis.rational`` never returns ``Fraction(n, 1)``, but a product
such as ``Fraction(1, 2) * 2`` may store one).  The scalars 1 and -1,
which copy or negate coefficients instead of multiplying them, are held to
the general product the same way.

The ``_poly_product_*`` functions are the wedge and Schouten bodies from
just before the monomial-pair kernel, verbatim: every monomial pair goes
through ``Poly.__mul__`` and ``Poly.diff``.  They are the kernel's oracle.

The frame rules of the kernel and of ``contract`` are cached per frame
pair; their uncached bodies (``__wrapped__``) are the reference for the
cached ones.

``_built_monomial_pairs``, ``_built_wedge`` and ``_built_schouten`` are the
kernel, the wedge and the bracket from before the accumulating
``wedge_into`` and ``schouten_into``, verbatim apart from the names.  For
signs 1, -1, 2 and -2, into an empty dict and into one that already holds
terms, the accumulating kernels must add the same values, with no stored
zero.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from operator import add

from formality_lab import cartan
from formality_lab.cartan import (
    Form,
    MultiVector,
    _merge_sign,
    _schouten_rule,
    _wedge_rule,
)
from formality_lab.core.basis import add_term, rational
from formality_lab.poly import Poly
from formality_lab.polydiff import PolyDiffOperator
from parent_exterior import _remove_index
from parent_vector_ops import _poly_check, patched
from shared_tools import random_scalar, unit_frames

NV = 3


# -- reference: the nested {frame: Poly} storage, verbatim ----------------------

class _NestedExterior:
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
        return _nested_monomial_pairs(self, other, _wedge_rule, type(self), self.k + other.k)

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, {len(self.c)} terms)"


class NestedMultiVector(_NestedExterior):
    """Sum of c_I(x) * frame_I with I strictly increasing; k = |I|."""

    @classmethod
    def function(cls, poly):
        return cls(poly.n, 0, {(): poly})


class NestedForm(_NestedExterior):
    """Sum of c_I(x) * dx^I with I strictly increasing."""

    @classmethod
    def function(cls, poly):
        return cls(poly.n, 0, {(): poly})


def nested_pairing(mv, form):
    """<frame_I, dx^J> = delta_IJ on increasing tuples (determinant rule)."""
    if not isinstance(mv, NestedMultiVector) or not isinstance(form, NestedForm):
        raise TypeError("pairing takes (MultiVector, Form)")
    if mv.nvars != form.nvars or mv.k != form.k:
        raise ValueError("mismatched pairing")
    total = Poly.zero(mv.nvars)
    for key, p in mv.c.items():
        q = form.c.get(key)
        if q is not None:
            total = total + p * q
    return total


def _nested_monomial_pairs(A, B, rule, cls, k):
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


def nested_schouten(A, B):
    if A.nvars != B.nvars:
        raise ValueError("variable counts differ")
    if A.k == 0 and B.k == 0:
        return NestedMultiVector.zero(A.nvars, 0)
    return _nested_monomial_pairs(A, B, _schouten_rule, NestedMultiVector, A.k + B.k - 1)


def nested_deRham_d(alpha):
    n = alpha.nvars
    out = NestedForm(n, alpha.k + 1)
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


def nested_contract(mv, alpha):
    """i_mv with i_{X^Y} = i_X o i_Y and first-slot single insertions."""
    if mv.nvars != alpha.nvars:
        raise ValueError("variable counts differ")
    n = mv.nvars
    if mv.k > alpha.k:
        return NestedForm.zero(n, 0)
    out = NestedForm(n, alpha.k - mv.k)
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


def nested_lie_derivative(mv, alpha):
    """L = d i - (-1)^k i d for a degree-k multivector."""
    first = nested_deRham_d(nested_contract(mv, alpha))
    second = nested_contract(mv, nested_deRham_d(alpha))
    if mv.k % 2:
        return first + second
    return first - second


def nested_hkr(mv):
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
    op.c = terms
    return op


def _nested(x):
    """The flat element ``x`` in the nested shape: one ``Poly`` per frame, frames
    and exponents in the order of the flat dict, scalars as stored."""
    cls = NestedMultiVector if isinstance(x, MultiVector) else NestedForm
    out = cls(x.nvars, x.k)
    for (key, e), v in x.c.items():
        if key not in out.c:
            out.c[key] = Poly.zero(x.nvars)
        out.c[key].c[e] = v
    return out


# -- reference: the previous bodies, verbatim ----------------------------------

def _parent_poly_add(self, other):
    _poly_check(self, other)
    out = dict(self.c)
    for e, v in other.c.items():
        w = out.get(e, Fraction(0)) + v
        if w:
            out[e] = w
        else:
            out.pop(e, None)
    p = Poly.zero(self.n)
    p.c = out
    return p


def _parent_poly_mul(self, other):
    if isinstance(other, (int, Fraction)):
        return self.__rmul__(other)
    _poly_check(self, other)
    out = {}
    for e1, v1 in self.c.items():
        for e2, v2 in other.c.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            w = out.get(e, Fraction(0)) + v1 * v2
            if w:
                out[e] = w
            else:
                out.pop(e, None)
    p = Poly.zero(self.n)
    p.c = out
    return p


def _parent_exterior_add(self, other):
    # a zero element is degree-agnostic: over-contracting produces
    # degree-0 zeros that must still combine with honest degrees
    if self.k != other.k:
        if self.is_zero() and type(self) is type(other) and self.nvars == other.nvars:
            out = type(other)(other.nvars, other.k)
            out.c = dict(other.c)
            return out
        if other.is_zero() and type(self) is type(other) and self.nvars == other.nvars:
            out = type(self)(self.nvars, self.k)
            out.c = dict(self.c)
            return out
    self._check(other)
    out = type(self)(self.nvars, self.k)
    out.c = dict(self.c)
    for key, p in other.c.items():
        q = out.c.get(key)
        s = p if q is None else q + p
        if s.is_zero():
            out.c.pop(key, None)
        else:
            out.c[key] = s
    return out


def _parent_wedge(self, other):
    if type(self) is not type(other) or self.nvars != other.nvars:
        raise ValueError("mismatched wedge factors")
    out = type(self)(self.nvars, self.k + other.k)
    for ka, pa in self.c.items():
        for kb, pb in other.c.items():
            ms = _merge_sign(ka, kb)
            if ms is None:
                continue
            sign, merged = ms
            term = sign * (pa * pb)
            if term.is_zero():
                continue
            q = out.c.get(merged)
            s = term if q is None else q + term
            if s.is_zero():
                out.c.pop(merged, None)
            else:
                out.c[merged] = s
    return out


def _half_bracket(A, B):
    """sum_i (odd derivative of A by frame_i) wedge (d/dx_i of B's coefficients)."""
    n = A.nvars
    out = NestedMultiVector(n, A.k + B.k - 1)
    for i in range(n):
        for ka, pa in A.c.items():
            rem = _remove_index(ka, i)
            if rem is None:
                continue
            sa, ka2 = rem
            for kb, pb in B.c.items():
                dpb = pb.diff(i)
                if dpb.is_zero():
                    continue
                ms = _merge_sign(ka2, kb)
                if ms is None:
                    continue
                sign, merged = ms
                term = (sa * sign) * (pa * dpb)
                if term.is_zero():
                    continue
                q = out.c.get(merged)
                s = term if q is None else q + term
                if s.is_zero():
                    out.c.pop(merged, None)
                else:
                    out.c[merged] = s
    return out


def _poly_product_wedge(self, other):
    if type(self) is not type(other) or self.nvars != other.nvars:
        raise ValueError("mismatched wedge factors")
    out = type(self)(self.nvars, self.k + other.k)
    for ka, pa in self.c.items():
        for kb, pb in other.c.items():
            ms = _merge_sign(ka, kb)
            if ms is None:
                continue
            sign, merged = ms
            add_term(out.c, merged, sign * (pa * pb))
    return out


def _poly_product_half_bracket(A, B):
    """sum_i (odd derivative of A by frame_i) wedge (d/dx_i of B's coefficients)."""
    n = A.nvars
    out = NestedMultiVector(n, A.k + B.k - 1)
    for i in range(n):
        for ka, pa in A.c.items():
            rem = _remove_index(ka, i)
            if rem is None:
                continue
            sa, ka2 = rem
            for kb, pb in B.c.items():
                dpb = pb.diff(i)
                if not dpb:
                    continue
                ms = _merge_sign(ka2, kb)
                if ms is None:
                    continue
                sign, merged = ms
                add_term(out.c, merged, (sa * sign) * (pa * dpb))
    return out


def _poly_product_schouten(A, B):
    if A.nvars != B.nvars:
        raise ValueError("variable counts differ")
    if A.k == 0 and B.k == 0:
        return NestedMultiVector.zero(A.nvars, 0)
    first = _poly_product_half_bracket(A, B)
    second = _poly_product_half_bracket(B, A)
    # second term rewritten: sum_i (d_x_i A)^(d_frame_i B) equals
    # (-1)^((a-1)(b-1)) * _half_bracket(B, A) up to the factor-swap sign,
    # so work directly with the two raw halves and calibrated signs.
    sa = -1 if (A.k - 1) % 2 else 1
    # swap (d_ksi B)^(d_x A) -> (d_x A)^(d_ksi B): degrees (B.k-1) and A.k
    sw = -1 if ((B.k - 1) * A.k) % 2 else 1
    return sa * first - sw * second


def _parent_schouten(A, B):
    if A.nvars != B.nvars:
        raise ValueError("variable counts differ")
    if A.k == 0 and B.k == 0:
        return NestedMultiVector.zero(A.nvars, 0)
    first = _half_bracket(A, B)
    second = _half_bracket(B, A)
    # second term rewritten: sum_i (d_x_i A)^(d_frame_i B) equals
    # (-1)^((a-1)(b-1)) * _half_bracket(B, A) up to the factor-swap sign,
    # so work directly with the two raw halves and calibrated signs.
    sa = -1 if (A.k - 1) % 2 else 1
    # swap (d_ksi B)^(d_x A) -> (d_x A)^(d_ksi B): degrees (B.k-1) and A.k
    sw = -1 if ((B.k - 1) * A.k) % 2 else 1
    return sa * first - sw * second


def _parent_arithmetic():
    return patched({
        Poly: {"__add__": _parent_poly_add, "__mul__": _parent_poly_mul},
        _NestedExterior: {"__add__": _parent_exterior_add},
    })


# -- seeded inputs ---------------------------------------------------------------

def _coeff(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _poly(rng, nterms=5):
    return Poly(NV, {
        tuple(rng.randint(0, 2) for _ in range(NV)): _coeff(rng)
        for _ in range(nterms)
    })


def _partial_negation(rng, p):
    """Some of -p's terms plus a little noise: cancels part of p when added."""
    kept = {e: -v for e, v in p.c.items() if rng.random() < 0.6}
    return Poly(NV, kept) + _poly(rng, 2)


def _exterior(rng, cls, k, nterms=3):
    keys = list(combinations(range(NV), k))
    return cls(NV, k, {rng.choice(keys): _poly(rng, 3) for _ in range(nterms)})


def _poly_pairs(rng, count):
    for _ in range(count):
        a, b = _poly(rng), _poly(rng)
        yield a, _partial_negation(rng, a)
        yield a + b, a - b  # cross terms cancel in the product
        yield a, b


def _assert_same_poly(new, old):
    assert type(new) is Poly and type(old) is Poly
    assert new.c == old.c
    assert all(type(v) in (int, Fraction) for v in new.c.values())


def _assert_same_exterior(new, old):
    assert type(new) is type(old)
    assert (new.nvars, new.k) == (old.nvars, old.k)
    assert new.c.keys() == old.c.keys()
    for key, p in new.c.items():
        assert p  # no stored zero polynomial
        _assert_same_poly(p, old.c[key])


# -- the comparisons -------------------------------------------------------------

def test_poly_sum_and_product_match_reference():
    rng = random.Random(20260)
    pairs = list(_poly_pairs(rng, 120))
    new = [(a + b, a * b, a + (-a)) for a, b in pairs]
    with _parent_arithmetic():
        old = [(a + b, a * b, a + (-a)) for a, b in pairs]
    for (s, p, z), (s0, p0, z0) in zip(new, old):
        _assert_same_poly(s, s0)
        _assert_same_poly(p, p0)
        _assert_same_poly(z, z0)
        assert not z.c
    # the inputs do exercise cancellation in the sums
    cancelled = sum(len(s.c) < len(a.c.keys() | b.c.keys()) for (a, b), (s, _, _) in zip(pairs, new))
    assert cancelled >= len(pairs) // 4


def test_wedge_matches_reference():
    rng = random.Random(20261)
    cases = []
    for _ in range(60):
        alpha = _exterior(rng, Form, 1)
        cases.append((alpha, alpha))  # alpha ^ alpha = 0 for a 1-form
        beta = alpha + _exterior(rng, Form, 1, 1)
        cases.append((alpha, beta))
        ka, kb = rng.randint(0, 2), rng.randint(0, 2)
        cases.append((_exterior(rng, MultiVector, ka), _exterior(rng, MultiVector, kb)))
    new = [a.wedge(b) for a, b in cases]
    with _parent_arithmetic():
        old = [_parent_wedge(_nested(a), _nested(b)) for a, b in cases]
    for n, o in zip(new, old):
        _assert_same_exterior(_nested(n), o)
    assert not new[0].c


def test_schouten_matches_reference():
    rng = random.Random(20262)
    one = Poly.const(NV, 1)
    pi = MultiVector(NV, 2, {(0, 1): one, (1, 2): Fraction(1, 2) * one})
    cases = [(pi, pi)]  # a constant bivector is Poisson
    for _ in range(40):
        X = _exterior(rng, MultiVector, 1)
        cases.append((X, X))  # [X, X] = 0 for a vector field
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        cases.append((_exterior(rng, MultiVector, ka), _exterior(rng, MultiVector, kb)))
    new = [cartan.schouten(a, b) for a, b in cases]
    with _parent_arithmetic():
        old = [_parent_schouten(_nested(a), _nested(b)) for a, b in cases]
    for n, o in zip(new, old):
        _assert_same_exterior(_nested(n), o)
    assert not new[0].c and not new[1].c


# -- the unit scalars ------------------------------------------------------------

def _scaled_by_multiplying(x, v):
    """The general scalar path: every coefficient times the Fraction v."""
    v = Fraction(v)
    if isinstance(x, Poly):
        p = Poly.zero(x.n)
        p.c = {e: v * w for e, w in x.c.items()}
        return p
    out = type(x)(x.nvars, x.k)
    out.c = {key: _scaled_by_multiplying(p, v) for key, p in x.c.items()}
    return out


def _snapshot(x):
    if isinstance(x, Poly):
        return dict(x.c)
    return {key: dict(p.c) for key, p in _nested(x).c.items()}


def test_unit_scalars_match_the_general_product():
    # 1 and -1 copy or negate the coefficients instead of multiplying them
    rng = random.Random(20263)
    samples = [_poly(rng) for _ in range(30)]
    for cls in (MultiVector, Form):
        samples += [_exterior(rng, cls, rng.randint(0, 3)) for _ in range(15)]
    assert all(x.c for x in samples)
    for x in samples:
        before = _snapshot(x)
        for s in (1, -1, Fraction(1), Fraction(-1)):
            y = s * x
            if isinstance(x, Poly):
                want = _scaled_by_multiplying(x, s)
                _assert_same_poly(y, want)
                _assert_same_poly(x * s, want)
            else:
                _assert_same_exterior(_nested(y), _scaled_by_multiplying(_nested(x), s))
            # the result owns its coefficient dict
            assert y.c is not x.c
            y.c.clear()
            assert _snapshot(x) == before


# -- the monomial-pair kernel against the Poly-product bodies ----------------------

def _mixed_coeff(rng):
    """An int or a Fraction, about half each, zero included."""
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _mixed_exterior(rng, cls, n, k, nterms=3):
    keys = list(combinations(range(n), k))
    coeffs = {}
    for _ in range(nterms):
        coeffs[rng.choice(keys)] = Poly(n, {
            tuple(rng.randint(0, 2) for _ in range(n)): _mixed_coeff(rng)
            for _ in range(3)
        })
    return cls(n, k, coeffs)


def _kernel_cases(rng, cls):
    """Seeded operand pairs in 1 to 4 variables, with cancelling pairs."""
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(12):
            ka, kb = rng.randint(0, n), rng.randint(0, n)
            a = _mixed_exterior(rng, cls, n, ka)
            b = _mixed_exterior(rng, cls, n, kb)
            cases.append((a, b))
            c = _mixed_exterior(rng, cls, n, ka)
            cases.append((a + c, a - c))
            x = _mixed_exterior(rng, cls, n, 1)
            cases.append((x, x))
            cases.append((_mixed_exterior(rng, cls, n, 0), _mixed_exterior(rng, cls, n, 0)))
    return cases


def test_kernel_wedge_matches_poly_product_wedge():
    rng = random.Random(20264)
    for cls in (Form, MultiVector):
        cases = _kernel_cases(rng, cls)
        for a, b in cases:
            _assert_same_exterior(
                _nested(a.wedge(b)), _poly_product_wedge(_nested(a), _nested(b))
            )
        # alpha ^ alpha = 0 for 1-forms and vector fields
        assert all(not a.wedge(b) for a, b in cases if a is b)


def test_kernel_schouten_matches_poly_product_schouten():
    rng = random.Random(20265)
    cases = _kernel_cases(rng, MultiVector)
    assert any(a.k == 0 and b.k == 0 and a and b for a, b in cases)
    for a, b in cases:
        got = cartan.schouten(a, b)
        _assert_same_exterior(
            _nested(got), _poly_product_schouten(_nested(a), _nested(b))
        )
        if a.k == 0 and b.k == 0:
            assert not got  # functions bracket to zero
        if a is b:
            assert not got  # [X, X] = 0 for a vector field
    # mixed int and Fraction coefficients did reach the kernel
    values = [
        v for a, b in cases for x in (a, b) for p in _nested(x).c.values() for v in p.c.values()
    ]
    assert {int, Fraction} <= {type(v) for v in values}


# -- the memoized frame rules ----------------------------------------------------

def test_frame_rules_equal_their_uncached_bodies():
    for n in range(1, 5):
        for fa in unit_frames(n):
            for fb in unit_frames(n):
                for rule in (cartan._wedge_rule, cartan._schouten_rule):
                    got = rule(fa, fb)
                    assert type(got) is tuple
                    assert got == rule.__wrapped__(fa, fb)
                got = cartan._contract_rule(fa, fb)
                assert got is None or type(got) is tuple
                assert got == cartan._contract_rule.__wrapped__(fa, fb)


def test_kernel_gives_the_same_results_after_the_rule_caches_clear():
    rng = random.Random(20266)
    cases = _kernel_cases(rng, MultiVector)

    def sweep():
        return [(a.wedge(b), cartan.schouten(a, b)) for a, b in cases]

    warm = sweep()
    cartan._wedge_rule.cache_clear()
    cartan._schouten_rule.cache_clear()
    cold = sweep()
    assert cartan._schouten_rule.cache_info().currsize > 0
    for (w, s), (w0, s0) in zip(cold, warm):
        _assert_same_exterior(_nested(w), _nested(w0))
        _assert_same_exterior(_nested(s), _nested(s0))


# -- the flat storage against the nested one ---------------------------------------
#
# A sum's scalar type can depend on the order of its terms when a partial sum
# cancels to zero: Fraction(1, 2) + Fraction(-1, 2) + 1 is the int 1, while
# 1 + Fraction(1, 2) + Fraction(-1, 2) is Fraction(1, 1).  The sums,
# negation, scalar and Poly multiples and ``hkr`` add every coefficient's
# terms in the nested order, and so do ``wedge`` and ``deRham_d`` when each
# input's frames are contiguous in its dict (the constructor writes them so):
# these are held to the same scalar type at every (frame, exponent).  The
# Schouten bracket adds its products in term-pair order rather than
# frame-pair order, and ``contract`` and ``pairing`` no longer sum each
# frame pair's product before adding it, so there an integral coefficient
# may be an int on one side and Fraction(n, 1) on the other; those compare
# by value, with every scalar an int or a Fraction.

def _raw_poly(rng, n, nterms=3):
    """A Poly written straight into its dict, so Fraction(n, 1) scalars stay."""
    p = Poly.zero(n)
    for _ in range(nterms):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        v = random_scalar(rng)
        if v:
            p.c[e] = v
        else:
            p.c.pop(e, None)
    return p


def _element(rng, cls, n, k, nframes=3):
    keys = list(combinations(range(n), k))
    return cls(n, k, {rng.choice(keys): _raw_poly(rng, n) for _ in range(nframes)})


def _grouped(x):
    """``x`` rebuilt frame by frame through the constructor."""
    return type(x)(x.nvars, x.k, _nested(x).c)


def _flat_cases(rng, cls, count=8):
    """Seeded operand pairs in 1 to 4 variables, with cancelling pairs; the
    pairs built by a sum are regrouped, the raw sums come as well."""
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(count):
            ka, kb = rng.randint(0, n), rng.randint(0, n)
            a, b, c = (_element(rng, cls, n, k) for k in (ka, kb, ka))
            cases.append((a, b))
            cases.append((_grouped(a + c), _grouped(a - c)))  # cross terms cancel
            cases.append((a + c, a - c))
            x = _element(rng, cls, n, 1)
            cases.append((x, x))
    return cases


def _assert_flat_matches(new, old, same_types=True):
    """The flat ``new`` against the nested ``old``: same kind and degree, and at
    every (frame, exponent) the same value, with no stored zero."""
    assert all(type(v) in (int, Fraction) and v for v in new.c.values())
    got = _nested(new)
    assert type(got) is type(old)
    assert (got.nvars, got.k) == (old.nvars, old.k)
    assert got.c.keys() == old.c.keys()
    for key, p in got.c.items():
        q = old.c[key]
        assert q and p.c == q.c
        if same_types:
            assert {e: type(v) for e, v in p.c.items()} == {
                e: type(v) for e, v in q.c.items()
            }, key


def _contiguous(x):
    frames = [key for key, _ in x.c]
    return all(a == b or b not in frames[:i] for i, (a, b) in enumerate(zip(frames, frames[1:]), 1))


def test_flat_arithmetic_matches_nested():
    rng = random.Random(20267)
    scalars = (0, 1, -1, 2, Fraction(1), Fraction(-1), Fraction(-2, 3), Fraction(3, 1))
    cancelled = 0
    for cls in (MultiVector, Form):
        for a, b in _flat_cases(rng, cls):
            na, nb = _nested(a), _nested(b)
            _assert_flat_matches(-a, -na)
            for s in scalars:
                _assert_flat_matches(s * a, s * na)
            p = _raw_poly(rng, a.nvars)
            _assert_flat_matches(p * a, p * na)
            _assert_flat_matches(a.__rmul__(p), na.__rmul__(p))
            if a.k == b.k:
                _assert_flat_matches(a + b, na + nb)
                _assert_flat_matches(a - b, na - nb)
                _assert_flat_matches(a - a, na - na)
                cancelled += len((a + b).c) < len(a.c.keys() | b.c.keys())
    assert cancelled >= 20
    # p * (x^2 + x + 1) at x^2 adds 1/2, -1/2, then 1 in the nested order: an
    # int 1; the other order of the loops would store Fraction(1, 1)
    p = Poly.zero(1)
    p.c = {(2,): Fraction(1, 2), (1,): Fraction(-1, 2), (0,): 1}
    for cls in (MultiVector, Form):
        x = cls(1, 0, {(): Poly(1, {(2,): 1, (1,): 1, (0,): 1})})
        _assert_flat_matches(p * x, p * _nested(x))
        assert type((p * x).c[((), (2,))]) is int


def test_flat_kernel_and_calculus_match_nested():
    rng = random.Random(20268)
    for a, b in _flat_cases(rng, MultiVector):
        na, nb = _nested(a), _nested(b)
        grouped = _contiguous(a) and _contiguous(b)
        _assert_flat_matches(a.wedge(b), na.wedge(nb), same_types=grouped)
        _assert_flat_matches(cartan.schouten(a, b), nested_schouten(na, nb), same_types=False)
        got, want = cartan.hkr(a), nested_hkr(na)
        assert got.c == want.c and (got.nvars, got.arity) == (want.nvars, want.arity)
        for t, p in got.c.items():
            assert {e: type(v) for e, v in p.c.items()} == {
                e: type(v) for e, v in want.c[t].c.items()
            }
        n = a.nvars
        for k in range(n + 1):
            alpha = _element(rng, Form, n, k)
            for x in (alpha, alpha + _element(rng, Form, n, k)):
                nx = _nested(x)
                _assert_flat_matches(
                    cartan.contract(a, x), nested_contract(na, nx), same_types=False
                )
                _assert_flat_matches(
                    cartan.lie_derivative(a, x), nested_lie_derivative(na, nx), same_types=False
                )
                if k == a.k:
                    got, want = cartan.pairing(a, x), nested_pairing(na, nx)
                    assert got.c == want.c
                    assert all(type(v) in (int, Fraction) and v for v in got.c.values())
    for a, b in _flat_cases(rng, Form):
        na, nb = _nested(a), _nested(b)
        grouped = _contiguous(a) and _contiguous(b)
        _assert_flat_matches(a.wedge(b), na.wedge(nb), same_types=grouped)
        _assert_flat_matches(cartan.deRham_d(a), nested_deRham_d(na), same_types=_contiguous(a))
        _assert_flat_matches(cartan.deRham_d(cartan.deRham_d(a)), NestedForm(a.nvars, a.k + 2))


def test_zeros_of_any_degree_add_to_honest_elements():
    rng = random.Random(20269)
    for n in (1, 2, 3, 4):
        f, g = (_element(rng, MultiVector, n, 0) for _ in range(2))
        zero = cartan.schouten(f, g)  # functions bracket to zero, in degree 0
        nzero = nested_schouten(_nested(f), _nested(g))
        assert not zero and zero.k == 0
        for k in range(n + 1):
            x = _element(rng, MultiVector, n, k)
            nx = _nested(x)
            assert x
            for got, want in (
                (zero + x, nzero + nx),
                (x + zero, nx + nzero),
                (x - zero, nx - nzero),
                (zero - x, nzero - nx),
            ):
                _assert_flat_matches(got, want)
                assert got.k == k
        for k in range(n):
            alpha = _element(rng, Form, n, k)
            for kv in range(k + 1, n + 1):
                mv = _element(rng, MultiVector, n, kv)
                over = cartan.contract(mv, alpha)  # over-contracting
                _assert_flat_matches(over, nested_contract(_nested(mv), _nested(alpha)))
                assert not over and over.k == 0
                honest = _element(rng, Form, n, k)
                _assert_flat_matches(over + honest, nested_contract(
                    _nested(mv), _nested(alpha)) + _nested(honest))
                # mv.k > alpha.k: d i gives a degree-1 zero, i d a degree-0 form
                got = cartan.lie_derivative(mv, alpha)
                _assert_flat_matches(got, nested_lie_derivative(_nested(mv), _nested(alpha)))
    # two nonzero elements of different degrees still do not add
    x, y = _element(rng, Form, 2, 1), _element(rng, Form, 2, 2)
    assert x and y
    for op in (lambda: x + y, lambda: y - x, lambda: _nested(x) + _nested(y)):
        try:
            op()
        except ValueError:
            continue
        raise AssertionError("a sum of two degrees was accepted")


# -- the accumulating kernels against the kernel that built its own result --------
#
# ``_built_monomial_pairs``, ``_built_wedge`` (the body of ``_Exterior.wedge``)
# and ``_built_schouten`` are the kernel, the wedge and the bracket from just
# before ``wedge_into`` and ``schouten_into``, verbatim apart from the names:
# each pair loop wrote into a dict of its own and returned it as an element.

def _built_monomial_pairs(A, B, rule, cls, k):
    acc = {}
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
                add_term(acc, (merged, e), c if w == 1 else w * c)
    return cartan._make(cls, A.nvars, k, acc)


def _built_wedge(self, other):
    if type(self) is not type(other) or self.nvars != other.nvars:
        raise ValueError("mismatched wedge factors")
    return _built_monomial_pairs(self, other, _wedge_rule, type(self), self.k + other.k)


def _built_schouten(A, B):
    if A.nvars != B.nvars:
        raise ValueError("variable counts differ")
    if A.k == 0 and B.k == 0:
        return MultiVector.zero(A.nvars, 0)
    return _built_monomial_pairs(A, B, _schouten_rule, MultiVector, A.k + B.k - 1)


def _plus(base, s, x):
    """``base + s * x`` by value, through ``add_term``."""
    out = dict(base)
    for key, v in x.c.items():
        add_term(out, key, s * v)
    return out


def _assert_zero_free(acc):
    assert all(type(v) in (int, Fraction) and v for v in acc.values())


def test_accumulating_kernels_match_the_built_kernel():
    rng = random.Random(20270)
    written = {"both functions": 0, "one function": 0, "cancelled": 0}
    for cls in (Form, MultiVector):
        kernels = [(cartan.wedge_into, _built_wedge)]
        if cls is MultiVector:
            kernels.append((cartan.schouten_into, _built_schouten))
        cases = _kernel_cases(rng, cls)
        for (a, b), (c, d) in zip(cases, cases[1:] + cases[:1]):
            for into, built in kernels:
                want = built(a, b)
                other = built(c, d) if c.nvars == a.nvars else want
                for s in (1, -1, 2, -2):
                    acc = {}
                    into(acc, a, b, s)
                    assert acc == _plus({}, s, want)
                    _assert_zero_free(acc)
                    # into a dict that already holds terms, some of them shared
                    acc = dict(other.c)
                    into(acc, a, b, s)
                    assert acc == _plus(other.c, s, want)
                    _assert_zero_free(acc)
                # a call that cancels what the dict holds leaves it empty
                acc = _plus({}, -2, want)
                into(acc, a, b, 2)
                assert acc == {}
                written["cancelled"] += bool(want)
                # the wrappers are the kernels plus the result's degree
                got = a.wedge(b) if into is cartan.wedge_into else cartan.schouten(a, b)
                assert (type(got), got.nvars, got.k) == (type(want), want.nvars, want.k)
                assert got.c == want.c
            if cls is MultiVector and a.k == 0 and a:
                acc = {((0,), (0,) * a.nvars): 5}
                cartan.schouten_into(acc, a, b, 1)
                if b.k == 0:
                    # two functions: nothing is written, the dict is untouched
                    assert acc == {((0,), (0,) * a.nvars): 5}
                    written["both functions"] += bool(b)
                else:
                    assert acc == _plus({((0,), (0,) * a.nvars): 5}, 1, _built_schouten(a, b))
                    written["one function"] += len(acc) > 1
    assert all(written.values()), written
