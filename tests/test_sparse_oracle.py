"""The shared accumulate-and-drop-zeros helper and the monomial-pair kernel
against the loops they replaced.

The ``_parent_*`` functions and ``_half_bracket`` below are the bodies of
``Poly.__add__``, ``Poly.__mul__``, ``_Exterior.__add__``,
``_Exterior.wedge``, ``cartan._half_bracket`` and ``cartan.schouten``
from before ``core.basis.add_term``, kept verbatim as the reference: each
writes its own get/add/pop loop.  Inside ``_parent_arithmetic()`` the
polynomial and exterior sums and products run on those bodies, so the
reference never touches ``core.basis.add_term``.  On seeded inputs with
exact cancellations the current code must give the same coefficient dicts.
Scalars are compared by value; each is an ``int`` or a ``Fraction``
(``core.basis.rational`` never returns ``Fraction(n, 1)``, but a product
such as ``Fraction(1, 2) * 2`` may store one).  The scalars 1 and -1,
which copy or negate coefficients instead of multiplying them, are held to
the general product the same way.

The ``_poly_product_*`` functions are the wedge and Schouten bodies from
just before the monomial-pair kernel, verbatim: every monomial pair goes
through ``Poly.__mul__`` and ``Poly.diff``.  They are the kernel's oracle.

The kernel's frame rules are cached per frame pair; their uncached bodies
(``__wrapped__``) are the reference for the cached ones.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from formality_lab import cartan
from formality_lab.cartan import Form, MultiVector, _Exterior, _merge_sign, _remove_index
from formality_lab.core.basis import add_term
from formality_lab.poly import Poly

NV = 3


# -- reference: the previous bodies, verbatim ----------------------------------

def _parent_poly_add(self, other):
    self._check(other)
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
    self._check(other)
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
    out = MultiVector(n, A.k + B.k - 1)
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
    out = MultiVector(n, A.k + B.k - 1)
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
        return MultiVector.zero(A.nvars, 0)
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
        return MultiVector.zero(A.nvars, 0)
    first = _half_bracket(A, B)
    second = _half_bracket(B, A)
    # second term rewritten: sum_i (d_x_i A)^(d_frame_i B) equals
    # (-1)^((a-1)(b-1)) * _half_bracket(B, A) up to the factor-swap sign,
    # so work directly with the two raw halves and calibrated signs.
    sa = -1 if (A.k - 1) % 2 else 1
    # swap (d_ksi B)^(d_x A) -> (d_x A)^(d_ksi B): degrees (B.k-1) and A.k
    sw = -1 if ((B.k - 1) * A.k) % 2 else 1
    return sa * first - sw * second


@contextmanager
def _parent_arithmetic():
    saved = Poly.__add__, Poly.__mul__, _Exterior.__add__
    Poly.__add__, Poly.__mul__ = _parent_poly_add, _parent_poly_mul
    _Exterior.__add__ = _parent_exterior_add
    try:
        yield
    finally:
        Poly.__add__, Poly.__mul__, _Exterior.__add__ = saved


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
        old = [_parent_wedge(a, b) for a, b in cases]
    for n, o in zip(new, old):
        _assert_same_exterior(n, o)
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
        old = [_parent_schouten(a, b) for a, b in cases]
    for n, o in zip(new, old):
        _assert_same_exterior(n, o)
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
    return {key: dict(p.c) for key, p in x.c.items()}


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
            want = _scaled_by_multiplying(x, s)
            y = s * x
            if isinstance(x, Poly):
                _assert_same_poly(y, want)
                _assert_same_poly(x * s, want)
            else:
                _assert_same_exterior(y, want)
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
            _assert_same_exterior(a.wedge(b), _poly_product_wedge(a, b))
        # alpha ^ alpha = 0 for 1-forms and vector fields
        assert all(not a.wedge(b) for a, b in cases if a is b)


def test_kernel_schouten_matches_poly_product_schouten():
    rng = random.Random(20265)
    cases = _kernel_cases(rng, MultiVector)
    assert any(a.k == 0 and b.k == 0 and a and b for a, b in cases)
    for a, b in cases:
        got = cartan.schouten(a, b)
        _assert_same_exterior(got, _poly_product_schouten(a, b))
        if a.k == 0 and b.k == 0:
            assert not got  # functions bracket to zero
        if a is b:
            assert not got  # [X, X] = 0 for a vector field
    # mixed int and Fraction coefficients did reach the kernel
    values = [v for a, b in cases for x in (a, b) for p in x.c.values() for v in p.c.values()]
    assert {int, Fraction} <= {type(v) for v in values}


# -- the memoized frame rules ----------------------------------------------------

def _frames(n):
    return [key for k in range(n + 1) for key in combinations(range(n), k)]


def test_frame_rules_equal_their_uncached_bodies():
    for n in range(1, 5):
        for fa in _frames(n):
            for fb in _frames(n):
                for rule in (cartan._wedge_rule, cartan._schouten_rule):
                    got = rule(fa, fb)
                    assert type(got) is tuple
                    assert got == rule.__wrapped__(fa, fb)


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
        _assert_same_exterior(w, w0)
        _assert_same_exterior(s, s0)
