"""The accumulating Gerstenhaber sweep against the sweeps it replaced.

``_parent_check_gerstenhaber`` below is the body of
``linfty.check_gerstenhaber`` from before the product and bracket tables,
kept verbatim as a reference: it recomputes every product and bracket
inside its triple loop.  ``_table_check_gerstenhaber`` is the table sweep
from before the Jacobi orbits, also verbatim: it computes the Jacobi
residual of every triple.  Both build each product and bracket as an
element and add and subtract elements.

They run on the element-valued structures they were written for:
``BuiltGerstenhaberData``, ``BuiltEpsilonAlgebra`` (with
``BuiltEpsilonElement`` arithmetic) and ``built_epsilon_extend`` are
``linfty``'s from before the accumulating kernels, verbatim apart from the
names.  The current sweep runs on the same generators with the same product
and bracket written as frame rules of ``cartan._monomial_pairs``
(``cartan._wedge_rule``, ``cartan._schouten_rule`` and the deliberately
broken ``_*_rule`` fixtures below), and adds every law term straight into
one residual.  On passing and on broken structures, plain and extended over
the odd parameter, it must count the same checks and report the same (law,
generator names) in the same order, with every residual equal by value:
type, degree and every coefficient with its scalar type.  Accumulating term
by term stores the coefficients in another order than adding built elements
does, so the order is not compared.

Extended over the odd parameter e, the current structure is
``linfty.epsilon_extend``: multivectors in one more variable, e being the
odd frame symbol of index 2.  A reference residual body + e*tail is
compared through ``_lift``; a broken rule is keyed on the body degree, the
frame length not counting e, so that it breaks the same structure as its
element-valued function does on bodies and tails.  The last section
compares the extension with the accumulating (body, tail) extension it
replaced, kept verbatim in ``parent_epsilon`` with the same product and
bracket as accumulating kernels (``cartan.wedge_into``,
``cartan.schouten_into`` and the broken ``_*_into`` fixtures): on the
sweep, and on every pairwise product, bracket and second-order defect of
delta, and every delta.

The certified sweep, which evaluates the triple laws on the principal
lattice of exponents only, is compared with the full sweep of the same
rules, run with the certificate switched off, on passing and broken rules.
The tests after it pin the mathematics it rests on, and the cases that
must keep the full sweep.
"""

from collections import Counter
from functools import cache
from itertools import combinations, product
from math import prod

import pytest

import parent_epsilon
from formality_lab import cartan as ct
from formality_lab import linfty as lf
from formality_lab.core.linalg import rank_kernel
from formality_lab.linfty import CheckReport
from formality_lab.poly import Poly, monomials_upto
from shared_tools import unit_frames


# -- reference: the previous body, verbatim -----------------------------------

def _parent_check_gerstenhaber(A, max_triples=None):
    """Verify the graded-commutative / odd-Lie / Leibniz laws on the
    generators of A, plus the square-zero and bracket-generating laws of
    delta when A has one.  Returns a CheckReport whose witnesses are
    (law, generator names, residual)."""
    deg = A.degree
    mul = A.mul
    brk = A.bracket
    delta = getattr(A, "delta", None)
    gens = A.generators
    witnesses = []
    checked = 0

    def sgn(e):
        return -1 if e % 2 else 1

    for i, (nx, x) in enumerate(gens):
        for ny, y in gens[i:]:
            dx, dy = deg(x), deg(y)
            checked += 1
            r = mul(x, y) - sgn(dx * dy) * mul(y, x)
            if not r.is_zero():
                witnesses.append(("commutativity", (nx, ny), r))
            checked += 1
            r = brk(x, y) + sgn((dx - 1) * (dy - 1)) * brk(y, x)
            if not r.is_zero():
                witnesses.append(("antisymmetry", (nx, ny), r))
            if delta is not None:
                checked += 1
                r = (
                    delta(mul(x, y))
                    - mul(delta(x), y)
                    - sgn(dx) * mul(x, delta(y))
                    - sgn(dx) * brk(x, y)
                )
                if not r.is_zero():
                    witnesses.append(("second-order-delta", (nx, ny), r))

    if delta is not None:
        for nx, x in gens:
            checked += 1
            r = delta(delta(x))
            if not r.is_zero():
                witnesses.append(("delta-squared", (nx,), r))

    triples = [
        (i, j, k)
        for i in range(len(gens))
        for j in range(len(gens))
        for k in range(len(gens))
    ]
    if max_triples is not None:
        triples = triples[:max_triples]
    for i, j, k in triples:
        nx, x = gens[i]
        ny, y = gens[j]
        nz, z = gens[k]
        dx, dy, dz = deg(x), deg(y), deg(z)
        checked += 1
        r = mul(mul(x, y), z) - mul(x, mul(y, z))
        if not r.is_zero():
            witnesses.append(("associativity", (nx, ny, nz), r))
        checked += 1
        r = (
            brk(x, mul(y, z))
            - mul(brk(x, y), z)
            - sgn((dx - 1) * dy) * mul(y, brk(x, z))
        )
        if not r.is_zero():
            witnesses.append(("bracket-leibniz", (nx, ny, nz), r))
        checked += 1
        r = (
            sgn((dx - 1) * (dz - 1)) * brk(brk(x, y), z)
            + sgn((dy - 1) * (dx - 1)) * brk(brk(y, z), x)
            + sgn((dz - 1) * (dy - 1)) * brk(brk(z, x), y)
        )
        if not r.is_zero():
            witnesses.append(("jacobi", (nx, ny, nz), r))
    return CheckReport(checked, witnesses, 3)


# -- reference: the table sweep before the Jacobi orbits, verbatim ------------

def _table_check_gerstenhaber(A):
    """Verify the graded-commutative / odd-Lie / Leibniz laws on the
    generators of A, plus the square-zero and bracket-generating laws of
    delta when A has one.  Returns a CheckReport whose witnesses are
    (law, generator names, residual).

    Every pairwise product and bracket of generators is computed once, into
    the N x N tables P and B, and the pair and triple laws read them."""
    mul = A.mul
    brk = A.bracket
    delta = getattr(A, "delta", None)
    gens = A.generators
    names = [name for name, _ in gens]
    elems = [g for _, g in gens]
    degs = [A.degree(g) for g in elems]
    P = [[mul(x, y) for y in elems] for x in elems]
    B = [[brk(x, y) for y in elems] for x in elems]
    witnesses = []
    checked = 0

    def sgn(e):
        return -1 if e % 2 else 1

    n = len(gens)
    for i in range(n):
        nx, x, dx = names[i], elems[i], degs[i]
        for j in range(i, n):
            ny, y, dy = names[j], elems[j], degs[j]
            checked += 1
            r = P[i][j] - sgn(dx * dy) * P[j][i]
            if not r.is_zero():
                witnesses.append(("commutativity", (nx, ny), r))
            checked += 1
            r = B[i][j] + sgn((dx - 1) * (dy - 1)) * B[j][i]
            if not r.is_zero():
                witnesses.append(("antisymmetry", (nx, ny), r))
            if delta is not None:
                checked += 1
                r = (
                    delta(P[i][j])
                    - mul(delta(x), y)
                    - sgn(dx) * mul(x, delta(y))
                    - sgn(dx) * B[i][j]
                )
                if not r.is_zero():
                    witnesses.append(("second-order-delta", (nx, ny), r))

    if delta is not None:
        for nx, x in gens:
            checked += 1
            r = delta(delta(x))
            if not r.is_zero():
                witnesses.append(("delta-squared", (nx,), r))

    for i, j, k in product(range(n), repeat=3):
        x, y, z = elems[i], elems[j], elems[k]
        dx, dy, dz = degs[i], degs[j], degs[k]
        label = (names[i], names[j], names[k])
        checked += 1
        r = mul(P[i][j], z) - mul(x, P[j][k])
        if not r.is_zero():
            witnesses.append(("associativity", label, r))
        checked += 1
        r = (
            brk(x, P[j][k])
            - mul(B[i][j], z)
            - sgn((dx - 1) * dy) * mul(y, B[i][k])
        )
        if not r.is_zero():
            witnesses.append(("bracket-leibniz", label, r))
        checked += 1
        r = (
            sgn((dx - 1) * (dz - 1)) * brk(B[i][j], z)
            + sgn((dy - 1) * (dx - 1)) * brk(B[j][k], x)
            + sgn((dz - 1) * (dy - 1)) * brk(B[k][i], y)
        )
        if not r.is_zero():
            witnesses.append(("jacobi", label, r))
    return CheckReport(checked, witnesses, 3)


# -- reference: the element-valued structures, verbatim --------------------------

class BuiltEpsilonElement:
    """Pair (body, tail) standing for body + e*tail, where e is an odd
    square-zero parameter of degree +1.  A homogeneous element of degree k
    has body of degree k and tail of degree k-1.  Either part may be None
    (zero)."""

    __slots__ = ("body", "tail", "degree")

    def __init__(self, body, tail, degree):
        self.body = None if (body is None or body.is_zero()) else body
        self.tail = None if (tail is None or tail.is_zero()) else tail
        self.degree = degree

    def __bool__(self):
        return self.body is not None or self.tail is not None

    def is_zero(self):
        return not self

    def __eq__(self, other):
        if not isinstance(other, BuiltEpsilonElement):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (
            self.degree == other.degree
            and _built_part_eq(self.body, other.body)
            and _built_part_eq(self.tail, other.tail)
        )

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        return BuiltEpsilonElement(
            _built_part_add(self.body, other.body),
            _built_part_add(self.tail, other.tail),
            self.degree,
        )

    def __neg__(self):
        return BuiltEpsilonElement(_built_part_neg(self.body), _built_part_neg(self.tail), self.degree)

    def __sub__(self, other):
        if self.is_zero():
            return -other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        return BuiltEpsilonElement(
            _built_part_sub(self.body, other.body),
            _built_part_sub(self.tail, other.tail),
            self.degree,
        )

    def __rmul__(self, scalar):
        body = None if self.body is None else scalar * self.body
        tail = None if self.tail is None else scalar * self.tail
        return BuiltEpsilonElement(body, tail, self.degree)

    def __repr__(self):
        return f"BuiltEpsilonElement(deg={self.degree}, body={self.body!r}, tail={self.tail!r})"


def _built_part_eq(a, b):
    if a is None:
        return b is None or b.is_zero()
    if b is None:
        return a.is_zero()
    return a == b


def _built_part_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _built_part_neg(a):
    return None if a is None else -a


def _built_part_sub(a, b):
    if b is None:
        return a
    if a is None:
        return -b
    return a - b


class BuiltEpsilonAlgebra:
    """Graded-commutative product and odd bracket extended over an odd
    parameter e of degree +1.

    The extended product twists the naive bilinear extension by the
    bracket of the two bodies; the extended bracket drops the e*e terms.
    ``delta`` differentiates along e, and together with the product it
    regenerates the bracket (a second-order-operator identity whose
    overall sign check_gerstenhaber verifies).
    """

    def __init__(self, degree, mul, bracket, generators=()):
        self._deg = degree
        self._mul = mul
        self._brk = bracket
        self.generators = list(generators)

    def embed(self, a):
        return BuiltEpsilonElement(a, None, self._deg(a))

    def embed_tail(self, b):
        return BuiltEpsilonElement(None, b, self._deg(b) + 1)

    def degree(self, x):
        return x.degree

    def mul(self, x, y):
        k = x.degree
        body = None if (x.body is None or y.body is None) else self._mul(x.body, y.body)
        signed = _built_part_sub if k % 2 else _built_part_add  # tail += (-1)^k * term
        tail = None
        if x.tail is not None and y.body is not None:
            tail = _built_part_add(tail, self._mul(x.tail, y.body))
        if x.body is not None and y.tail is not None:
            tail = signed(tail, self._mul(x.body, y.tail))
        if x.body is not None and y.body is not None:
            tail = signed(tail, self._brk(x.body, y.body))
        return BuiltEpsilonElement(body, tail, k + y.degree)

    def bracket(self, x, y):
        k = x.degree
        body = None if (x.body is None or y.body is None) else self._brk(x.body, y.body)
        signed = _built_part_sub if (k + 1) % 2 else _built_part_add  # tail += (-1)^(k+1) * term
        tail = None
        if x.tail is not None and y.body is not None:
            tail = _built_part_add(tail, self._brk(x.tail, y.body))
        if x.body is not None and y.tail is not None:
            tail = signed(tail, self._brk(x.body, y.tail))
        return BuiltEpsilonElement(body, tail, k + y.degree - 1)

    def delta(self, x):
        """Derivative along the odd parameter: body + e*tail -> tail."""
        return BuiltEpsilonElement(x.tail, None, x.degree - 1)


class BuiltGerstenhaberData:
    """Plain graded product + odd bracket, same interface as the extended
    algebra but without a delta operator."""

    def __init__(self, degree, mul, bracket, generators=()):
        self.degree = degree
        self.mul = mul
        self.bracket = bracket
        self.generators = list(generators)
        self.delta = None


def built_epsilon_extend(degree, mul, bracket, generators=()):
    """Extend (V, product, bracket) over the odd parameter; the generator
    list of the result contains both the embedded generators and their
    parameter multiples."""
    E = BuiltEpsilonAlgebra(degree, mul, bracket)
    gens = []
    for name, g in generators:
        gens.append((name, E.embed(g)))
        gens.append(("e*" + name, E.embed_tail(g)))
    E.generators = gens
    return E


# -- structures -----------------------------------------------------------------

X = Poly.var(2, 0)
Y = Poly.var(2, 1)
ONE = Poly.const(2, 1)
MAKE = ct.MultiVector.maker(2)


def _degree(a):
    return a.k


def _mv(k, entries):
    return ct.MultiVector(2, k, entries)


def _generators():
    return [
        ("f", ct.MultiVector.function(X)),
        ("g", ct.MultiVector.function(X * Y + ONE)),
        ("X", _mv(1, {(0,): Y})),
        ("Y", _mv(1, {(1,): ONE})),
        ("Z", _mv(1, {(0,): X, (1,): -3 * Y})),
        ("pi", _mv(2, {(0, 1): ONE})),
        ("rho", _mv(2, {(0, 1): X * X})),
    ]


def _monomial_generators(deg):
    """The suite's generators: every unit frame of 2 variables times every
    monomial of degree at most ``deg``."""
    return [
        (f"v{k}{''.join(map(str, key))}_{e[0]}{e[1]}", _mv(k, {key: Poly.monomial(2, e)}))
        for k in range(3)
        for key in combinations(range(2), k)
        for e in monomials_upto(2, deg)
    ]


# Each product or bracket three times: as the element-valued function the
# references call, as the accumulating kernel the parent extension calls,
# and as the frame rule of the current structure.

def _wedge(a, b):
    return a.wedge(b)


def _truncated(a, b):
    # the bracket with everything above vector fields cut off
    if a.k > 1 or b.k > 1:
        return ct.MultiVector.zero(2, max(a.k + b.k - 1, 0))
    return ct.schouten(a, b)


def _skewed(a, b):
    # a product that doubles when the higher degree comes first
    p = a.wedge(b)
    return 2 * p if a.k > b.k else p


def _skewed_into(acc, a, b, sign):
    ct.wedge_into(acc, a, b, 2 * sign if a.k > b.k else sign)


def _doubled(a, b):
    # the bracket doubled on degree-{1, 2} pairs: it breaks Jacobi
    r = ct.schouten(a, b)
    return 2 * r if {a.k, b.k} == {1, 2} else r


def _doubled_into(acc, a, b, sign):
    ct.schouten_into(acc, a, b, 2 * sign if {a.k, b.k} == {1, 2} else sign)


# The same three as frame rules of the extension, keyed on the body degree:
# the frame length not counting e, the frame index 2.

E_INDEX = 2


def _body(frame):
    return len(frame) - (E_INDEX in frame)


@cache
def _truncated_rule(fa, fb):
    return ct._schouten_rule(fa, fb) if _body(fa) <= 1 and _body(fb) <= 1 else ()


@cache
def _skewed_rule(fa, fb):
    w = 2 if _body(fa) > _body(fb) else 1
    return tuple((m, w * s, i, side) for m, s, i, side in ct._wedge_rule(fa, fb))


@cache
def _doubled_rule(fa, fb):
    w = 2 if {_body(fa), _body(fb)} == {1, 2} else 1
    return tuple((m, w * s, i, side) for m, s, i, side in ct._schouten_rule(fa, fb))


WEDGE = (_wedge, ct.wedge_into, ct._wedge_rule)
SCHOUTEN = (ct.schouten, ct.schouten_into, ct._schouten_rule)
TRUNCATED = (_truncated, None, _truncated_rule)
SKEWED = (_skewed, _skewed_into, _skewed_rule)
DOUBLED = (_doubled, _doubled_into, _doubled_rule)


def _structures(extended, mul, brk, generators):
    """(the structure the current sweep checks, the reference structure)."""
    (mul_elem, _, mul_rule), (brk_elem, _, brk_rule) = mul, brk
    if extended:
        return (
            lf.epsilon_extend(E_INDEX, mul_rule, brk_rule, generators),
            built_epsilon_extend(_degree, mul_elem, brk_elem, generators),
        )
    return (
        lf.GerstenhaberData(2, mul_rule, brk_rule, generators),
        BuiltGerstenhaberData(_degree, mul_elem, brk_elem, generators),
    )


def _lift(body, tail):
    """The flat dict of body + e*tail on multivectors with e as frame index
    2: x^a frame_I -> x^(a, 0) frame_I, and e * x^a frame_I ->
    (-1)^|I| x^(a, 0) frame_(I + (2,))."""
    c = {}
    for (f, a), v in body.items():
        c[f, a + (0,)] = v
    for (f, a), v in tail.items():
        c[f + (E_INDEX,), a + (0,)] = -v if len(f) % 2 else v
    return c


def _by_value(r):
    """A residual by value: type, degree and every coefficient with its
    scalar type, in no particular order.  An extended reference residual
    is taken through the lift."""
    if r is None:
        return None
    if hasattr(r, "tail"):
        parts = [{} if p is None else p.c for p in (r.body, r.tail)]
        return _by_value(ct.MultiVector.maker(E_INDEX + 1)(r.degree, _lift(*parts)))
    return (
        type(r).__name__,
        r.k,
        {term: (v, type(v)) for term, v in r.c.items()},
    )


def _assert_same_report(new, old):
    assert new.checked == old.checked
    assert new.max_arity == old.max_arity
    assert [(law, names) for law, names, _ in new.witnesses] == [
        (law, names) for law, names, _ in old.witnesses
    ]
    for (_, _, r), (_, _, r0) in zip(new.witnesses, old.witnesses):
        assert _by_value(r) == _by_value(r0)


# -- the accumulating sweep against the sweep without tables ------------------------

CASES = {
    "plain": (False, WEDGE, SCHOUTEN, set()),
    "extended": (True, WEDGE, SCHOUTEN, set()),
    "truncated-bracket": (False, WEDGE, TRUNCATED, {"bracket-leibniz"}),
    "skewed-product": (False, SKEWED, SCHOUTEN, {"commutativity", "associativity"}),
    "skewed-product-extended": (True, SKEWED, SCHOUTEN, {"commutativity", "associativity"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_sweep_matches_the_previous_sweep(case):
    extended, mul, brk, must_fail = CASES[case]
    A, ref = _structures(extended, mul, brk, _generators())
    new = lf.check_gerstenhaber(A)
    _assert_same_report(new, _parent_check_gerstenhaber(ref))
    assert {law for law, _, _ in new.witnesses} >= must_fail
    assert new.ok == (not must_fail)


# -- the accumulating sweep against the table sweep without orbits ------------------

ORBIT_CASES = {
    "doubled-bracket": (False, _monomial_generators(2)),
    "doubled-bracket-extended": (True, _monomial_generators(1)),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_sweep_matches_the_table_sweep(case):
    """A rotated triple reuses its orbit's Jacobi residual, a sum of the same
    three terms in another order; every residual is compared by value."""
    extended, generators = ORBIT_CASES[case]
    A, ref = _structures(extended, WEDGE, DOUBLED, generators)
    new = lf.check_gerstenhaber(A)
    _assert_same_report(new, _table_check_gerstenhaber(ref))
    assert any(law == "jacobi" for law, _, _ in new.witnesses)


# -- the multivector extension against the (body, tail) extension -------------------

def _suite_generators():
    """The extended sweep's generators in ``suites._gerstenhaber_suite``."""
    return [
        (name, g) for name, g in _monomial_generators(3)
        if max(sum(e) for _, e in g.c) <= 1
    ]


PARENT_CASES = {
    f"{gens}-{law}": (gens, mul, brk)
    for gens in ("suite", "generators")
    for law, mul, brk in (
        ("passing", WEDGE, SCHOUTEN),
        ("skewed-product", SKEWED, SCHOUTEN),
        ("doubled-bracket", WEDGE, DOUBLED),
    )
}


def _both_extensions(case):
    """(the multivector extension, the parent's (body, tail) extension)."""
    gens, (_, mul_into, mul_rule), (_, brk_into, brk_rule) = PARENT_CASES[case]
    generators = _suite_generators() if gens == "suite" else _generators()
    return (
        lf.epsilon_extend(E_INDEX, mul_rule, brk_rule, generators),
        parent_epsilon.epsilon_extend(_degree, mul_into, brk_into, MAKE, generators),
    )


@pytest.mark.parametrize("case", sorted(PARENT_CASES))
def test_extension_sweep_matches_the_body_tail_sweep(case):
    E, ref = _both_extensions(case)
    new = lf.check_gerstenhaber(E)
    _assert_same_report(new, parent_epsilon.check_gerstenhaber(ref))
    assert new.checked == (42396 if case.startswith("suite") else 8561)
    assert new.ok == case.endswith("passing")
    if case == "suite-doubled-bracket":
        assert len(new.witnesses) == 1462


@pytest.mark.parametrize("case", sorted(PARENT_CASES))
def test_extension_kernels_match_the_body_tail_kernels(case):
    """Every generator lifts, and every pairwise product, bracket and
    second-order defect of delta, and every delta, is the lift of the
    reference's.  On the e-free pairs, the 144 checks of the suite, the
    defect is empty on both sides."""
    E, ref = _both_extensions(case)
    assert [name for name, _ in E.generators] == [name for name, _ in ref.generators]
    pairs = list(zip(E.generators, ref.generators))
    for (_, x), (_, x0) in pairs:
        assert _by_value(x) == _by_value(x0)
        d, d0 = E.delta(x), ref.delta(x0)
        if d0:
            assert _by_value(d) == _by_value(d0)
        else:
            assert not d  # the reference's zero has degree -1 on a function
        for (_, y), (_, y0) in pairs:
            for ours, theirs in ((E.mul_rule, ref.mul_into), (E.bracket_rule, ref.bracket_into)):
                r, r0 = {}, parent_epsilon.BodyTail()
                ct._monomial_pairs(r, x, y, ours, 1)
                theirs(r0, x0, y0, 1)
                assert r == _lift(r0.body, r0.tail)
            r0 = ref.delta_defect(x0, y0)
            assert E.delta_defect(x, y) == _lift(r0.body, r0.tail)
    body = E.generators[::2]
    assert len(body) ** 2 == (144 if case.startswith("suite") else 49)
    assert not any(E.delta_defect(x, y) for _, x in body for _, y in body)


# -- the certified sweep against the full sweep ------------------------------------

@cache
def _side0_doubled_rule(fa, fb):
    # the Schouten rule with its side-0 entries doubled: it breaks Jacobi
    return tuple(
        (m, 2 * w if side == 0 else w, i, side) for m, w, i, side in ct._schouten_rule(fa, fb)
    )


RULES = {
    "passing": (ct._wedge_rule, ct._schouten_rule),
    "skewed-product": (_skewed_rule, ct._schouten_rule),
    "doubled-bracket": (ct._wedge_rule, _doubled_rule),
    "side0-doubled-bracket": (ct._wedge_rule, _side0_doubled_rule),
}

GENERATOR_SETS = {
    # the plain sweep's 40 generators in ``suites._gerstenhaber_suite``
    "suite": lambda: _monomial_generators(3),
    "generators": _generators,
    "monomials-2": lambda: _monomial_generators(2),
}


def _full_sweep(monkeypatch, A):
    """The report of A's sweep of every triple, the certificate switched
    off."""
    with monkeypatch.context() as m:
        m.setattr(lf, "_lattice", lambda A: None)
        return lf.check_gerstenhaber(A)


def _structure(rules, generators):
    return lf.GerstenhaberData(2, *RULES[rules], generators)


@pytest.mark.parametrize("gens", sorted(GENERATOR_SETS))
@pytest.mark.parametrize("rules", sorted(RULES))
def test_certified_sweep_matches_the_full_sweep(monkeypatch, rules, gens):
    A = _structure(rules, GENERATOR_SETS[gens]())
    # ``_generators()`` holds two-term generators
    assert (lf._lattice(A) is None) == (gens == "generators")
    new = lf.check_gerstenhaber(A)
    _assert_same_report(new, _full_sweep(monkeypatch, A))
    assert new.ok == (rules == "passing")


def test_the_suite_lattice_has_2304_triples():
    A = _structure("passing", GENERATOR_SETS["suite"]())
    lattice = Counter(law for law, _, _, _ in lf._lattice(A))
    assert lattice == {
        "associativity": 64 * 1,
        "bracket-leibniz": 64 * 7,
        "jacobi": 64 * 28,
    }
    assert lf.check_gerstenhaber(A).checked == 193640


# -- the mathematics of the certificate ---------------------------------------------

@pytest.mark.parametrize("d", [0, 1, 2])
def test_the_principal_lattice_is_unisolvent(d):
    """The evaluation matrix of the monomials of degree <= d in the six
    exponent entries of (ea, eb, ec), on the lattice points, has full rank:
    a polynomial of degree <= d that vanishes on the lattice is zero."""
    points = lf._principal_lattice(2, d)
    monomials = monomials_upto(6, d)
    assert len(points) == len(monomials) == (1, 7, 28)[d]
    rows = [
        {c: prod(v**m for v, m in zip(ea + eb + ec, mono)) for c, mono in enumerate(monomials)}
        for ea, eb, ec in points
    ]
    rank, _ = rank_kernel(rows, len(monomials))
    assert rank == len(monomials)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_rule_entries_take_at_most_one_derivative(nvars):
    """Every entry is (merged, w, i, side) with one derivative index i or
    none, so a kernel multiplies by at most one exponent entry per entry;
    the wedge takes none.  The twisted rule is that of the extension of
    multivectors in nvars - 1 variables."""
    twisted = lf.epsilon_extend(nvars - 1, ct._wedge_rule, ct._schouten_rule).mul_rule
    degrees = {}
    for name, rule in (
        ("wedge", ct._wedge_rule), ("schouten", ct._schouten_rule), ("twisted", twisted)
    ):
        indices = set()
        for fa in unit_frames(nvars):
            for fb in unit_frames(nvars):
                for entry in rule(fa, fb):
                    merged, _, i, side = entry
                    assert list(merged) == sorted(set(merged))
                    assert i is None or i in range(nvars)
                    assert side in (0, 1)
                    indices.add(i)
        if name == "wedge":
            assert indices == {None}
        degrees[name] = lf._exponent_degree(rule, nvars)
    # with no body variable the extension has no bracket entries to twist in
    assert degrees == {"wedge": 0, "schouten": 1, "twisted": int(nvars > 1)}


# -- generators that keep the full sweep -------------------------------------------

@pytest.mark.parametrize("rules", ["passing", "doubled-bracket"])
def test_sweeps_without_the_lattice_keep_the_full_sweep(monkeypatch, rules):
    """The extended sweep, whose every law has degree 2 on generators with
    |e| <= 1, and a plain sweep on those generators."""
    mul, brk = RULES[rules]
    E = lf.epsilon_extend(E_INDEX, mul, brk, _suite_generators())
    plain = lf.GerstenhaberData(2, mul, brk, _monomial_generators(1))
    for A in (E, plain):
        assert lf._lattice(A) is None
        new = lf.check_gerstenhaber(A)
        _assert_same_report(new, _full_sweep(monkeypatch, A))
        assert new.ok == (rules == "passing")
    assert lf.check_gerstenhaber(E).checked == 42396


@pytest.mark.parametrize("rules", ["passing", "side0-doubled-bracket"])
def test_a_generator_with_two_terms_falls_back_to_the_full_sweep(monkeypatch, rules):
    gens = _monomial_generators(2)
    assert lf._lattice(_structure(rules, gens)) is not None
    A = _structure(rules, gens + [("Z", _mv(1, {(0,): X, (1,): -3 * Y}))])
    assert lf._lattice(A) is None
    new = lf.check_gerstenhaber(A)
    _assert_same_report(new, _full_sweep(monkeypatch, A))
    assert new.ok == (rules == "passing")
