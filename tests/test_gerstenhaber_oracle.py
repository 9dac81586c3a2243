"""The table-driven Gerstenhaber sweep against the sweep it replaced.

``_parent_check_gerstenhaber`` below is the previous body of
``linfty.check_gerstenhaber``, kept verbatim as the reference: it
recomputes every product and bracket inside its triple loop.  The current
sweep reads pairwise products and brackets from N x N tables.  On passing
and on deliberately broken structures, plain and extended over the odd
parameter, both must count the same checks and report the same witnesses
(law, generator names, residual) in the same order.

``_table_check_gerstenhaber`` is the table sweep from before the Jacobi
orbits, also verbatim: it computes the Jacobi residual of every triple,
where the current sweep computes one per cyclic orbit and lets each
rotation reuse it.  On a bracket that breaks Jacobi, plain and extended,
both must count the same checks and report the same (law, names) in the
same order, with every residual equal (Jacobi residuals by value).
"""

from itertools import combinations, product

import pytest

from formality_lab import cartan as ct
from formality_lab import linfty as lf
from formality_lab.linfty import CheckReport
from formality_lab.poly import Poly, monomials_upto


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


# -- structures -----------------------------------------------------------------

X = Poly.var(2, 0)
Y = Poly.var(2, 1)
ONE = Poly.const(2, 1)


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


def _plain(mul, brk):
    return lf.GerstenhaberData(lambda a: a.k, mul, brk, _generators())


def _extended(mul, brk):
    return lf.epsilon_extend(lambda a: a.k, mul, brk, _generators())


CASES = {
    "plain": (_plain, _wedge, ct.schouten, set()),
    "extended": (_extended, _wedge, ct.schouten, set()),
    "truncated-bracket": (_plain, _wedge, _truncated, {"bracket-leibniz"}),
    "skewed-product": (_plain, _skewed, ct.schouten, {"commutativity", "associativity"}),
    "skewed-product-extended": (
        _extended, _skewed, ct.schouten, {"commutativity", "associativity"}
    ),
}


def _canon(r):
    """A residual as nested tuples: type, degree and every coefficient."""
    if r is None:
        return None
    if isinstance(r, lf.EpsilonElement):
        return ("eps", r.degree, _canon(r.body), _canon(r.tail))
    return (
        type(r).__name__,
        r.k,
        tuple((term, v, type(v)) for term, v in r.c.items()),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_sweep_matches_the_previous_sweep(case):
    build, mul, brk, must_fail = CASES[case]
    new = lf.check_gerstenhaber(build(mul, brk))
    old = _parent_check_gerstenhaber(build(mul, brk))
    assert new.checked == old.checked
    assert new.max_arity == old.max_arity
    assert [(law, names, _canon(r)) for law, names, r in new.witnesses] == [
        (law, names, _canon(r)) for law, names, r in old.witnesses
    ]
    assert {law for law, _, _ in new.witnesses} >= must_fail
    assert new.ok == (not must_fail)


# -- the Jacobi orbits against the table sweep ------------------------------------

def _monomial_generators(deg):
    """The suite's generators: every unit frame of 2 variables times every
    monomial of degree at most ``deg``."""
    return [
        (f"v{k}{''.join(map(str, key))}_{e[0]}{e[1]}", _mv(k, {key: Poly.monomial(2, e)}))
        for k in range(3)
        for key in combinations(range(2), k)
        for e in monomials_upto(2, deg)
    ]


def _doubled(a, b):
    # the bracket doubled on degree-{1, 2} pairs: it breaks Jacobi
    r = ct.schouten(a, b)
    return 2 * r if {a.k, b.k} == {1, 2} else r


def _by_value(r):
    """A residual by value: type, degree and every coefficient with its
    scalar type, in no particular order."""
    if isinstance(r, lf.EpsilonElement):
        return ("eps", r.degree, _by_value(r.body), _by_value(r.tail))
    if r is None:
        return None
    return (
        type(r).__name__,
        r.k,
        {term: (v, type(v)) for term, v in r.c.items()},
    )


ORBIT_CASES = {
    "doubled-bracket": lambda: lf.GerstenhaberData(
        lambda a: a.k, _wedge, _doubled, _monomial_generators(2)
    ),
    "doubled-bracket-extended": lambda: lf.epsilon_extend(
        lambda a: a.k, _wedge, _doubled, _monomial_generators(1)
    ),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_sweep_matches_the_table_sweep(case):
    """A rotated triple reuses its orbit's Jacobi residual, a sum of the same
    three terms in another order, so Jacobi residuals are compared by value;
    every other residual must match exactly."""
    new = lf.check_gerstenhaber(ORBIT_CASES[case]())
    old = _table_check_gerstenhaber(ORBIT_CASES[case]())
    assert new.checked == old.checked
    assert [(law, names) for law, names, _ in new.witnesses] == [
        (law, names) for law, names, _ in old.witnesses
    ]
    for (law, _, r), (_, _, r0) in zip(new.witnesses, old.witnesses):
        if law == "jacobi":
            assert _by_value(r) == _by_value(r0)
        else:
            assert _canon(r) == _canon(r0)
    assert any(law == "jacobi" for law, _, _ in new.witnesses)
