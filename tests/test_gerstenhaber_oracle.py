"""The table-driven Gerstenhaber sweep against the sweep it replaced.

``_parent_check_gerstenhaber`` below is the previous body of
``linfty.check_gerstenhaber``, kept verbatim as the reference: it
recomputes every product and bracket inside its triple loop.  The current
sweep reads pairwise products and brackets from N x N tables.  On passing
and on deliberately broken structures, plain and extended over the odd
parameter, both must count the same checks and report the same witnesses
(law, generator names, residual) in the same order.
"""

import pytest

from formality_lab import cartan as ct
from formality_lab import linfty as lf
from formality_lab.linfty import CheckReport
from formality_lab.poly import Poly


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
        tuple(
            (key, tuple((e, v, type(v)) for e, v in p.c.items()))
            for key, p in r.c.items()
        ),
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
