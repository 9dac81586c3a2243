"""Operator composition against the composition it replaced.

The program builds each insertion as rows {key: {inner key: scalar}}
(``insert_rows``), adds the signed insertions of a bracket row by row, one
insertion at a time (``circle_rows``), and builds the result once
(``assemble``); ``mc_residual`` takes one 2-bracket per unordered pair of
orders and reads the mirrored one off it by graded antisymmetry.  The
reference is the previous ``insert``, ``circle``, ``bracket`` and
``_series_bracket``, kept verbatim in ``composition.py`` and switched on by
``parent_composition()``: one container per insertion, summed with ``+``
and ``-``, and every ordered pair of orders bracketed.  On seeded operators
with polynomial coefficients, elements, the benchmark's star products, the
suite's products and cochain tables, every composition must give the same
keys in the same order, the same values and the same scalar type (``int``
or ``Fraction``) per value, with no stored zero.  A cochain is composed in
the reference as a nested-table ``parent_cochain.Cochain``, and the flat
result must hold that table's terms read row by row.

``mc_residual`` clears the series' denominators once and brackets integer
numerators.  Its reference is the previous body, kept verbatim in
``composition.py`` as ``_parent_mc_residual`` and run on the reference
series inside ``parent_composition()``: the ``Fraction(1, n!)`` sum of every
ordered bracket.  On the benchmark's star products at three seeds, the
suite's products, a series with coprime denominators, series of mixed
degrees and curved Schouten series, the residuals must have the same orders
and be equal by value, and every scalar of the program's residual must be
nonzero and ``rational``-normal (an ``int`` when integral, never
``Fraction(n, 1)``).  Scalar types are not compared there: the reference
stores ``Fraction(n, 1)`` where a ``Fraction(1, n!)`` multiple is integral,
and key order is not compared either, since a mirrored term is the negated
[x_i, x_j], whose keys come in that bracket's order.  The program only tests
a residual for zero or evaluates it.  On flat products the residual builds
no more ``Fraction``s than its series holds scalars.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from composition import (
    _parent_circle,
    _parent_leibniz_splits,
    _parent_mc_residual,
    circle,
    insert,
    parent_composition,
)
from formality_lab import cartan as ct
from formality_lab import deformation as df
from formality_lab import hochschild as hh
from formality_lab import linfty as lf
from formality_lab import polydiff as pd
from formality_lab import suites
from formality_lab.algebras import dual_numbers, mat2_unital, trunc_poly_algebra
from formality_lab.core.basis import common_denominator, rational
from formality_lab.poly import Poly
from formality_lab.polydiff import PolyDiffOperator
from fraction_count import counting_fractions
from parent_cochain import Cochain as ParentCochain
from parent_cochain import flat, reference
from shared_tools import leaves
from star_products import _mixed_order_product, _seeded_moyal

# -- comparison --------------------------------------------------------------------


def _assert_same_scalars(new, old, ordered=True):
    assert new == old
    assert not ordered or list(new) == list(old)
    for key, v in new.items():
        assert v, f"stored zero at {key}"
        assert type(v) in (int, Fraction)
        assert type(v) is type(old[key]), key


def _assert_same(new, old, ordered=True):
    """Same keys (in the same order unless not ``ordered``), values and
    scalar types; a cochain against the reference table read row by row."""
    assert new.arity == old.arity
    if isinstance(new, hh.Cochain):
        assert type(old) is ParentCochain and new.algebra is old.algebra
        _assert_same_scalars(new.c, flat(old), ordered)
        return
    assert type(new) is type(old) is PolyDiffOperator
    assert new.nvars == old.nvars
    rows, old_rows = new.c, old.c
    for p in rows.values():
        assert type(p) is Poly and p.n == new.nvars
    rows = {key: p.c for key, p in rows.items()}
    old_rows = {key: p.c for key, p in old_rows.items()}
    assert rows.keys() == old_rows.keys()
    assert not ordered or list(rows) == list(old_rows)
    for key, row in rows.items():
        _assert_same_scalars(row, old_rows[key], ordered)


def _assert_same_residual(new, old):
    """Equal by value at every order, and every scalar of ``new`` nonzero and
    ``rational``-normal: an ``int`` when integral, never ``Fraction(n, 1)``.
    The reference sums ``Fraction(1, n!)`` multiples and may store
    ``Fraction(n, 1)`` where the program stores ``n``."""
    assert list(new) == list(old)
    for k, v in new.items():
        w = old[k]
        if isinstance(v, hh.Cochain):
            assert type(w) is ParentCochain and v.algebra is w.algebra
            assert v.arity == w.arity and v.c == flat(w)
        else:
            assert type(v) is type(w) and v == w
        for x in leaves(v):
            assert x and type(x) in (int, Fraction) and rational(x) is x, (k, x)


def _reference(x):
    """A cochain as the reference cochain; an operator as it is."""
    return reference(x) if isinstance(x, hh.Cochain) else x


def _compare_compositions(D, E):
    """Every insertion, both insertion sums and the bracket of D and E."""
    P, Q = _reference(D), _reference(E)
    with parent_composition():
        old = (
            [P.insert(Q, j) for j in range(P.arity)]
            + [Q.insert(P, j) for j in range(Q.arity)]
            + [_parent_circle(P, Q), _parent_circle(Q, P), hh.bracket(P, Q)]
        )
    new = (
        [insert(D, E, j) for j in range(D.arity)]
        + [insert(E, D, j) for j in range(E.arity)]
        + [circle(D, E), circle(E, D), hh.bracket(D, E)]
    )
    assert len(new) == len(old)
    for a, b in zip(new, old):
        _assert_same(a, b)
    return new[-1]


def _compare_residual(pi, make=suites._operator_dgla):
    """mc_residual against the reference residual of the reference series:
    the ``Fraction(1, n!)`` sum of every ordered bracket."""
    new = lf.mc_residual(make(), pi)
    ref = lf.MCElement({k: _reference(v) for k, v in pi.c.items()}, pi.nt)
    with parent_composition():
        old = _parent_mc_residual(make(), ref)
    _assert_same_residual(new, old)
    return new


# -- seeded inputs -------------------------------------------------------------------


def _scalar(rng):
    if rng.random() < 0.5:
        return rng.choice((-2, -1, 1, 2))
    return Fraction(rng.choice((-3, -1, 1, 3)), rng.choice((2, 3)))


def _poly(rng, n, nterms, top):
    return Poly(n, {
        tuple(rng.randint(0, top) for _ in range(n)): _scalar(rng)
        for _ in range(nterms)
    })


def _operator(rng, n, arity):
    """Up to four terms, multi-index entries up to 2; about three in four
    coefficients are polynomials of degree up to 2 in each variable."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(arity))
        if rng.random() < 0.25:
            terms[key] = _scalar(rng)
        else:
            terms[key] = _poly(rng, n, rng.randint(1, 3), 2)
    return PolyDiffOperator(n, arity, terms)


def _star_corrections():
    """The benchmark's two seeded constant star products, as
    ``test_associativity_oracle`` draws them."""
    return [
        _seeded_moyal(4, 4, ((0, 1), (2, 3)), seed=5),
        _seeded_moyal(3, 3, ((0, 1), (1, 2)), seed=17),
    ]


def _benchmark_stars():
    """The benchmark's 4- and 3-variable products at three seeds each."""
    return [
        star
        for seed in (5, 17, 29)
        for star in (
            _seeded_moyal(4, 4, ((0, 1), (2, 3)), seed=seed),
            _seeded_moyal(3, 3, ((0, 1), (1, 2)), seed=seed),
        )
    ]


def _coprime_series():
    """A non-flat operator series whose scalars carry the coprime
    denominators 2, 3 and 5, on polynomial coefficients."""
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    half, third, fifth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    p1 = PolyDiffOperator(
        2, 2, {((1, 0), (0, 1)): half * y, ((0, 1), (1, 0)): -third, ((1, 1), (0, 0)): fifth * x}
    )
    one = Poly.const(2, 1)
    p2 = PolyDiffOperator(
        2, 2, {((1, 1), (0, 1)): 2 * fifth * x * y, ((2, 0), (0, 0)): third * x + half * one}
    )
    p3 = PolyDiffOperator(2, 2, {((0, 1), (0, 2)): fifth * y * y - third * one})
    return lf.MCElement({1: p1, 2: p2, 3: p3}, 4)


def _suite_products():
    return [suites._moyal_plane(), suites._skewed_product(), _mixed_order_product()]


# -- insert, circle and bracket -----------------------------------------------------------


def test_compositions_match_reference_on_seeded_operators():
    rng = random.Random(18001)
    arities = set()
    polynomial = 0
    nonzero = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        D = _operator(rng, n, rng.randint(0, 3))
        E = _operator(rng, n, rng.randint(0, 3))
        arities.add((D.arity, E.arity))
        polynomial += any(any(map(any, p.c)) for p in D.c.values())
        nonzero += bool(_compare_compositions(D, E))
    # every pair of arities up to 3 came up, elements (arity 0) included
    assert arities == set(product(range(4), repeat=2))
    assert polynomial >= 100
    assert nonzero >= 100


def test_inserted_elements_match_reference():
    # an element (arity 0) has no slots: only the parts s0 = alpha of the
    # Leibniz rule land, on its polynomial
    rng = random.Random(18002)
    landed = 0
    for _ in range(80):
        n = rng.randint(1, 3)
        D = _operator(rng, n, rng.randint(1, 3))
        a = PolyDiffOperator.element(_poly(rng, n, rng.randint(1, 4), 3))
        for j in range(D.arity):
            with parent_composition():
                old = D.insert(a, j)
            new = insert(D, a, j)
            _assert_same(new, old)
            landed += bool(new)
        _compare_compositions(D, a)
        _compare_compositions(a, D)
    assert landed >= 40


def test_star_corrections_match_reference():
    # the pairs of orders that the Maurer-Cartan residual brackets
    for s in _star_corrections() + _suite_products():
        for (i, D), (j, E) in product(s.ops.items(), repeat=2):
            if i + j <= s.nt:
                _compare_compositions(D, E)
        ops = list(s.ops.values())
        m = PolyDiffOperator.multiplication(s.model.nvars)
        for D in ops:
            _compare_compositions(m, D)
            with parent_composition():
                old = pd.delta(D)
            _assert_same(pd.delta(D), old)


def test_cochain_brackets_match_reference():
    for A in (dual_numbers(), trunc_poly_algebra(3)):
        cochains = [c for ar in range(3) for c in hh.basis_cochains(A, ar)]
        for D, E in product(cochains, repeat=2):
            _compare_compositions(D, E)
    # seeded tables with Fraction values and several outputs per input
    rng = random.Random(18003)
    A = mat2_unital()
    for _ in range(40):
        D, E = (_cochain(rng, A, rng.randint(0, 3)) for _ in range(2))
        _compare_compositions(D, E)


def _cochain(rng, A, arity):
    table = {}
    for _ in range(rng.randint(1, 4)):
        tup = tuple(rng.randrange(A.dim) for _ in range(arity))
        table[tup] = {rng.randrange(A.dim): _scalar(rng) for _ in range(2)}
    return hh.Cochain(A, arity, table)


# -- the Maurer-Cartan residual ----------------------------------------------------------


def test_mc_residuals_match_reference():
    residuals = []
    for s in _benchmark_stars() + _suite_products():
        residuals.append(_compare_residual(df.star_to_mc(s)))
    # flat products have no residual; the skewed and the mixed-order ones do
    assert [sorted(r) for r in residuals] == [[]] * 7 + [[2], [1, 2, 3]]


def test_mc_residual_builds_no_fractions_beyond_its_series():
    # the series is cleared and bracketed on integer numerators: only a
    # non-integral scalar of the residual builds a Fraction, and these
    # products are flat
    S = suites._operator_dgla()
    for s, scalars in ((suites._moyal_plane(), 14), (_star_corrections()[0], 69)):
        pi = df.star_to_mc(s)
        assert sum(len(p.c) for op in pi.c.values() for p in op.c.values()) == scalars
        with counting_fractions() as count:
            assert lf.mc_residual(S, pi) == {}
        assert count.built <= scalars


def test_mc_residual_with_coprime_denominators_matches_reference():
    pi = _coprime_series()
    assert common_denominator(pi) == 30
    res = _compare_residual(pi)
    assert sorted(res) == [1, 2, 3, 4]
    assert any(type(x) is Fraction for v in res.values() for x in leaves(v))


def test_curved_schouten_residuals_match_reference():
    # the curved series of test_linfty, and one with fractional scalars and
    # a second order
    one3, x3, y3 = Poly.const(3, 1), Poly.var(3, 0), Poly.var(3, 1)
    curved = ct.MultiVector(3, 2, {(0, 1): one3, (0, 2): x3})
    second = ct.MultiVector(3, 2, {(1, 2): Fraction(1, 3) * x3 * y3, (0, 1): Fraction(-1, 2) * y3})
    fractional = ct.MultiVector(3, 2, {(0, 1): Fraction(1, 2) * one3, (0, 2): Fraction(2, 5) * x3})
    schouten = suites._schouten_structure
    res = _compare_residual(lf.MCElement({1: curved}, 4), schouten)
    assert sorted(res) == [2] and res[2] == ct.jacobiator(curved)
    res = _compare_residual(lf.MCElement({1: fractional, 2: second}, 4), schouten)
    assert sorted(res) == [2, 3]
    assert any(type(x) is Fraction for v in res.values() for x in leaves(v))


def test_mc_residual_of_mixed_degrees_matches_reference():
    # the part x_k of order k has arity k (bracket degree k - 1), so every
    # order of the bracket term has one arity.  Order 3 is [x_1, x_2] +
    # [x_2, x_1], which cancels (even degrees), and order 6 holds [x_2, x_4]
    # + [x_4, x_2], which doubles (odd degrees): both signs of
    # [y, x] = -(-1)^(|x||y|) [x, y].  There is no differential, which
    # would put arity k + 1 at order k.
    def operator_bracket():
        return lf.LInftyStructure(
            lambda op: op.arity - 1, {2: lambda a: pd.bracket(a[0], a[1])}
        )

    def cochain_bracket():
        return lf.LInftyStructure(
            lambda c: c.arity - 1, {2: lambda a: hh.bracket(a[0], a[1])}
        )

    rng = random.Random(18004)
    A = trunc_poly_algebra(3)
    for make, draw in (
        (operator_bracket, lambda k, n: _operator(rng, n, k)),
        (cochain_bracket, lambda k, n: _cochain(rng, A, k)),
    ):
        cancelled = doubled = 0
        for _ in range(8):
            n = rng.randint(1, 2)
            pi = lf.MCElement({k: draw(k, n) for k in (1, 2, 3, 4)}, 6)
            res = _compare_residual(pi, make)
            assert 3 not in res
            cancelled += bool(hh.bracket(pi.c[1], pi.c[2]))
            doubled += 6 in res
        assert cancelled >= 4 and doubled >= 2


def test_bracket_is_called_once_per_unordered_pair():
    calls = []

    def counted(D, E):
        calls.append((D.arity, E.arity))
        return pd.bracket(D, E)

    s = _star_corrections()[0]  # orders 1..4
    S = lf.dgla(lambda op: op.arity - 1, pd.delta, counted, [])
    assert lf.mc_residual(S, df.star_to_mc(s)) == {}
    # pairs of orders (i, j) with i <= j and i + j <= 4, of the 6 ordered ones
    assert len(calls) == 4


# -- helpers and space checks ------------------------------------------------------------


def test_landing_splits_keep_the_reference_order():
    rng = random.Random(18005)
    for _ in range(40):
        nv = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, 3) for _ in range(nv))
        top = tuple(rng.randint(0, 3) for _ in range(nv))
        m = rng.randint(0, 3)
        assert pd._landing_splits(alpha, top, m) == tuple(
            (split[0], split[1:], w)
            for split, w in _parent_leibniz_splits(alpha, m + 1)
            if all(s <= t for s, t in zip(split[0], top))
        )
    # an element (m = 0) takes all of alpha on its coefficient, or nothing
    assert pd._landing_splits((1, 2), (1, 2), 0) == (((1, 2), (), 1),)
    assert pd._landing_splits((1, 2), (2, 1), 0) == ()


def _mismatched_operators():
    x2, x3 = Poly.var(2, 0), Poly.var(3, 0)
    e2, e3 = PolyDiffOperator.element(x2), PolyDiffOperator.element(x3)
    d2 = PolyDiffOperator(2, 1, {((1, 0),): x2})
    m3 = PolyDiffOperator.multiplication(3)
    return [(e2, e3), (e3, e2), (e2, m3), (m3, e2), (d2, m3), (d2, e3)]


def _mismatched_cochains():
    A, B = dual_numbers(), dual_numbers()
    pairs = []
    for ar, br in ((0, 0), (0, 1), (1, 0), (2, 1), (1, 2)):
        pairs.append((hh.basis_cochains(A, ar)[1], hh.basis_cochains(B, br)[1]))
    return pairs


@pytest.mark.parametrize("make", [_mismatched_operators, _mismatched_cochains])
def test_bracket_refuses_different_spaces(make):
    # two elements have no slots to insert into, so nothing is composed:
    # the check must not ride on an insertion
    for D, E in make():
        with pytest.raises(ValueError):
            hh.bracket(D, E)
        with parent_composition(), pytest.raises(ValueError):
            hh.bracket(_reference(D), _reference(E))
