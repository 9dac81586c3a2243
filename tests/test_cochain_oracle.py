"""The flat ``Cochain`` against the nested-table cochain it replaced.

``hochschild.Cochain`` is a ``core.basis.Sparse`` whose dict holds
(input tuple, output index) -> scalar.  The reference is the previous
class, kept verbatim in ``parent_cochain`` with its own arithmetic and its
``apply``, ``reduce``, ``is_reduced``, ``insert_rows`` and ``assemble``,
with the previous ``cup``, ``delta`` and ``lie_action``, and, inside
``composition.parent_composition()``, with the older ``insert`` and
``zero_of`` under the older ``bracket``.  The flat class's ``element`` and
``apply`` live in ``algebra_tools``, and are checked here against the
reference's methods of those names.

On seeded cochains of arity 0 to 3 with ``int`` and ``Fraction`` values,
over the dual numbers, M_2(Q) and Q[x]/(x^4), every result must be equal by
value, with the same scalar type per value and no stored zero.
Constructions, insertions and brackets must also list their terms in the
order of the reference table read row by row.  Sums, cups and coboundaries
need not: a flat sum lists a new output of an existing input last, where
the table puts it in its input's row.
"""

import random
from fractions import Fraction
from itertools import product

from algebra_tools import apply, element
from composition import _parent_bracket, insert, parent_composition
from formality_lab import hochschild as hh
from formality_lab.algebras import dual_numbers, mat2_unital, trunc_poly_algebra
from formality_lab.hochschild import Chain, Cochain
from parent_cochain import Cochain as ParentCochain
from parent_cochain import cup as parent_cup
from parent_cochain import delta as parent_delta
from parent_cochain import flat
from parent_cochain import lie_action as parent_lie_action

ALGEBRAS = (dual_numbers, mat2_unital, lambda: trunc_poly_algebra(3))
SCALARS = (0, 1, -1, 2, Fraction(1, 1), Fraction(-2, 3))


def _same_terms(new, old, ordered):
    assert new == old
    assert not ordered or list(new) == list(old)
    for key, v in new.items():
        assert v, f"stored zero at {key}"
        assert type(v) in (int, Fraction)
        assert type(v) is type(old[key]), key


def _same(new, old, ordered=False):
    """The flat cochain ``new`` holds the terms of the reference ``old``."""
    assert type(new) is Cochain and type(old) is ParentCochain
    assert new.algebra is old.algebra and new.arity == old.arity
    _same_terms(new.c, flat(old), ordered)


def _scalar(rng):
    return rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)))


def _tuple(rng, A, length):
    return tuple(rng.randrange(A.dim) for _ in range(length))


def _table(rng, A, arity):
    table = {}
    for _ in range(rng.randint(1, 4)):
        table[_tuple(rng, A, arity)] = {rng.randrange(A.dim): _scalar(rng) for _ in range(2)}
    return table


def _pair(A, arity, table):
    """The flat and the reference cochain built from one table."""
    x, p = Cochain(A, arity, table), ParentCochain(A, arity, table)
    _same(x, p, ordered=True)
    return x, p


def _seeded(rng, A, count):
    """(flat, reference) pairs: the product, and seeded tables of every
    arity up to 3, some of them cancelling part of an earlier one."""
    out = [(Cochain.multiplication(A), ParentCochain.multiplication(A))]
    _same(*out[0], ordered=True)
    tables = []
    for _ in range(count):
        arity = rng.randint(0, 3)
        table = _table(rng, A, arity)
        same = [t for t in tables if len(next(iter(t))) == arity]
        if same and rng.random() < 0.4:
            for tup, row in rng.choice(same).items():
                if rng.random() < 0.6:
                    table[tup] = {k: -v for k, v in row.items()}
        tables.append(table)
        out.append(_pair(A, arity, table))
    return out


def _vector(rng, A):
    return {i: _scalar(rng) for i in rng.sample(range(A.dim), rng.randint(1, A.dim))}


def test_constructors_and_readers_match_the_reference():
    rng = random.Random(2301)
    for make in ALGEBRAS:
        A = make()
        v = _vector(rng, A)
        _same(element(A, v), ParentCochain.element(A, v), ordered=True)
        _same(Cochain.zero(A, 2), ParentCochain.zero(A, 2), ordered=True)
        for x, p in _seeded(rng, A, 30):
            args = [_vector(rng, A) for _ in range(x.arity)]
            _same_terms(apply(x, args), p.apply(args), ordered=True)
            assert x.is_reduced() == p.is_reduced()
            _same(x.reduce(), p.reduce(), ordered=True)
            assert bool(x) == bool(p) and x.is_zero() == p.is_zero()


def test_vector_space_operations_match_the_reference():
    rng = random.Random(2302)
    checked = 0
    for make in ALGEBRAS:
        A = make()
        pairs = _seeded(rng, A, 30)
        for (x, p), (y, q) in product(pairs, repeat=2):
            for s in SCALARS:
                _same(s * x, s * p)
            _same(-x, -p)
            assert (x == y) == (p == q) and (x == -(-x)) == (p == -(-p))
            if (x.arity, x.algebra) != (y.arity, y.algebra):
                continue
            _same(x + y, p + q)
            _same(x - y, p - q)
            _same(x + (-1) * y, p + (-1) * q)
            checked += 1
    assert checked >= 300


def test_products_match_the_reference():
    rng = random.Random(2303)
    nonzero = 0
    for make in ALGEBRAS:
        A = make()
        pairs = _seeded(rng, A, 14)
        for x, p in pairs:
            _same(hh.delta(x), parent_delta(p))
        for (x, p), (y, q) in product(pairs, repeat=2):
            _same(hh.cup(x, y), parent_cup(p, q))
            new = hh.bracket(x, y)
            _same(new, hh.bracket(p, q), ordered=True)
            nonzero += bool(new)
            for j in range(x.arity):
                _same(insert(x, y, j), insert(p, q, j), ordered=True)
            with parent_composition():
                _same(new, _parent_bracket(p, q), ordered=True)
                for j in range(x.arity):
                    _same(insert(x, y, j), p.insert(q, j), ordered=True)
    assert nonzero >= 300


def test_lie_action_matches_the_reference():
    rng = random.Random(2304)
    for make in ALGEBRAS:
        A = make()
        chains = [
            Chain(A, n, {_tuple(rng, A, n + 1): _scalar(rng) for _ in range(4)})
            for n in range(4)
            for _ in range(3)
        ]
        for x, p in _seeded(rng, A, 20):
            if not x.arity:
                continue
            for ch in chains:
                got, want = hh.lie_action(x, ch), parent_lie_action(p, ch)
                assert got == want and got.n == want.n
                _same_terms(got.c, want.c, ordered=False)
