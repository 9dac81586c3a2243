"""``PolyDiffOperator.apply``, ``Poly.diff_multi`` and ``Poly.diff`` on the
falling-factorial rule against the ``Poly``-object loops they replaced.

``_parent_apply``, ``_parent_diff_multi`` and ``_parent_diff`` are the
previous bodies, kept verbatim as the reference (``apply`` reads the
operator's terms as ``c``, their name since): ``apply`` multiplies
``Poly`` objects slot by slot, and ``diff_multi`` takes one single-variable
``diff`` step per unit of the multi-index.  Inside ``_parent_calculus()``
the three methods run on those bodies, so the reference never reaches
``poly.diff_terms``.  On seeded
inputs the current code must give the same coefficient dicts, with no stored
zeros and with the same scalar type (``int`` or ``Fraction``) per monomial,
so an ``int`` coefficient of the old path is still an ``int``.

``insert`` (``insert_rows`` plus ``assemble``) is compared with the
operator ``insert`` from before insertions were summed as rows, which
``parent_composition()`` restores, running on the reference calculus.

``_parent_splits`` is an earlier body of ``polydiff._splits``, verbatim:
two nested recursive closures.  ``delta_primitive`` now reads its columns
off ``_leibniz_splits`` without the weights, and solves for them in that
order, so the lists must be equal, order included.  That order is
observable: the cup-product defects of the hkr-suite have many primitives,
and ``solve``'s free-variable choice picks one by the column order, which
the pinned primitives below fix.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from formality_lab import deformation as df
from formality_lab import suites
from formality_lab.poly import Poly, monomials_upto
from formality_lab.polydiff import PolyDiffOperator, _leibniz_splits, delta_primitive
from composition import insert, parent_composition
from star_products import _monomial_table_check_associativity

# -- reference: the previous bodies, verbatim ----------------------------------

def _parent_apply(self, args):
    if len(args) != self.arity:
        raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
    total = Poly.zero(self.nvars)
    for key, c in self.c.items():
        p = c
        for alpha, a in zip(key, args):
            if not p:
                break
            p = p * a.diff_multi(alpha)
        total = total + p
    return total


def _parent_diff(self, i):
    out = {}
    for e, v in self.c.items():
        if e[i] == 0:
            continue
        e2 = list(e)
        e2[i] -= 1
        out[tuple(e2)] = v * e[i]
    p = Poly.zero(self.n)
    p.c = out
    return p


def _parent_diff_multi(self, alpha):
    p = self
    for i, k in enumerate(alpha):
        for _ in range(k):
            p = p.diff(i)
            if not p:
                return p
    return p


@contextmanager
def _parent_calculus():
    saved = PolyDiffOperator.apply, Poly.diff_multi, Poly.diff
    PolyDiffOperator.apply = _parent_apply
    Poly.diff_multi, Poly.diff = _parent_diff_multi, _parent_diff
    try:
        yield
    finally:
        PolyDiffOperator.apply, Poly.diff_multi, Poly.diff = saved


# -- seeded inputs ---------------------------------------------------------------

def _scalar(rng, ints):
    if ints or rng.random() < 0.5:
        return rng.choice((-2, -1, 1, 2))
    return Fraction(rng.choice((-3, -1, 1, 3)), rng.choice((2, 3)))


def _poly(rng, n, nterms, ints, top=2):
    return Poly(n, {
        tuple(rng.randint(0, top) for _ in range(n)): _scalar(rng, ints)
        for _ in range(nterms)
    })


def _operator(rng, n, arity, ints):
    """Up to five terms; multi-index entries reach 3, above the arguments'
    exponents (at most 2); coefficients constant or polynomial."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(arity))
        if rng.random() < 0.5:
            terms[key] = _scalar(rng, ints)
        else:
            terms[key] = _poly(rng, n, rng.randint(1, 3), ints, top=1)
    return PolyDiffOperator(n, arity, terms)


def _euler_operator(rng, n, arity, ints):
    """Terms with coefficient +-x^(T_1 + .. + T_n): on monomial arguments
    every term lands on one monomial, so the terms often cancel."""
    terms = {}
    for _ in range(rng.randint(2, 5)):
        key = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(arity))
        total = tuple(map(sum, zip(*key))) if arity else (0,) * n
        terms[key] = Poly.monomial(n, total, rng.choice((-1, 1)))
    return PolyDiffOperator(n, arity, terms)


def _cases(rng, count):
    for _ in range(count):
        n = rng.randint(1, 4)
        arity = rng.randint(0, 3)
        ints = rng.random() < 0.3
        if rng.random() < 0.5:
            op = _operator(rng, n, arity, ints)
            args = [_poly(rng, n, rng.randint(1, 4), ints) for _ in range(arity)]
        else:
            op = _euler_operator(rng, n, arity, ints)
            args = [
                Poly.monomial(n, [rng.randint(1, 2) for _ in range(n)], _scalar(rng, ints))
                for _ in range(arity)
            ]
        yield op, args


def _assert_same_poly(new, old):
    assert type(new) is Poly and new.n == old.n
    assert new.c == old.c
    assert all(new.c.values())  # no stored zero
    for e, v in new.c.items():
        assert type(v) is type(old.c[e])
        assert type(v) in (int, Fraction)


def _apply_both(op, args):
    new = op.apply(args)
    with _parent_calculus():
        old = op.apply(args)
    _assert_same_poly(new, old)
    return new


def _termwise_keys(op, args):
    """Monomials that some single term of ``op`` reaches on ``args``."""
    keys = set()
    with _parent_calculus():
        for key, c in op.c.items():
            keys |= PolyDiffOperator(op.nvars, op.arity, {key: c}).apply(args).c.keys()
    return keys


# -- the comparisons -------------------------------------------------------------

def test_apply_matches_reference_on_seeded_operators():
    rng = random.Random(20270)
    cases = list(_cases(rng, 400))
    cancelled = 0
    ints_kept = 0
    for op, args in cases:
        new = _apply_both(op, args)
        if len(new.c) < len(_termwise_keys(op, args)):
            cancelled += 1
        ints_kept += sum(type(v) is int for v in new.c.values())
    # the inputs do exercise terms that cancel and int-only results
    assert cancelled >= 20
    assert ints_kept >= 100
    assert {op.arity for op, _ in cases} == {0, 1, 2, 3}
    assert {op.nvars for op, _ in cases} == {1, 2, 3, 4}


def test_apply_matches_reference_on_cancelling_terms():
    # x d/dx - 2 kills x^2, and (x + 1) * (x - 1) cancels inside one term
    x = Poly.var(1, 0)
    one = Poly.const(1, 1)
    euler = PolyDiffOperator(1, 1, {((1,),): x, ((0,),): Poly.const(1, -2)})
    assert not _apply_both(euler, [x * x])
    assert _apply_both(euler, [x * x * x + x]) == x * x * x - x
    prod = PolyDiffOperator(1, 2, {((0,), (0,)): x + one})
    assert _apply_both(prod, [x - one, one]) == x * x - one
    half = Fraction(1, 2)
    mixed = PolyDiffOperator(1, 2, {((1,), (0,)): half * x, ((0,), (1,)): -half * x})
    assert not _apply_both(mixed, [x * x, x * x])


def test_diff_multi_and_diff_match_reference():
    rng = random.Random(20271)
    for _ in range(300):
        n = rng.randint(1, 4)
        p = _poly(rng, n, rng.randint(0, 5), rng.random() < 0.3, top=3)
        alpha = tuple(rng.randint(0, 4) for _ in range(n))
        i = rng.randrange(n)
        new = p.diff_multi(alpha), p.diff(i)
        with _parent_calculus():
            old = p.diff_multi(alpha), p.diff(i)
        for a, b in zip(new, old):
            _assert_same_poly(a, b)
        zero = (0,) * n
        assert p.diff_multi(zero) is p
        with _parent_calculus():
            assert p.diff_multi(zero) is p


def test_insert_matches_reference():
    rng = random.Random(20272)
    for _ in range(60):
        n = rng.randint(1, 3)
        D = _operator(rng, n, rng.randint(1, 3), False)
        E = _operator(rng, n, rng.randint(0, 2), False)
        pos = rng.randrange(D.arity)
        new = insert(D, E, pos)
        with _parent_calculus(), parent_composition():
            old = D.insert(E, pos)
        assert new.arity == old.arity
        assert list(new.c) == list(old.c)
        for key, c in new.c.items():
            _assert_same_poly(c, old.c[key])
            assert list(c.c) == list(old.c[key].c)


# The benchmark's deformation patterns: (variables, t-order, upper-triangle
# nonzeros), with entries drawn as its seeded matrices draw them.
STAR_PATTERNS = {
    "star4": (4, 4, ((0, 1), (2, 3))),
    "star3": (3, 3, ((0, 1), (1, 2))),
}


def _star_matrix(n, pattern, rng):
    m = [[0] * n for _ in range(n)]
    for i, j in pattern:
        v = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
        if rng.random() < 0.5:
            v = -v
        m[i][j], m[j][i] = v, -v
    return m


def _star_products():
    rng = random.Random(5)
    for name, (n, nt, pattern) in STAR_PATTERNS.items():
        yield name, df.moyal(_star_matrix(n, pattern, rng), nt)
    yield "skewed", suites._skewed_product()


@pytest.mark.parametrize("name", ["star4", "star3", "skewed"])
def test_star_products_match_reference(name):
    s = dict(_star_products())[name]
    n = s.model.nvars
    monos = [Poly.monomial(n, e) for e in monomials_upto(n, 2)]
    for op in s.ops.values():
        for f, g in product(monos, repeat=2):
            _apply_both(op, [f, g])
    # series values with several Fraction terms, as the associativity sweep
    # feeds them back in
    rng = random.Random(20273)
    for _ in range(25):
        f, g, h = (rng.choice(monos) for _ in range(3))
        fg = s.star(f, g)
        for v in fg.values():
            for op in s.ops.values():
                _apply_both(op, [v, h])
                _apply_both(op, [h, v])
        new = s.star_series(fg, {0: h})
        with _parent_calculus():
            old = s.star_series(s.star(f, g), {0: h})
        assert new.keys() == old.keys()
        for k, v in new.items():
            _assert_same_poly(v, old[k])


def test_skewed_product_associativity_matches_reference():
    s = suites._skewed_product()
    new = df.check_associativity(s, degree=2)
    with _parent_calculus():
        # the sweep itself no longer calls apply; its previous body does
        old = _monomial_table_check_associativity(s, degree=2)
    assert new.checked == old.checked == 6 ** 3
    assert new.witnesses == old.witnesses and new.witnesses


def test_variable_count_mismatch_raises():
    D = PolyDiffOperator(2, 2, {((1, 0), (0, 1)): 1})
    wide = Poly.var(3, 0)
    narrow = Poly.var(1, 0)
    x = Poly.var(2, 0)
    for args in ([x, wide], [wide, x]):
        with pytest.raises(ValueError):
            D.apply(args)
        with _parent_calculus(), pytest.raises(ValueError):
            D.apply(args)
    # the old loop raised IndexError here, or nothing once a slot vanished
    for args in ([x, narrow], [Poly.var(2, 1), wide]):
        with pytest.raises(ValueError):
            D.apply(args)
    with pytest.raises(ValueError):
        x.diff_multi((1, 0, 0))


def _parent_splits(tau, slots):
    """All ordered tuples of `slots` multi-indices summing to tau."""
    nv = len(tau)
    per_var = []
    for v in range(nv):
        combos = []
        def rec(remaining, parts):
            if len(parts) == slots - 1:
                combos.append(parts + [remaining])
                return
            for take in range(remaining + 1):
                rec(remaining - take, parts + [take])
        rec(tau[v], [])
        per_var.append(combos)
    out = []
    def build(v, acc):
        if v == nv:
            keys = tuple(tuple(acc[w][s] for w in range(nv)) for s in range(slots))
            out.append(keys)
            return
        for combo in per_var[v]:
            build(v + 1, acc + [combo])
    build(0, [])
    return out


def test_splits_match_reference_in_order():
    cases = [((), 1), ((), 3)]
    for nv in (1, 2, 3):
        cases += [(tau, slots) for tau in product(range(4), repeat=nv) for slots in range(1, 5)]
    for tau, slots in cases:
        got = [split for split, _ in _leibniz_splits(tau, slots)]
        assert got == _parent_splits(tau, slots), (tau, slots)


# the primitives of the hkr-suite's seeded product defects 0 and 2 (seed
# 305), as {derivative key: {exponent: coefficient}}
PINNED_PRIMITIVES = {
    0: {
        ((0, 1), (0, 1), (2, 0)): {(0, 0): 2, (0, 1): 2},
        ((0, 1), (1, 0), (1, 1)): {(0, 0): 2, (0, 1): 2},
        ((0, 1), (1, 1), (1, 0)): {(0, 0): 4, (0, 1): 4},
        ((1, 0), (0, 1), (1, 1)): {(0, 0): -2, (0, 1): -2},
        ((1, 0), (0, 2), (1, 0)): {(0, 0): -2, (0, 1): -2},
    },
    2: {
        ((0, 1), (0, 1), (2, 0)): {(0, 1): -1},
        ((0, 1), (1, 0), (1, 1)): {(0, 1): -1},
        ((0, 1), (1, 1), (1, 0)): {(0, 1): -2},
        ((1, 0), (0, 1), (1, 1)): {(0, 1): 1},
        ((1, 0), (0, 2), (1, 0)): {(0, 1): 1},
    },
}


def test_delta_primitive_picks_the_pinned_primitive():
    defects = {i: d for d, i, what in suites._hkr_defects() if what == "product"}
    for i, want in PINNED_PRIMITIVES.items():
        Y = delta_primitive(defects[i])
        assert {key: dict(p.c) for key, p in Y.c.items()} == want, i
