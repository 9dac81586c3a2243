"""Contraction, function multiples and the duality star against the code
they replaced.

``parent_exterior`` keeps ``cartan.contract`` with its own double loop over
term pairs and its own frame-sign helper, the ``Poly`` branch of
``cartan._Exterior.__rmul__`` with its own double loop, and
``ahat.symplectic_star`` scanning every frame of the right degree through
the Leibniz determinant.  Today contraction and function multiples are rules
of the monomial-pair kernel, and the star reads each frame's one partner
frame.  On every frame pair, every frame and seeded elements, both must give
the same keys in the same order, the same values and the same scalar types.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from formality_lab import ahat, cartan
from formality_lab.cartan import Form, MultiVector
from formality_lab.poly import Poly

import parent_exterior as parent
from shared_tools import assert_same_ordered, random_scalar, unit_frames


def _poly(rng, n, nterms=3):
    """A Poly written straight into its dict, so Fraction(n, 1) scalars stay."""
    p = Poly.zero(n)
    for _ in range(nterms):
        v = random_scalar(rng)
        if v:
            p.c[tuple(rng.randint(0, 2) for _ in range(n))] = v
    return p


def _element(rng, cls, n, k, nframes=3):
    keys = list(combinations(range(n), k))
    return cls(n, k, {rng.choice(keys): _poly(rng, n) for _ in range(nframes)})


# -- contraction ------------------------------------------------------------------

def test_contract_rule_matches_parent_on_every_frame_pair():
    for n in range(1, 5):
        for kv in unit_frames(n):
            for kf in unit_frames(n):
                old = parent._contract_rule(kv, kf)
                want = () if old is None else ((old[1], old[0], None, 0),)
                assert cartan._contract_rule(kv, kf) == want, (kv, kf)


def test_contract_matches_parent_on_every_frame_pair():
    rng = random.Random(20330)
    for n in range(1, 5):
        for kv in unit_frames(n):
            for kf in unit_frames(n):
                mv = MultiVector(n, len(kv), {kv: _poly(rng, n) or Poly.const(n, 1)})
                alpha = Form(n, len(kf), {kf: _poly(rng, n) or Poly.const(n, 1)})
                assert_same_ordered(cartan.contract(mv, alpha), parent.contract(mv, alpha))


def test_contract_matches_parent_on_seeded_elements():
    rng = random.Random(20331)
    nonzero = 0
    for n in range(1, 5):
        for _ in range(40):
            kv, kf = rng.randint(0, n), rng.randint(0, n)
            mv = _element(rng, MultiVector, n, kv)
            alpha = _element(rng, Form, n, kf)
            other = _element(rng, Form, n, kf)
            for form in (alpha, alpha + other, alpha - other):
                new = cartan.contract(mv, form)
                assert_same_ordered(new, parent.contract(mv, form))
                nonzero += bool(new.c)
    assert nonzero > 100


# -- function multiples -------------------------------------------------------------

def test_poly_multiple_matches_parent_on_seeded_elements():
    rng = random.Random(20332)
    for n in range(1, 5):
        for cls in (MultiVector, Form):
            for _ in range(30):
                x = _element(rng, cls, n, rng.randint(0, n))
                f = _poly(rng, n, rng.randint(0, 4))
                assert_same_ordered(f * x, parent.poly_multiple(x, f))
                # a function that cancels part of x's terms against another
                y = _element(rng, cls, n, x.k)
                assert_same_ordered(f * (x + y), parent.poly_multiple(x + y, f))
    with pytest.raises(ValueError, match="variable counts differ"):
        Poly.const(2, 1) * Form.function(Poly.const(3, 1))


# -- the duality star ---------------------------------------------------------------

def test_star_matches_parent_on_every_frame():
    for n in (1, 2, 3):
        sd = ahat.SymplecticData(n)
        for J in unit_frames(sd.nvars):
            alpha = Form(sd.nvars, len(J), {J: Poly.const(sd.nvars, 1)})
            assert_same_ordered(ahat.symplectic_star(sd, alpha), parent.symplectic_star(sd, alpha))


def test_star_matches_parent_on_seeded_forms():
    rng = random.Random(20333)
    for n in (1, 2, 3):
        sd = ahat.SymplecticData(n)
        for _ in range(30):
            k = rng.randint(0, sd.nvars)
            alpha = _element(rng, Form, sd.nvars, k, nframes=4)
            beta = alpha + _element(rng, Form, sd.nvars, k)
            for form in (alpha, beta, Fraction(1, 3) * beta):
                assert_same_ordered(ahat.symplectic_star(sd, form), parent.symplectic_star(sd, form))
        above = Form(sd.nvars, sd.nvars + 1)
        assert_same_ordered(ahat.symplectic_star(sd, above), parent.symplectic_star(sd, above))
