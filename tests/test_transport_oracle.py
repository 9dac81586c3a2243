"""The flat-class transport against the code it replaced.

``parent_transport`` keeps the arrows and differentials of ``ahat`` from
when each walked a series' parts in a loop of its own, the two-term
differentials added two whole maps, and the duality star rebuilt the
volume on every call.  Today every arrow and differential is one call of
``SeriesForm.map_parts`` and the star reads each frame's image off a cached
rule.  On seeded series for n = 1, 2, in the default window and in an
``ahat_flat`` window whose top drops parts, each arrow and the composite
``nu0`` must give the same keys in the same order, the same values and the
same scalar types, and each differential the same value; a series that
leaves its window must raise in both.  The star must agree on every frame
for n = 1, 2, 3.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from formality_lab import ahat
from formality_lab.ahat import SeriesForm, WindowOverflow
from formality_lab.cartan import Form, deRham_d
from formality_lab.poly import Poly

import parent_transport as parent
from shared_tools import assert_same_ordered


def _scalar(rng):
    """A nonzero int, Fraction or integral Fraction(n, 1)."""
    r = rng.random()
    v = rng.choice((-3, -2, -1, 1, 2, 3))
    if r < 0.4:
        return v
    if r < 0.7:
        return Fraction(v, rng.randint(2, 3))
    return Fraction(v)


def _form(rng, nvars, k):
    """A degree-k form written straight into its dict, so Fraction(n, 1)
    scalars stay."""
    frames = list(combinations(range(nvars), k))
    out = Form(nvars, k)
    for _ in range(3):
        e = tuple(rng.randint(0, 1) for _ in range(nvars))
        out.c[(rng.choice(frames), e)] = _scalar(rng)
    return out


def _series(rng, sd, twin):
    """A series with one to four parts at small weights."""
    parts = {}
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(0, sd.nvars)
        parts[(rng.randint(-2, 2), rng.randint(-2, 2), k)] = _form(rng, sd.nvars, k)
    return SeriesForm(sd.nvars, parts, twin)


def _samples(n, count):
    """(sd, series) pairs in the default window and in ahat_flat's window at
    nt = 2 and 3, whose top drops parts."""
    rng = random.Random(34000 + n)
    sd = ahat.SymplecticData(n)
    twins = [ahat.TWIN] + [(-max(n, nt), nt) for nt in (2, 3)]
    return sd, [_series(rng, sd, twins[i % 3]) for i in range(count)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WindowOverflow as e:
        return e


def _assert_same(new, old):
    """Both raised the same overflow, or: the same window, the same keys in
    the same order, and forms with the same keys, values and scalar types."""
    if isinstance(old, WindowOverflow):
        assert isinstance(new, WindowOverflow) and str(new) == str(old)
        return
    assert type(new) is SeriesForm
    assert (new.nvars, new.twin) == (old.nvars, old.twin)
    assert list(new.c) == list(old.c)
    for key, form in new.c.items():
        assert_same_ordered(form, old.c[key])


def _arrows():
    """(program arrow, parent arrow) for every arrow of the transport."""
    out = [
        (getattr(ahat, name), getattr(parent, name))
        for name in ("degree_twist", "series_star", "u_regrade", "nu0")
    ]
    for dt, du in ahat._Z_TOKENS.values():
        for sign in (1, -1):
            out.append((
                lambda sd, a, dt=dt, du=du, s=sign: ahat.contract_exp(sd, a, dt, du, s),
                lambda sd, a, dt=dt, du=du, s=sign: parent.contract_exp(sd, a, dt, du, s),
            ))
    out.append((
        lambda sd, a: a.map_form(deRham_d, dt=1),
        lambda sd, a: parent.map_form(a, deRham_d, dt=1),
    ))
    return out


DIFFERENTIALS = ("diff_d", "diff_td", "diff_td_uL", "diff_tL_ud_dressed", "diff_ud_dressed")


@pytest.mark.parametrize("n", [1, 2])
def test_arrows_and_composite_match_parent_key_for_key(n):
    sd, samples = _samples(n, 60)
    arrows = _arrows()
    ran = 0
    for alpha in samples:
        for new, old in arrows:
            want = _outcome(old, sd, alpha)
            _assert_same(_outcome(new, sd, alpha), want)
            ran += not isinstance(want, WindowOverflow)
    # most runs stay in their window
    assert ran > len(samples) * len(arrows) * 3 // 4


@pytest.mark.parametrize("n", [1, 2])
def test_differentials_match_parent_by_value(n):
    sd, samples = _samples(n, 60)
    ran = 0
    for alpha in samples:
        # the stage images too, so every differential sees its own complex
        inputs = [alpha] + [_outcome(arrow, sd, alpha) for _, arrow, _ in parent.pipeline_stages(sd)]
        for a in inputs:
            if isinstance(a, WindowOverflow):
                continue
            for name in DIFFERENTIALS:
                want = _outcome(getattr(parent, name), sd, a)
                got = _outcome(getattr(ahat, name), sd, a)
                if isinstance(want, WindowOverflow):
                    assert isinstance(got, WindowOverflow), name
                    continue
                assert got == want, name
                ran += 1
    assert ran > 1000


def test_star_matches_parent_on_every_frame():
    for n in (1, 2, 3):
        sd = ahat.SymplecticData(n)
        one = Poly.const(sd.nvars, 1)
        for k in range(sd.nvars + 1):
            for J in combinations(range(sd.nvars), k):
                alpha = Form(sd.nvars, k, {J: one})
                assert_same_ordered(ahat.symplectic_star(sd, alpha), parent.symplectic_star(sd, alpha))
                # a Fraction coefficient and a negated one keep their types
                beta = Fraction(-2, 3) * alpha - Form(sd.nvars, k, {J: Poly.var(sd.nvars, 0)})
                assert_same_ordered(ahat.symplectic_star(sd, beta), parent.symplectic_star(sd, beta))
        above = Form(sd.nvars, sd.nvars + 1)
        assert_same_ordered(ahat.symplectic_star(sd, above), parent.symplectic_star(sd, above))


def test_flat_expansion_matches_the_parent_composite():
    for n in (1, 2):
        for nt in (2, 3, 4):
            sd = ahat.SymplecticData(n)
            one = SeriesForm.wrap(Form.function(Poly.const(sd.nvars, 1)), (-max(n, nt), nt))
            _assert_same(ahat.ahat_flat(n, nt).value, parent.nu0(sd, one))
