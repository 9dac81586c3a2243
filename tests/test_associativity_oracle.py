"""The associativity and trace sweeps with their pair tables against the
sweeps without them, and the guarded ``star_series`` against the unguarded.

``_untabled_check_associativity`` is the previous body of
``deformation.check_associativity``, kept verbatim as the reference: it
builds f*g and g*h afresh for every triple.  ``_untabled_trace_defect`` is
the previous ``deformation.trace_defect``, also verbatim: it builds f*g and
g*f for every ordered pair.  The current sweeps read their products from one
table of pairwise products; they must count the same checks and return the
same witnesses in the same order.

``_unguarded_star_series`` is the previous body of
``StarProduct.star_series``, kept verbatim: it applies every correction to
every pair of entries.  The current one skips a correction when an argument's
total degree is below that slot's reach; it must return the same dict, with
the same scalar type on every monomial.
"""

import random
from fractions import Fraction

from formality_lab import deformation as df
from formality_lab import polydiff as pd
from formality_lab import suites
from formality_lab.algebras import FunctionModel
from formality_lab.core.basis import add_term
from formality_lab.deformation import StarReport, TraceCandidate
from formality_lab.poly import Poly, monomials_upto


def _untabled_check_associativity(s, degree=None):
    """(f*g)*h - f*(g*h) on all monomial triples up to ``degree``.

    Witnesses are (exponent triple, t-order, defect polynomial).
    """
    if degree is None:
        degree = s.model.cap
    n = s.model.nvars
    monos = monomials_upto(n, degree)
    witnesses = []
    checked = 0
    for ea in monos:
        fa = {0: Poly.monomial(n, ea)}
        for eb in monos:
            fb = Poly.monomial(n, eb)
            ab = s.star_series(fa, {0: fb})
            for ec in monos:
                fc = {0: Poly.monomial(n, ec)}
                bc = s.star_series({0: fb}, fc)
                lhs = s.star_series(ab, fc)
                rhs = s.star_series(fa, bc)
                checked += 1
                for k in sorted(set(lhs) | set(rhs)):
                    d = lhs.get(k, Poly.zero(n)) - rhs.get(k, Poly.zero(n))
                    if not d.is_zero():
                        witnesses.append(((ea, eb, ec), k, d))
    return StarReport(checked, witnesses)


def _assert_same_report(s):
    new = df.check_associativity(s)
    old = _untabled_check_associativity(s)
    assert new.checked == old.checked
    assert new.witnesses == old.witnesses
    return new


def test_moyal_plane_matches_untabled_sweep():
    rep = _assert_same_report(suites._moyal_plane())
    assert rep.ok and rep.checked == 15 ** 3


def test_skewed_product_matches_untabled_sweep():
    rep = _assert_same_report(suites._skewed_product())
    assert rep.witnesses and rep.checked == 15 ** 3


def _untabled_trace_defect(tau, s, degree=None):
    """tau(f*g - g*f) over monomial pairs; witnesses carry the series value."""
    if degree is None:
        degree = s.model.cap
    n = s.model.nvars
    monos = monomials_upto(n, degree)
    witnesses = []
    checked = 0
    for ea in monos:
        fa = Poly.monomial(n, ea)
        for eb in monos:
            fb = Poly.monomial(n, eb)
            fwd = s.star(fa, fb)
            bwd = s.star(fb, fa)
            comm = {}
            for k in set(fwd) | set(bwd):
                d = fwd.get(k, Poly.zero(n)) - bwd.get(k, Poly.zero(n))
                if not d.is_zero():
                    comm[k] = d
            val = tau.evaluate_orders(comm)
            checked += 1
            if not val.is_zero():
                witnesses.append(((ea, eb), val))
    return StarReport(checked, witnesses)


def test_trace_defect_matches_untabled_sweep():
    for s in (suites._moyal_plane(), suites._skewed_product()):
        n = s.model.nvars
        for coeffs in ({(0,) * n: 1}, {(1,) * n: 3, (0,) * n: -1}, {}):
            tau = TraceCandidate(n, coeffs, s.nt)
            for degree in (2, None):
                new = df.trace_defect(tau, s, degree=degree)
                old = _untabled_trace_defect(tau, s, degree=degree)
                assert new.checked == old.checked
                assert new.witnesses == old.witnesses
    assert new.checked == 15 ** 2  # the last sweep ran to the model's cap


def _unguarded_star_series(s, a, b):
    """Convolution of two {order: polynomial} dictionaries."""
    out = {}
    for ka, fa in a.items():
        for kb, fb in b.items():
            base = ka + kb
            if base > s.nt:
                continue
            add_term(out, base, fa * fb)
            for m, op in s.ops.items():
                k = base + m
                if k <= s.nt:
                    add_term(out, k, op.apply([fa, fb]))
    return out


def _seeded_moyal(n, nt, pattern, seed):
    """Constant Moyal product, nonzero exactly on ``pattern`` and its mirror,
    with seeded entries in +-{1, 2, 3}/{1, 2, 3}."""
    rng = random.Random(seed)
    pi = [[Fraction(0)] * n for _ in range(n)]
    for i, j in pattern:
        v = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
        if rng.random() < 0.5:
            v = -v
        pi[i][j], pi[j][i] = v, -v
    return df.moyal(pi, nt, FunctionModel(n, 2))


def _mixed_order_product():
    """Corrections whose terms take different orders in each slot."""
    x = Poly.var(2, 0)
    p1 = pd.PolyDiffOperator(2, 2, {((1, 0), (1, 0)): 1, ((2, 0), (0, 1)): x})
    p2 = pd.PolyDiffOperator(
        2, 2, {((2, 0), (1, 0)): Fraction(1, 3), ((1, 1), (0, 2)): x}
    )
    return df.StarProduct(FunctionModel(2, 2), {1: p1, 2: p2}, 3)


def _assert_same_series(new, old):
    assert new == old
    for k, f in new.items():
        assert f, f"stored zero at order {k}"
        for e, v in f.c.items():
            assert v
            assert type(v) is type(old[k].c[e]), (k, e)


def _assert_guard_is_exact(s):
    n = s.model.nvars
    series = [{0: Poly.monomial(n, e)} for e in monomials_upto(n, 2)]
    series.append({0: Poly.const(n, Fraction(2, 3))})
    pair = []
    for f in series:
        for g in series:
            new = s.star_series(f, g)
            _assert_same_series(new, _unguarded_star_series(s, f, g))
            pair.append(new)
    # star-product values fed back in, on both sides, as the sweep does
    for ab in pair:
        for c in series:
            _assert_same_series(s.star_series(ab, c), _unguarded_star_series(s, ab, c))
            _assert_same_series(s.star_series(c, ab), _unguarded_star_series(s, c, ab))


def test_guarded_star_series_matches_unguarded_on_seeded_moyal():
    _assert_guard_is_exact(_seeded_moyal(4, 4, ((0, 1), (2, 3)), seed=5))
    _assert_guard_is_exact(_seeded_moyal(3, 3, ((0, 1), (1, 2)), seed=17))


def test_guarded_star_series_matches_unguarded_on_suite_products():
    _assert_guard_is_exact(suites._moyal_plane())
    _assert_guard_is_exact(suites._skewed_product())


def test_guarded_star_series_matches_unguarded_on_mixed_orders():
    s = _mixed_order_product()
    assert s.reach == {1: (1, 1), 2: (2, 1)}
    _assert_guard_is_exact(s)
