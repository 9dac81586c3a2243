"""The associativity and trace sweeps against the sweeps they replaced, and
the guarded ``star_series`` against the unguarded.

``_untabled_check_associativity`` is an earlier body of
``deformation.check_associativity``, kept verbatim as a reference: it builds
f*g and g*h afresh for every triple.  ``_pair_table_check_associativity`` is
the body that followed it, also verbatim: it reads f*g and g*h from an N x N
table of pairwise products and convolves them with ``star_series``.
``_monomial_table_check_associativity`` is the body after that, verbatim, in
``star_products.py``: it expands both sides by bilinearity over a per-call
table of monomial products, each built with ``s.star`` on ``Fraction`` and
``Poly`` arithmetic.  The current sweep expands the same way over a table of
integer numerators read straight off the correction terms; it must count the
same checks as every reference and return the same witnesses in the same
order, the defect polynomials compared by value.  On an associative product
it must build no more ``Fraction`` objects than its corrections hold scalars.

``_untabled_trace_defect`` is the previous ``deformation.trace_defect``, also
verbatim: it builds f*g and g*f for every ordered pair.  The current one
reads its products from one table of pairwise products.

``_unguarded_star_series`` is the previous body of
``StarProduct.star_series``, kept verbatim: it applies every correction to
every pair of entries.  The current one skips a correction when an argument's
total degree is below that slot's reach; it must return the same dict, with
the same scalar type on every monomial.
"""

from fractions import Fraction

from formality_lab import deformation as df
from formality_lab import polydiff as pd
from formality_lab import suites
from formality_lab.algebras import FunctionModel
from formality_lab.core.basis import add_term
from formality_lab.deformation import TraceCandidate
from formality_lab.linfty import CheckReport
from formality_lab.poly import Poly, monomials_upto
from fraction_count import counting_fractions
from star_products import (
    _mixed_order_product,
    _monomial_table_check_associativity,
    _seeded_moyal,
)


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
    return CheckReport(checked, witnesses)


def _pair_table_check_associativity(s, degree=None):
    """(f*g)*h - f*(g*h) on all monomial triples up to ``degree``.

    Witnesses are (exponent triple, t-order, defect polynomial).  Every
    pairwise product f*g is built once per call, in an N x N table, and
    serves as both f*g and g*h.
    """
    if degree is None:
        degree = s.model.cap
    n = s.model.nvars
    monos = monomials_upto(n, degree)
    series = [{0: Poly.monomial(n, e)} for e in monos]
    pair = [[s.star_series(f, g) for g in series] for f in series]
    witnesses = []
    checked = 0
    for ia, ea in enumerate(monos):
        fa = series[ia]
        for ib, eb in enumerate(monos):
            ab = pair[ia][ib]
            for ic, ec in enumerate(monos):
                lhs = s.star_series(ab, series[ic])
                rhs = s.star_series(fa, pair[ib][ic])
                checked += 1
                for k in sorted(set(lhs) | set(rhs)):
                    d = lhs.get(k, Poly.zero(n)) - rhs.get(k, Poly.zero(n))
                    if not d.is_zero():
                        witnesses.append(((ea, eb, ec), k, d))
    return CheckReport(checked, witnesses)


def _assert_same_report(s, degree=None, reference=_untabled_check_associativity):
    fields = set(vars(s))
    new = df.check_associativity(s, degree=degree)
    assert set(vars(s)) == fields  # the monomial table is not kept on s
    old = reference(s, degree=degree)
    assert new.checked == old.checked
    assert new.witnesses == old.witnesses
    return new


def test_moyal_plane_matches_untabled_sweep():
    rep = _assert_same_report(suites._moyal_plane())
    assert rep.ok and rep.checked == 15 ** 3


def test_skewed_product_matches_untabled_sweep():
    rep = _assert_same_report(suites._skewed_product())
    assert rep.witnesses and rep.checked == 15 ** 3


def test_moyal_plane_matches_pair_table_sweep():
    rep = _assert_same_report(
        suites._moyal_plane(), degree=4, reference=_pair_table_check_associativity
    )
    assert rep.ok and rep.checked == 15 ** 3


def test_skewed_product_matches_pair_table_sweep():
    s = suites._skewed_product()
    low = _assert_same_report(s, degree=2, reference=_pair_table_check_associativity)
    assert {k for _, k, _ in low.witnesses} == {2} and low.checked == 6 ** 3
    rep = _assert_same_report(s, degree=4, reference=_pair_table_check_associativity)
    assert len(rep.witnesses) == 700 and rep.checked == 15 ** 3


def test_seeded_moyal_matches_pair_table_sweep():
    for s in (
        _seeded_moyal(4, 4, ((0, 1), (2, 3)), seed=5),
        _seeded_moyal(3, 3, ((0, 1), (1, 2)), seed=17),
    ):
        rep = _assert_same_report(s, reference=_pair_table_check_associativity)
        assert rep.ok and rep.checked == len(monomials_upto(s.model.nvars, 2)) ** 3


def test_mixed_order_product_matches_both_sweeps():
    s = _mixed_order_product()
    for reference in (
        _monomial_table_check_associativity,
        _pair_table_check_associativity,
        _untabled_check_associativity,
    ):
        rep = _assert_same_report(s, reference=reference)
    assert rep.witnesses and rep.checked == 6 ** 3
    # the corrections carry polynomial coefficients, so defects reach the
    # monomials the corrections multiply in
    assert any(d.c and any(e[0] for e in d.c) for _, _, d in rep.witnesses)


def test_moyal_plane_matches_monomial_table_sweep():
    rep = _assert_same_report(
        suites._moyal_plane(), degree=4, reference=_monomial_table_check_associativity
    )
    assert rep.ok and rep.checked == 15 ** 3


def test_skewed_product_matches_monomial_table_sweep():
    s = suites._skewed_product()
    low = _assert_same_report(s, degree=2, reference=_monomial_table_check_associativity)
    assert {k for _, k, _ in low.witnesses} == {2} and low.checked == 6 ** 3
    rep = _assert_same_report(s, degree=4, reference=_monomial_table_check_associativity)
    assert len(rep.witnesses) == 700 and rep.checked == 15 ** 3


def test_seeded_moyal_matches_monomial_table_sweep():
    for seed in (5, 17, 29):
        for s in (
            _seeded_moyal(4, 4, ((0, 1), (2, 3)), seed=seed),
            _seeded_moyal(3, 3, ((0, 1), (1, 2)), seed=seed),
        ):
            rep = _assert_same_report(s, reference=_monomial_table_check_associativity)
            assert rep.ok and rep.checked == len(monomials_upto(s.model.nvars, 2)) ** 3


def _coprime_product():
    """A non-associative product whose corrections carry the denominators 2, 3
    and 5 and polynomial coefficients.  On x*y times y^2 the two order-1
    terms land on y^3 with 2/3 and -2/3, so that product has no order-1 part."""
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    third = Fraction(1, 3)
    p1 = pd.PolyDiffOperator(
        2, 2, {((1, 0), (0, 1)): third * y, ((1, 1), (0, 2)): -third * y * y * y}
    )
    p2 = pd.PolyDiffOperator(
        2, 2, {((0, 1), (1, 0)): Fraction(1, 2), ((1, 0), (1, 1)): Fraction(1, 5) * x}
    )
    return df.StarProduct(FunctionModel(2, 2), {1: p1, 2: p2}, 2)


def test_coprime_denominators_match_monomial_table_sweep():
    s = _coprime_product()
    n = s.model.nvars
    assert s.star(Poly.monomial(n, (1, 1)), Poly.monomial(n, (0, 2))) == {
        0: Poly.monomial(n, (1, 3))
    }
    for degree in (1, 2, 3):
        rep = _assert_same_report(
            s, degree=degree, reference=_monomial_table_check_associativity
        )
        assert rep.witnesses
    values = [v for _, _, d in rep.witnesses for v in d.c.values()]
    assert any(isinstance(v, Fraction) for v in values)
    assert all(type(v) is int for v in values if v == int(v))


def test_associative_sweep_builds_no_fractions_beyond_its_corrections():
    s = suites._moyal_plane()
    scalars = sum(len(p.c) for op in s.ops.values() for p in op.c.values())
    with counting_fractions() as count:
        rep = df.check_associativity(s)
    assert rep.ok and rep.checked == 15 ** 3
    assert scalars == 14
    assert count.built <= scalars


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
            if val:
                witnesses.append(((ea, eb), val))
    return CheckReport(checked, witnesses)


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
