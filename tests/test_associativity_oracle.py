"""The associativity and trace sweeps with their pair tables against the
sweeps without them.

``_untabled_check_associativity`` is the previous body of
``deformation.check_associativity``, kept verbatim as the reference: it
builds f*g and g*h afresh for every triple.  ``_untabled_trace_defect`` is
the previous ``deformation.trace_defect``, also verbatim: it builds f*g and
g*f for every ordered pair.  The current sweeps read their products from one
table of pairwise products; they must count the same checks and return the
same witnesses in the same order.
"""

from formality_lab import deformation as df
from formality_lab import suites
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
