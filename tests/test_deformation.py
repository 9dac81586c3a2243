"""Star products, flatness <-> associativity, trace audits."""

from fractions import Fraction

import pytest

from formality_lab import deformation as df
from formality_lab import linfty as lf
from formality_lab import polydiff as pd
from formality_lab import suites
from formality_lab.algebras import FunctionModel
from formality_lab.cartan import MultiVector, jacobiator
from formality_lab.poly import Poly, monomials_upto

HALF = Fraction(1, 2)
X = Poly.var(2, 0)
Y = Poly.var(2, 1)


def moyal_plane():
    return df.moyal([[0, HALF], [-HALF, 0]], 4)


def test_coordinate_products():
    s = moyal_plane()
    assert s.star(X, Y) == {0: X * Y, 1: Poly.const(2, HALF)}
    assert s.star(Y, X) == {0: X * Y, 1: Poly.const(2, -HALF)}
    # powers of a single coordinate commute to all orders
    assert s.star(X, X * X) == s.star(X * X, X) == {0: X * X * X}


def test_unit_is_strict():
    s = moyal_plane()
    one = Poly.const(2, 1)
    for e in monomials_upto(2, 3):
        f = Poly.monomial(2, e)
        assert s.star(one, f) == s.star(f, one) == {0: f}
    with pytest.raises(ValueError):
        # differentiates only the second slot, so 1*g would move
        df.StarProduct(s.model, {1: pd.PolyDiffOperator(2, 2, {((0, 0), (1, 0)): X})}, 2)


def _series_table(s, degree=2):
    n = s.model.nvars
    polys = [Poly.monomial(n, e) for e in monomials_upto(n, degree)]
    return [s.star_series({0: f}, {0: g}) for f in polys for g in polys]


def test_product_owns_its_corrections():
    model = FunctionModel(2, 4)
    terms = {((1, 0), (1, 0)): 1, ((2, 0), (0, 1)): X}
    for change in ("add-term", "reassign"):
        op = pd.PolyDiffOperator(2, 2, terms)
        s = df.StarProduct(model, {1: op}, 3)
        before = df.StarProduct(model, {1: pd.PolyDiffOperator(2, 2, terms)}, 3)
        # a term that leaves a slot underived acts below the reach the
        # product read from the op it was given
        if change == "add-term":
            op.c[((0, 0), (1, 0))] = Poly.const(2, 1)
        else:
            op.c = {((0, 0), (0, 1)): X, ((1, 0), (0, 0)): Y}
        assert _series_table(s) == _series_table(before)


def test_wrong_variable_count_is_refused_even_when_every_correction_is_skipped():
    s = df.moyal([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], 3)
    # constants and zero lie below every correction's reach, so none would
    # be applied
    with pytest.raises(ValueError):
        s.star(Poly.const(3, 2), Poly.var(3, 0))
    with pytest.raises(ValueError):
        s.star_series({0: Poly.const(3, 1)}, {1: Poly.zero(3)})


def test_moyal_validates_input_matrix():
    with pytest.raises(ValueError):
        df.moyal([[0, 1], [1, 0]], 2)
    with pytest.raises(ValueError):
        df.moyal([[0, 1]], 2)


def test_moyal_is_associative_to_full_order():
    rep = df.check_associativity(moyal_plane(), degree=4)
    assert rep.ok
    assert rep.checked == 15 ** 3


def test_skewed_product_fails_exactly_at_second_order():
    rep = df.check_associativity(suites._skewed_product(), degree=2)
    assert not rep.ok
    assert {order for _, order, _ in rep.witnesses} == {2}
    # the order-2 defect is d2f*dg*dh - df*dg*d2h; on (x^2, x, x) that is 2
    defects = {trip: d for trip, order, d in rep.witnesses}
    trip = ((2, 0), (1, 0), (1, 0))
    assert defects[trip] == Poly.const(2, 2)
    assert len(defects) == 12
    s = suites._skewed_product()
    f = X * X
    lhs = s.star_series(s.star(f, X), {0: X})
    rhs = s.star_series({0: f}, s.star(X, X))
    assert defects[trip] == lhs.get(2, Poly.zero(2)) - rhs.get(2, Poly.zero(2))


def test_flatness_residual_equals_associator_order_by_order():
    S = suites._operator_dgla()
    assert lf.mc_residual(S, df.star_to_mc(moyal_plane())) == {}

    s = suites._skewed_product()
    res = lf.mc_residual(S, df.star_to_mc(s))
    assert sorted(res) == [2]
    A2 = res[2]
    for ea in monomials_upto(2, 2):
        fa = Poly.monomial(2, ea)
        for eb in monomials_upto(2, 2):
            fb = Poly.monomial(2, eb)
            ab = s.star(fa, fb)
            for ec in monomials_upto(2, 2):
                fc = Poly.monomial(2, ec)
                lhs = s.star_series(ab, {0: fc})
                rhs = s.star_series({0: fa}, s.star(fb, fc))
                defect = lhs.get(2, Poly.zero(2)) - rhs.get(2, Poly.zero(2))
                assert A2.apply([fa, fb, fc]) == defect


def test_leading_poisson_of_moyal():
    pi0 = df.leading_poisson(moyal_plane())
    assert pi0 == MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    assert jacobiator(pi0).is_zero()


def test_leading_poisson_of_symmetric_part_is_zero():
    op = pd.PolyDiffOperator(2, 2, {((1, 0), (1, 0)): 1})
    s = df.StarProduct(FunctionModel(2, 4), {1: op}, 2)
    assert df.leading_poisson(s).is_zero()


def test_leading_poisson_with_polynomial_coefficients():
    # P1(f,g) = x * df/dx * dg/dy antisymmetrizes to the bivector x * dx^dy
    op = pd.PolyDiffOperator(2, 2, {((1, 0), (0, 1)): X})
    s = df.StarProduct(FunctionModel(2, 4), {1: op}, 2)
    pi0 = df.leading_poisson(s)
    assert pi0 == MultiVector(2, 2, {(0, 1): X})


def test_leading_poisson_rejects_higher_derivative_antisymmetric_part():
    op = pd.PolyDiffOperator(2, 2, {((2, 0), (0, 1)): 1})
    s = df.StarProduct(FunctionModel(2, 4), {1: op}, 2)
    with pytest.raises(ValueError):
        df.leading_poisson(s)


def test_trace_defect_at_origin_evaluation():
    s = moyal_plane()
    tau = df.TraceCandidate(2, {(0, 0): 1}, 4)
    rep = df.trace_defect(tau, s, degree=2)
    by_pair = {pair: val for pair, val in rep.witnesses}
    # the coordinate commutator x*y - y*x = t is seen exactly
    assert by_pair[((1, 0), (0, 1))] == {1: 1}
    assert by_pair[((0, 1), (1, 0))] == {1: -1}
    # commuting pairs never appear
    assert ((1, 0), (2, 0)) not in by_pair
    assert all(pair in (((1, 0), (0, 1)), ((0, 1), (1, 0))) for pair in by_pair)


def test_poisson_defect_flags_the_same_obstruction():
    pi0 = df.leading_poisson(moyal_plane())
    tau = df.TraceCandidate(2, {(0, 0): 1}, 4)
    rep = df.poisson_defect(tau, pi0, degree=2)
    pairs = {pair for pair, _ in rep.witnesses}
    assert ((1, 0), (0, 1)) in pairs
    vals = dict(rep.witnesses)
    assert vals[((1, 0), (0, 1))] == 1


def test_defects_refuse_a_trace_in_other_variables():
    s = moyal_plane()
    tau = df.TraceCandidate(3, {(0, 0, 0): 1}, 4)
    with pytest.raises(ValueError, match="trace in 3 variables, star product in 2"):
        df.trace_defect(tau, s, degree=2)
    with pytest.raises(ValueError, match="trace in 3 variables, bivector in 2"):
        df.poisson_defect(tau, df.leading_poisson(s), degree=2)


def test_zero_trace_is_silent():
    s = moyal_plane()
    tau = df.TraceCandidate(2, {}, 4)
    assert df.trace_defect(tau, s, degree=2).ok
    assert df.poisson_defect(tau, df.leading_poisson(s), degree=2).ok


def test_trace_candidate_validation():
    with pytest.raises(ValueError):
        df.TraceCandidate(2, {(0, -1): 1}, 4)
    with pytest.raises(ValueError):
        df.TraceCandidate(2, {(0, 0, 0): 1}, 4)
    with pytest.raises(TypeError):
        df.TraceCandidate(2, {(0, 0): 0.5}, 4)
    tau = df.TraceCandidate(2, {(1, 1): Fraction(1, 3)}, 4)
    # evaluation multiplies the coefficient read off the monomial by alpha!
    assert tau.evaluate(X * Y) == Fraction(1, 3)
    assert tau.evaluate(X * X * Y * Y) == 0
    tau = df.TraceCandidate(2, {(2, 1): Fraction(1, 3), (0, 0): 0}, 4)
    assert tau.weights == {(2, 1): Fraction(2, 3)}
    # orders above the trace's nt drop, and zero values leave no order
    parts = {0: Poly.const(2, 3), 1: X, 2: Poly.const(2, -1), 3: Poly.const(2, 5)}
    assert df.TraceCandidate(2, {(0, 0): 1}, 2).evaluate_orders(parts) == {0: 3, 2: -1}
