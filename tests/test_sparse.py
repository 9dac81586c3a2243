"""Every sparse container keeps no stored zeros and takes only exact scalars.

One parameterized test per property, over the containers that
``core.basis.add_term`` maintains: a sum that cancels, and one product or
bracket that cancels, must leave an empty coefficient dict, and the truth
value must agree with ``is_zero()``.  A float, as a constructor
coefficient or as a scalar factor, raises ``TypeError``.
"""

from fractions import Fraction

import pytest

from formality_lab import ahat
from formality_lab import cartan as ct
from formality_lab import hochschild as hh
from formality_lab import linfty as lf
from formality_lab import polydiff as pd
from formality_lab.algebras import StructureAlgebra, dual_numbers, trunc_poly_algebra
from formality_lab.cartan import Form, MultiVector
from formality_lab.core.basis import rational
from formality_lab.core.series import FormalSeries
from formality_lab.deformation import moyal
from formality_lab.hochschild import Chain, Cochain
from formality_lab.poly import Poly
from formality_lab.polydiff import PolyDiffOperator

X0, X1 = Poly.var(2, 0), Poly.var(2, 1)
ONE = Poly.const(2, 1)
FIELD = MultiVector(2, 1, {(0,): X0 * X1, (1,): ONE + X0})
A = dual_numbers()
T3 = trunc_poly_algebra(3)


def _poly():
    return Fraction(2, 3) * X0 * X0 + X1 - ONE


def _form():
    return Form(2, 1, {(0,): X1 * X1, (1,): X0 + X1})


def _chain():
    return Chain(T3, 2, {(0, 1, 2): 1, (1, 1, 1): Fraction(-1, 2), (2, 0, 1): 3})


def _cochain():
    return hh.basis_cochains(A, 1)[1] + 2 * hh.basis_cochains(A, 1)[2]


def _operator():
    return PolyDiffOperator(2, 1, {((1, 0),): X1, ((0, 2),): Fraction(1, 2)})


def _series_form():
    return ahat.SeriesForm(2, {(0, 0, 0): Form.function(X0 * X1), (1, -1, 1): _form()})


def _formal_series():
    return FormalSeries({(0, 0): 1, (1, 1): Fraction(-1, 3), (2, -1): 2}, nt=3, u_window=(-2, 2))


def _terms(x):
    for name in ("c", "table", "terms", "parts"):
        if hasattr(x, name):
            return getattr(x, name)
    raise AssertionError(f"no coefficient dict on {type(x).__name__}")


# name -> (a nonzero element, a product or bracket of it that cancels to zero)
CONTAINERS = {
    "Poly": (_poly, lambda p: ct.poisson_bracket(MultiVector(2, 2, {(0, 1): ONE}), p, p)),
    "MultiVector": (lambda: FIELD, lambda X: ct.schouten(X, X)),
    "Form": (_form, lambda a: a.wedge(a)),
    "Chain": (_chain, lambda c: hh.chain_b(hh.chain_b(c))),
    "Cochain": (_cochain, lambda D: hh.delta(hh.delta(D))),
    "PolyDiffOperator": (_operator, lambda D: pd.delta(pd.delta(D))),
    "SeriesForm": (_series_form, lambda a: ahat.diff_d(None, ahat.diff_d(None, a))),
    "FormalSeries": (_formal_series, lambda a: a * (a + a) - (a + a) * a),
}


def _assert_zero(z):
    assert not _terms(z)
    assert not z and z.is_zero()


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_cancellation_leaves_no_stored_zeros(name):
    make, cancel = CONTAINERS[name]
    x = make()
    assert _terms(x)
    assert x and not x.is_zero()
    _assert_zero(x + (-1) * x)
    _assert_zero(x - x)
    _assert_zero(cancel(x))


def test_epsilon_accumulator_keeps_no_stored_zeros():
    # the extended product and bracket add into one dict for the body and
    # one for the tail; a sum that cancels leaves both empty
    E = lf.epsilon_extend(lambda v: v.k, ct.wedge_into, ct.schouten_into, MultiVector.maker(2))
    x, tail = E.embed(FIELD), E.embed_tail(MultiVector.function(_poly()))
    for op in (E.mul_into, E.bracket_into):
        for y in (x, tail):
            r = E.accumulator()
            op(r, x, y, 1)
            op(r, y, x, 1)
            op(r, x, y, -1)
            op(r, y, x, -1)
            assert not r and r.body == {} and r.tail == {}
    r = E.accumulator()
    E.bracket_into(r, x, x, 1)  # [X, X] = 0 for a vector field
    assert not r and r.body == {} and r.tail == {}
    E.mul_into(r, x, tail, 1)  # X (e f) = (-1)^|X| e (X f)
    assert r and not r.body and E.element(2, r).tail == -(_poly() * FIELD)


# every way a float can reach a container: constructors and scalar factors
FLOATS = {
    "Poly": lambda: Poly(1, {(1,): 0.5}),
    "Poly.const": lambda: Poly.const(1, 0.1),
    "Poly.monomial": lambda: Poly.monomial(1, (2,), 0.1),
    "0.5 * Poly": lambda: 0.5 * Poly.var(1, 0),
    "Poly * 0.5": lambda: Poly.var(1, 0) * 0.5,
    "MultiVector": lambda: MultiVector(2, 1, {(0,): 0.5}),
    "0.5 * MultiVector": lambda: 0.5 * FIELD,
    "Chain": lambda: Chain(A, 0, {(0,): 0.5}),
    "0.5 * Chain": lambda: 0.5 * Chain.elementary(A, (0,)),
    "Cochain": lambda: Cochain(A, 1, {(0,): {0: 0.5}}),
    "0.5 * Cochain": lambda: 0.5 * Cochain.multiplication(A),
    "PolyDiffOperator": lambda: PolyDiffOperator(2, 1, {((1, 0),): 0.5}),
    "0.5 * PolyDiffOperator": lambda: 0.5 * PolyDiffOperator.multiplication(2),
    "FormalSeries": lambda: FormalSeries({(0, 0): 0.5}, nt=2),
    "FormalSeries.scalar": lambda: FormalSeries.scalar(0.5, 2),
    "0.5 * FormalSeries": lambda: 0.5 * FormalSeries.scalar(1, 2),
    "FormalSeries * 0.5": lambda: FormalSeries.scalar(1, 2) * 0.5,
    "moyal": lambda: moyal([[0, 0.1], [-0.1, 0]], 1),
    "StructureAlgebra table": lambda: StructureAlgebra(["e"], {(0, 0): {0: 0.5}}, {0: 1}),
    "StructureAlgebra unit": lambda: StructureAlgebra(["e"], {(0, 0): {0: 1}}, {0: 1.0}),
}


@pytest.mark.parametrize("name", sorted(FLOATS))
def test_floats_are_rejected(name):
    with pytest.raises(TypeError):
        FLOATS[name]()


def test_poly_times_multivector_or_form_is_the_termwise_product():
    # Poly.__mul__ hands a container to the container's __rmul__
    p = Fraction(1, 2) * X0 - X1 + ONE
    for x, coeffs in (
        (FIELD, {(0,): X0 * X1, (1,): ONE + X0}),
        (_form(), {(0,): X1 * X1, (1,): X0 + X1}),
    ):
        want = type(x)(2, 1, {key: p * q for key, q in coeffs.items()})
        assert p * x == want == x.__rmul__(p)
    assert Poly.zero(2) * FIELD == MultiVector.zero(2, 1)


def test_rational_takes_only_exact_scalars():
    # int when integral, Fraction otherwise, never Fraction(n, 1)
    for v, want in ((3, 3), (Fraction(3), 3), (Fraction(-6, 2), -3), (True, 1)):
        assert rational(v) == want and type(rational(v)) is int
    assert rational(Fraction(1, 3)) == Fraction(1, 3)
    assert type(rational(Fraction(1, 3))) is Fraction
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            rational(bad)


def test_int_and_fraction_coefficients_are_one_value():
    p, q = Poly.const(2, 1), Poly.const(2, 1)
    q.c = {(0, 0): Fraction(1)}  # as a product like Fraction(1, 2) * 2 stores it
    assert p == q and hash(p) == hash(q)
    assert type(p.coeff((0, 0))) is int and type(q.coeff((0, 0))) is Fraction
    assert p.coeff((1, 0)) == 0 and type(p.coeff((1, 0))) is int
