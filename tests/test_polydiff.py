from fractions import Fraction

import pytest

from formality_lab.poly import Poly
from formality_lab.polydiff import (
    PolyDiffOperator,
    bracket,
    cup,
    delta,
)
from algebra_tools import lie_degree
from composition import circle, insert


x = Poly.var(2, 0)
y = Poly.var(2, 1)
one = Poly.const(2, 1)


def _sample_ops():
    D = PolyDiffOperator(2, 1, {((2, 0),): x, ((0, 1),): Poly.const(2, 3)})
    E = PolyDiffOperator(2, 2, {((1, 0), (0, 1)): one})
    F = PolyDiffOperator(2, 1, {((1, 1),): y})
    return D, E, F


def test_apply_multiplication_and_partial():
    m = PolyDiffOperator.multiplication(2)
    assert m.apply([x + y, x]) == (x + y) * x
    d0 = PolyDiffOperator(2, 1, {((1, 0),): one})
    assert d0.apply([x * x * y]) == 2 * (x * y)
    a = PolyDiffOperator.element(x * y)
    assert a.apply([]) == x * y


def test_apply_mixed_term():
    # D(u, v) = x * u_xx * v_y
    D = PolyDiffOperator(2, 2, {((2, 0), (0, 1)): x})
    u = x * x * y
    v = y * y
    assert D.apply([u, v]) == x * (2 * y) * (2 * y)


def test_insert_matches_composed_evaluation():
    # the Leibniz expansion must agree with literal substitution
    D = PolyDiffOperator(
        2, 2, {((2, 0), (0, 1)): x, ((1, 1), (1, 0)): Poly.const(2, 2)}
    )
    E = PolyDiffOperator(2, 2, {((1, 0), (0, 2)): y, ((0, 0), (1, 0)): x})
    args = [x * x * y, x + y * y * y, x * y]
    for j in range(D.arity):
        ins = insert(D, E, j)
        assert ins.arity == 3
        inner = E.apply(args[j : j + 2])
        direct = D.apply(args[:j] + [inner] + args[j + 2 :])
        assert ins.apply(args) == direct


def test_insert_element():
    D = PolyDiffOperator(2, 1, {((2, 0),): one})
    a = PolyDiffOperator.element(x * x * x)
    ins = insert(D, a, 0)
    assert ins.arity == 0
    assert ins.apply([]) == 6 * x


def test_bracket_with_element_is_application():
    # for a derivation D and an element a, the bracket collapses to D(a)
    D = PolyDiffOperator(2, 1, {((0, 1),): one})
    a = PolyDiffOperator.element(x * y * y)
    assert bracket(D, a) == PolyDiffOperator.element(2 * (x * y))


def test_product_cochain_is_square_zero():
    m = PolyDiffOperator.multiplication(2)
    assert bracket(m, m).is_zero()


def test_delta_of_derivation_vanishes():
    assert delta(PolyDiffOperator(2, 1, {((1, 0),): one})).is_zero()
    # elements of a commutative algebra are cocycles too
    assert delta(PolyDiffOperator.element(x * x + y)).is_zero()


def test_delta_squared_is_zero():
    D, E, _ = _sample_ops()
    assert delta(delta(D)).is_zero()
    assert delta(delta(E)).is_zero()


def test_delta_second_derivative_by_hand():
    # D(u) = u'' in one variable; (uv)'' - u''v - uv'' = 2u'v', so the
    # coboundary is -2 u'v'
    D = PolyDiffOperator(1, 1, {((2,),): Poly.const(1, 1)})
    expected = PolyDiffOperator(1, 2, {((1,), (1,)): Poly.const(1, -2)})
    assert delta(D) == expected


def test_bracket_graded_antisymmetry():
    D, E, F = _sample_ops()
    m = PolyDiffOperator.multiplication(2)
    for A, B in [(D, E), (E, F), (m, D), (E, E)]:
        p, q = lie_degree(A), lie_degree(B)
        rhs = bracket(B, A)
        if (p * q) % 2 == 0:
            rhs = -rhs
        assert bracket(A, B) == rhs


def test_bracket_graded_jacobi():
    D, E, F = _sample_ops()
    m = PolyDiffOperator.multiplication(2)
    for A, B, C in [(D, E, F), (m, E, D), (m, m, E), (E, E, D)]:
        pa, pb, pc = lie_degree(A), lie_degree(B), lie_degree(C)
        z = (
            (-1) ** (pa * pc) * bracket(A, bracket(B, C))
            + (-1) ** (pb * pa) * bracket(B, bracket(C, A))
            + (-1) ** (pc * pb) * bracket(C, bracket(A, B))
        )
        assert z.is_zero()


def test_cup_associative():
    D, E, F = _sample_ops()
    assert cup(cup(D, E), F) == cup(D, cup(E, F))


def test_cup_sign_convention():
    # odd-by-odd arity picks up the (-1)^(nm) factor
    D = PolyDiffOperator(2, 1, {((1, 0),): one})
    F = PolyDiffOperator(2, 1, {((0, 1),): one})
    DF = cup(D, F)
    assert DF.c == {((1, 0), (0, 1)): -one}
    m = PolyDiffOperator.multiplication(2)
    # even-by-anything keeps the plain tensor sign
    mD = cup(m, D)
    assert mD.c == {((0, 0), (0, 0), (1, 0)): one}


def test_cup_leibniz_rule():
    # delta(A cup B) = delta(A) cup B + (-1)^arity(A) A cup delta(B)
    D, E, F = _sample_ops()
    a = PolyDiffOperator.element(x * x + y)
    for A, B in [(D, F), (E, F), (a, D), (D, E), (F, E)]:
        s = -1 if A.arity % 2 else 1
        lhs = delta(cup(A, B))
        rhs = cup(delta(A), B) + s * cup(A, delta(B))
        assert lhs == rhs


def test_circle_shape_and_errors():
    D, E, _ = _sample_ops()
    assert circle(D, E).arity == 2
    assert circle(E, D).arity == 2
    with pytest.raises(ValueError):
        insert(D, E, 5)
    with pytest.raises(ValueError):
        D.apply([x, y])


def test_operator_vector_space():
    D, E, _ = _sample_ops()
    assert (D - D).is_zero()
    assert (Fraction(1, 2) * (2 * D)) == D
    assert 0 * D == PolyDiffOperator(2, 1)
    with pytest.raises(ValueError):
        D + E
