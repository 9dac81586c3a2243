from fractions import Fraction
from itertools import product

import pytest

from formality_lab.poly import Poly, monomials_upto


def test_poly_construct_and_normalize():
    p = Poly(2, {(1, 0): 1, (0, 1): Fraction(1, 2), (2, 0): 0})
    assert p.coeff((1, 0)) == 1
    assert p.coeff((2, 0)) == 0
    assert (2, 0) not in p.c
    assert not p.is_zero()
    assert Poly.zero(3).is_zero()


def test_poly_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(1, {(-1,): 1})


def test_poly_arithmetic():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x - x).is_zero()
    assert Fraction(1, 3) * (3 * x) == x
    q = x * y
    assert q.coeff((1, 1)) == 1


def test_poly_mul_cancellation():
    x = Poly.var(1, 0)
    one = Poly.const(1, 1)
    p = (x + one) * (x - one)
    assert p == x * x - one
    assert len(p.c) == 2


def test_poly_diff():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * x * y + 3 * y
    assert p.diff(0) == 2 * (x * y)
    assert p.diff(1) == x * x + Poly.const(2, 3)
    assert p.diff_multi((1, 1)) == 2 * x
    assert p.diff_multi((3, 0)).is_zero()


def test_monomials_upto_graded_order():
    ms = monomials_upto(2, 2)
    assert ms[0] == (0, 0)
    assert set(ms) == {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}
    # graded: degrees never decrease along the list
    degs = [sum(e) for e in ms]
    assert degs == sorted(degs)
    assert len(monomials_upto(3, 3)) == 20  # C(3+3,3)


def test_monomials_upto_matches_the_product_filter():
    # the enumeration before it was built from compositions
    def filtered(n, cap):
        out = []
        for d in range(cap + 1):
            out.extend(e for e in product(range(d + 1), repeat=n) if sum(e) == d)
        return out

    for n in range(7):
        for cap in range(6):
            assert monomials_upto(n, cap) == filtered(n, cap), (n, cap)
