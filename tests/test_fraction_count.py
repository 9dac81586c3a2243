"""The ``Fraction`` counter of the allocation guards counts arithmetic
results on the running interpreter, constructor calls included, and puts
the builders back when its block ends."""

from fractions import Fraction

import pytest

from fraction_count import counting_fractions


def _builders():
    return {name: Fraction.__dict__.get(name) for name in ("__new__", "_from_coprime_ints")}


def test_counts_arithmetic_results():
    a = [Fraction(i, 7) for i in range(1, 201)]
    b = [Fraction(3, i) for i in range(1, 201)]
    with counting_fractions() as count:
        results = [x * y + x for x, y in zip(a, b)]
    # each x * y and each sum is a new Fraction
    assert count.built >= 2 * len(results)
    with counting_fractions() as count:
        Fraction(2, 3)
    assert count.built == 1


def test_counts_nothing_on_integers():
    with counting_fractions() as count:
        total = sum(i * i for i in range(200))
    assert total and count.built == 0


def test_restores_the_builders():
    before = _builders()
    with pytest.raises(RuntimeError), counting_fractions():
        raise RuntimeError
    assert _builders() == before
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
