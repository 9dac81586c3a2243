"""Helpers that several test modules share: the scalars of a nested
``Sparse``, seeded scalars and frames, an in-order comparison of exterior
elements, and ``solve`` on a system given by its rows."""

from fractions import Fraction
from itertools import combinations

from formality_lab.core.basis import Sparse
from formality_lab.core.linalg import solve


def leaves(x):
    """Every scalar of a nested ``Sparse``; each container on the way must
    hold a term."""
    assert x.c, "stored zero container"
    for v in x.c.values():
        if isinstance(v, Sparse):
            yield from leaves(v)
        else:
            yield v


def unit_frames(n):
    """Every frame of n variables: the increasing index tuples, shortest
    first."""
    return [key for k in range(n + 1) for key in combinations(range(n), k)]


def random_scalar(rng):
    """An int, a Fraction or an integral Fraction(n, 1), zero included."""
    r = rng.random()
    if r < 0.4:
        return rng.randint(-3, 3)
    if r < 0.7:
        return Fraction(rng.randint(-3, 3), rng.randint(2, 3))
    return Fraction(rng.randint(-3, 3))


def assert_same_ordered(new, old):
    """Same class and degree; the same keys in the same order, with the same
    values of the same types."""
    assert type(new) is type(old)
    assert (new.nvars, new.k) == (old.nvars, old.k)
    assert list(new.c.items()) == list(old.c.items())
    assert [type(v) for v in new.c.values()] == [type(v) for v in old.c.values()]


def solve_rows(rows, rhs, ncols):
    """``solve`` on the system with these rows: column j is {row: entry}."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            columns[j][i] = v
    return solve(columns, dict(enumerate(rhs)))
