from fractions import Fraction
from itertools import permutations

import pytest

from formality_lab.core.signs import (
    koszul_sign,
    unshuffle_sign,
    decalage_sign,
)
from formality_lab.core.basis import add_term, vec, vadd_into
from formality_lab.core.linalg import betti, rank_kernel, solve
from shared_tools import solve_rows


# -- signs -------------------------------------------------------------------

def test_koszul_identity_permutation():
    assert koszul_sign((0, 1, 2), [3, 5, 7]) == 1


def test_koszul_swap():
    # two degree-1 elements swapped: (-1)^{1*1} = -1
    assert koszul_sign((1, 0), [1, 1]) == -1
    # degree 1 past degree 2: (-1)^{1*2} = +1
    assert koszul_sign((1, 0), [1, 2]) == 1
    assert koszul_sign((1, 0), [2, 5]) == 1


def test_koszul_shift():
    # with shift=1 the effective degrees drop by one
    assert koszul_sign((1, 0), [1, 1], shift=1) == 1
    assert koszul_sign((1, 0), [2, 2], shift=1) == -1


def _brute_sign(perm, degrees):
    # decompose into adjacent swaps, multiply the local factors
    lst = list(perm)
    sign = 1
    for i in range(len(lst)):
        j = lst.index(i)
        while j > i:
            a, b = lst[j - 1], lst[j]
            sign *= (-1) ** (degrees[a] * degrees[b])
            lst[j - 1], lst[j] = b, a
            j -= 1
    return sign


def test_koszul_matches_adjacent_swap_decomposition():
    degrees = [1, 2, 3, 1]
    for perm in permutations(range(4)):
        assert koszul_sign(perm, degrees) == _brute_sign(perm, degrees)


def test_koszul_composition_property():
    degrees = [1, 1, 2]
    for p in permutations(range(3)):
        for q in permutations(range(3)):
            pq = tuple(p[q[i]] for i in range(3))
            permuted_degs = [degrees[p[i]] for i in range(3)]
            assert koszul_sign(pq, degrees) == koszul_sign(p, degrees) * koszul_sign(
                q, permuted_degs
            )


def test_unshuffle_sign():
    # pulling position 1 (odd) to the front past position 0 (odd) gives -1
    assert unshuffle_sign(2, (1,), [1, 1]) == -1
    assert unshuffle_sign(2, (0,), [1, 1]) == 1
    # consistency with koszul_sign on the explicit permutation
    degs = [1, 2, 1, 1]
    subset = (1, 3)
    perm = (1, 3, 0, 2)
    assert unshuffle_sign(4, subset, degs) == koszul_sign(perm, degs)


def test_decalage_sign():
    def brute(degs):
        k = len(degs)
        s = sum((k - 1 - a) * (degs[a] - 1) for a in range(k))
        return (-1) ** s

    for degs in [[1, 1], [2, 1], [1, 2], [2, 2], [3, 2, 1], [1, 1, 1]]:
        assert decalage_sign(degs) == brute(degs)
    assert decalage_sign([2, 2]) == -1
    assert decalage_sign([2, 1]) == -1
    assert decalage_sign([1, 2]) == 1


# -- sparse vectors ------------------------------------------------------------

def test_vec_helpers():
    v = vec(("a", 1), ("c", Fraction(1, 3)))
    w = vec(("c", Fraction(-1, 3)))
    acc = dict(v)
    vadd_into(acc, w)
    assert acc == {"a": 1}
    add_term(acc, "b", Fraction(0))
    assert acc == {"a": 1}
    add_term(acc, "a", Fraction(-1, 2))
    add_term(acc, "b", Fraction(1, 2))
    assert acc == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    add_term(acc, "a", Fraction(-1, 2))
    assert acc == {"b": Fraction(1, 2)}


# -- linear algebra -------------------------------------------------------------

def test_rank_kernel_simple():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    rank, _ = rank_kernel(rows, 2)
    assert rank == 1


def test_rank_kernel_full_rank():
    rows = [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    rank, _ = rank_kernel(rows, 2)
    assert rank == 2


def test_rank_kernel_zero_map():
    rank, _ = rank_kernel([{}], 3)
    assert rank == 0


def test_solve_consistent():
    rows = [{0: Fraction(2), 1: Fraction(1)}, {1: Fraction(3)}]
    rhs = [Fraction(5), Fraction(6)]
    x = solve_rows(rows, rhs, 2)
    assert x is not None
    for row, b in zip(rows, rhs):
        assert sum(c * x.get(i, Fraction(0)) for i, c in row.items()) == b


def test_solve_inconsistent():
    rows = [{0: Fraction(1)}, {0: Fraction(1)}]
    assert solve_rows(rows, [Fraction(1), Fraction(2)], 1) is None


def test_solve_underdetermined():
    rows = [{0: Fraction(1), 1: Fraction(1)}]
    x = solve_rows(rows, [Fraction(7)], 2)
    assert x is not None
    assert sum(x.get(i, Fraction(0)) for i in range(2)) == 7


def test_solve_on_tuple_keys():
    # d(a) = (1, 0) - (0, 1), d(b) = (0, 1): numbered as met, not sorted
    columns = [{(1, 0): 1, (0, 1): -1}, {(0, 1): Fraction(1, 2)}]
    assert solve(columns, {(1, 0): 3}) == {0: Fraction(3), 1: Fraction(6)}
    assert solve(columns, {}) == {}


def test_solve_refuses_a_target_key_no_column_reaches():
    columns = [{(1, 0): 1, (0, 1): -1}, {(0, 1): Fraction(1, 2)}]
    assert solve(columns, {(1, 0): 3, (2, 2): 1}) is None


def test_betti_of_a_small_complex():
    # Q -> Q^2 -> Q: 1 -> (1, 1), (a, b) -> a - b, ranks 1 and 1
    maps = [(0, [{0: 1, 1: 1}]), (1, [{0: 1}, {0: -1}])]
    assert betti("d", [1, 2, 1], iter(maps)) == [0, 0]
    # the same spaces with the zero maps
    assert betti("d", [1, 2, 1], iter([(0, [{}]), (1, [{}, {}])])) == [1, 2]


def test_betti_refuses_maps_that_do_not_compose_to_zero():
    maps = [(0, [{0: 1, 1: 1}]), (1, [{0: 1}, {0: 1}])]
    with pytest.raises(ValueError) as e:
        betti("d", [1, 2, 1], iter(maps))
    assert str(e.value) == (
        "d^2 != 0: the echelon row of d_0 at pivot column 0 times d_1 is 2 at column 0"
    )
