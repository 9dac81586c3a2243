from fractions import Fraction

import pytest

from formality_lab import suites
from formality_lab.algebras import (
    StructureAlgebra,
    dual_numbers,
    trunc_poly_algebra,
    mat2_unital,
    FunctionModel,
    jet_algebra,
)
from formality_lab.core.basis import vec
from formality_lab.poly import Poly

from algebra_tools import mat2_elementary, mul
from jet_tables import poly_to_vec


def check_associative(A):
    for i in range(A.dim):
        for j in range(A.dim):
            ij = A.table.get((i, j), {})
            for k in range(A.dim):
                left = mul(A, ij, vec((k, 1)))
                right = mul(A, vec((i, 1)), A.table.get((j, k), {}))
                if left != right:
                    return False
    return True


def check_unital(A):
    for i in range(A.dim):
        b = vec((i, 1))
        if mul(A, A.unit, b) != b or mul(A, b, A.unit) != b:
            return False
    return True


def test_dual_numbers():
    A = dual_numbers()
    assert A.dim == 2
    assert check_associative(A)
    assert check_unital(A)
    assert A.unit == {0: 1}
    assert A.unit_index == 0
    x = vec((1, 1))
    assert mul(A, x, x) == {}
    assert A.bar_indices() == [1]


def test_trunc_poly_algebra():
    A = trunc_poly_algebra(3)
    assert A.dim == 4
    assert check_associative(A)
    assert check_unital(A)
    x = vec((1, 1))
    x2 = mul(A, x, x)
    assert x2 == {2: 1}
    assert mul(A, x2, x2) == {}  # x^4 = 0
    assert A.labels == ["1", "x", "x^2", "x^3"]


def test_mat2_elementary():
    A = mat2_elementary()
    assert check_associative(A)
    assert check_unital(A)
    # unit is e11 + e22, not a basis element
    assert A.unit == {0: 1, 3: 1}
    assert A.unit_index is None
    with pytest.raises(ValueError):
        A.bar_indices()
    e12 = vec((1, 1))
    e21 = vec((2, 1))
    assert mul(A, e12, e21) == {0: 1}  # e12 e21 = e11
    assert mul(A, e21, e12) == {3: 1}  # e21 e12 = e22
    assert mul(A, e12, e12) == {}


def test_mat2_unital_matches_elementary():
    A = mat2_unital()
    assert check_associative(A)
    assert check_unital(A)
    assert A.unit_index == 0
    assert A.bar_indices() == [1, 2, 3]
    # e12 * e21 = e11 = 1 - e22 in this basis
    assert mul(A, vec((1, 1)), vec((2, 1))) == {0: 1, 3: -1}
    # e21 * e12 = e22
    assert mul(A, vec((2, 1)), vec((1, 1))) == {3: 1}
    # e22 * e22 = e22
    assert mul(A, vec((3, 1)), vec((3, 1))) == {3: 1}


def test_unit_solver_rejects_nonunital():
    # the zero product on a 1-dim space has no unit
    with pytest.raises(ValueError):
        StructureAlgebra(["n"], {(0, 0): {}})


def test_non_associative_table_is_refused_with_its_first_triple():
    A = trunc_poly_algebra(2)
    table = dict(A.table)
    table[(1, 2)] = {2: 1}  # x * x^2 = x^2, so (x x) x = 0 but x (x x) = x^2
    with pytest.raises(ValueError) as e:
        StructureAlgebra(A.labels, table)
    assert str(e.value) == (
        "table is not associative on basis triple (1, 1, 1): (x*x)*x = {} but x*(x*x) = {2: 1}"
    )


@pytest.mark.parametrize(
    "build",
    [*suites._PRESET_ALGEBRAS.values(), mat2_elementary, lambda: jet_algebra(2, 4)],
)
def test_associative_algebras_still_build(build):
    A = build()
    assert check_associative(A)


def test_function_model_vectors():
    F = FunctionModel(2, 2)
    assert F.dim == 6
    p = Poly(2, {(1, 1): Fraction(1, 2), (0, 0): 3})
    assert poly_to_vec(F, p) == {F.index[(1, 1)]: Fraction(1, 2), F.index[(0, 0)]: 3}
    # above-cap terms are quotiented away
    q = Poly(2, {(2, 1): 1, (1, 0): 1})
    assert poly_to_vec(F, q) == {F.index[(1, 0)]: 1}


def test_jet_algebra_structure():
    A = jet_algebra(2, 2)
    assert A.dim == 6
    assert check_associative(A)
    assert check_unital(A)
    assert A.unit_index == 0
    assert A.labels[0] == "1"
    # x0 * x1 lands on the mixed monomial; x0^2 * x1 is cut off
    F = FunctionModel(2, 2)
    i_x0 = F.index[(1, 0)]
    i_x1 = F.index[(0, 1)]
    i_x0x1 = F.index[(1, 1)]
    prod = mul(A, vec((i_x0, 1)), vec((i_x1, 1)))
    assert prod == {i_x0x1: 1}
    i_x0sq = F.index[(2, 0)]
    assert mul(A, vec((i_x0sq, 1)), vec((i_x1, 1))) == {}


# -- the presets against their own builders from before they were jet algebras

def _parent_dual_numbers():
    """k[x]/(x^2) with basis 1, x."""
    return StructureAlgebra(
        ["1", "x"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}},
    )


def _parent_trunc_poly_algebra(cap):
    """k[x]/(x^(cap+1)) with basis 1, x, ..., x^cap."""
    labels = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, cap + 1)]
    table = {}
    for i in range(cap + 1):
        for j in range(cap + 1):
            table[(i, j)] = {i + j: 1} if i + j <= cap else {}
    return StructureAlgebra(labels, table)


def _exactly(A):
    """Labels, table with its key order and value types, and the unit."""
    return (
        A.labels,
        [(key, [(i, v, type(v)) for i, v in entry.items()]) for key, entry in A.table.items()],
        [(i, v, type(v)) for i, v in A.unit.items()],
        A.unit_index,
    )


@pytest.mark.parametrize("cap", range(1, 6))
def test_presets_are_the_one_variable_jet_algebras(cap):
    assert _exactly(trunc_poly_algebra(cap)) == _exactly(_parent_trunc_poly_algebra(cap))
    if cap == 1:
        assert _exactly(dual_numbers()) == _exactly(_parent_dual_numbers())
