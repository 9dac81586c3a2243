"""Finite-dimensional associative algebras given by structure constants,
plus the degree-capped polynomial models that feed them.

Elements are sparse vectors over basis indices (dict index -> exact scalar),
matching the vector helpers in ``core.basis``.
"""

from __future__ import annotations

from .core.basis import vadd_into, vec
from .core.linalg import solve
from .poly import Poly, monomials_upto


class StructureAlgebra:
    """Associative unital algebra with a fixed basis and multiplication table.

    table[(i, j)] is the sparse expansion of (basis i) * (basis j).  The
    constructor checks (b_i b_j) b_k = b_i (b_j b_k) on all dim^3 basis
    triples and refuses a table that fails one.
    """

    def __init__(self, labels, table):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.table = {}
        for (i, j), v in table.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"table key {(i, j)} out of range")
            entry = vec(*v.items())
            for k in entry:
                if not 0 <= k < self.dim:
                    raise ValueError(f"table value index {k} out of range")
            if entry:
                self.table[(i, j)] = entry
        self._check_associative()
        self.unit = vec(*self._solve_unit().items())
        # index of the unit when it is literally a basis element
        self.unit_index = None
        if len(self.unit) == 1:
            ((k, c),) = self.unit.items()
            if c == 1:
                self.unit_index = k

    def _check_associative(self):
        """ValueError naming the first basis triple (i, j, k), in
        lexicographic order, with (b_i b_j) b_k != b_i (b_j b_k)."""
        table = self.table
        dim = self.dim
        for i in range(dim):
            for j in range(dim):
                ij = table.get((i, j), {})
                for k in range(dim):
                    lhs = {}
                    for l, c in ij.items():
                        vadd_into(lhs, table.get((l, k), {}), c)
                    rhs = {}
                    for l, c in table.get((j, k), {}).items():
                        vadd_into(rhs, table.get((i, l), {}), c)
                    if lhs != rhs:
                        a, b, c = (self.labels[t] for t in (i, j, k))
                        raise ValueError(
                            f"table is not associative on basis triple {(i, j, k)}:"
                            f" ({a}*{b})*{c} = {lhs} but {a}*({b}*{c}) = {rhs}"
                        )

    def _solve_unit(self):
        # u * b_j = b_j for all j: unknowns u_i, equations keyed by (j, k)
        table = self.table
        images = [
            {(j, k): c for j in range(self.dim) for k, c in table.get((i, j), {}).items()}
            for i in range(self.dim)
        ]
        u = solve(images, {(j, j): 1 for j in range(self.dim)})
        if u is None:
            raise ValueError("algebra has no unit")
        return u

    def bar_indices(self):
        """Basis indices spanning the complement of the unit line.

        Only defined when the unit is itself a basis element; the reduced
        (normalized) machinery in the cochain modules requires that.
        """
        if self.unit_index is None:
            raise ValueError("unit is not a basis element; pick a unit-adapted basis")
        return [i for i in range(self.dim) if i != self.unit_index]


# -- specific algebras -------------------------------------------------------

def dual_numbers():
    """k[x]/(x^2) with basis 1, x."""
    return jet_algebra(1, 1)


def trunc_poly_algebra(cap):
    """k[x]/(x^(cap+1)) with basis 1, x, x^2, ..., x^cap."""
    return jet_algebra(1, cap)


def mat2_unital():
    """2x2 matrices in a basis containing the identity: 1, e12, e21, e22.

    This is the basis to use for reduced-complex computations, where the
    unit must be a basis element.  e11 = 1 - e22 in this basis.
    """
    table = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (0, 3): {3: 1},
        (1, 0): {1: 1},
        (1, 2): {0: 1, 3: -1},  # e12 e21 = e11
        (1, 3): {1: 1},
        (2, 0): {2: 1},
        (2, 1): {3: 1},
        (3, 0): {3: 1},
        (3, 2): {2: 1},
        (3, 3): {3: 1},
    }
    return StructureAlgebra(["1", "e12", "e21", "e22"], table)


class FunctionModel:
    """Polynomial functions in nvars variables, all degrees above cap cut off.

    The product truncates, so this is the quotient by the (cap+1)-st power
    of the maximal ideal at the origin -- a genuine finite-dimensional
    algebra. Partial derivatives do NOT descend to the quotient, so any
    computation that needs them must run on honest polynomials instead
    (see ``cartan`` and ``polydiff``).
    """

    def __init__(self, nvars, cap):
        self.nvars = nvars
        self.cap = cap
        self.monomials = monomials_upto(nvars, cap)
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.dim = len(self.monomials)

    def basis_poly(self, i):
        return Poly.monomial(self.nvars, self.monomials[i])

    def _label(self, e):
        if not any(e):
            return "1"
        bits = []
        for i, k in enumerate(e):
            name = f"x{i}" if self.nvars > 1 else "x"
            bits.append(name if k == 1 else f"{name}^{k}")
        return "*".join(bits)

    def as_structure_algebra(self):
        labels = [self._label(e) for e in self.monomials]
        table = {}
        for i, ei in enumerate(self.monomials):
            for j, ej in enumerate(self.monomials):
                e = tuple(a + b for a, b in zip(ei, ej))
                table[(i, j)] = {self.index[e]: 1} if sum(e) <= self.cap else {}
        return StructureAlgebra(labels, table)


def jet_algebra(nvars, cap):
    return FunctionModel(nvars, cap).as_structure_algebra()
