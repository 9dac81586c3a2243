"""Products of algebra vectors, cochains evaluated on vectors, the 2x2
matrices in their elementary basis and the upper-triangular 2x2 matrices.

The program works on multiplication tables and on the terms of cochains; it
never multiplies two vectors, evaluates a cochain on arguments, or needs an
algebra whose unit is not a basis element.  These are tools for tests that
check the tables and the cochain calculus by direct evaluation.
"""

from formality_lab.algebras import StructureAlgebra
from formality_lab.core.basis import add_term, vadd_into, vec
from formality_lab.hochschild import Cochain


def mul(algebra, v, w):
    """The product of two vectors {basis index: scalar} of ``algebra``."""
    out = {}
    for i, a in v.items():
        for j, b in w.items():
            entry = algebra.table.get((i, j))
            if entry:
                vadd_into(out, entry, a * b)
    return out


def mat2_elementary():
    """2x2 matrices over k in the elementary-matrix basis e11,e12,e21,e22."""
    labels = ["e11", "e12", "e21", "e22"]
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    table = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            table[(i, j)] = {idx[(a, d)]: 1} if b == c else {}
    return StructureAlgebra(labels, table)


def upper_triangular_2():
    """2x2 upper-triangular matrices T_2 in the basis 1, e12, e22.  Not a
    symmetric algebra: HH^0 is its center, 1-dimensional, while HH_0 =
    T_2/[T_2, T_2] is 2-dimensional."""
    table = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (1, 0): {1: 1},
        (1, 2): {1: 1},  # e12 e22 = e12
        (2, 0): {2: 1},
        (2, 2): {2: 1},
    }
    return StructureAlgebra(["1", "e12", "e22"], table)


def element(algebra, vector):
    """``vector`` as an arity-0 cochain of ``algebra``."""
    c = Cochain(algebra, 0)
    for k, x in vec(*vector.items()).items():
        c.c[((), k)] = x
    return c


def apply(cochain, args):
    """``cochain`` evaluated on ``args``, one vector per input slot."""
    if len(args) != cochain.arity:
        raise ValueError("argument count mismatch")
    out = {}
    for (tup, k), v in cochain.c.items():
        c = 1
        for i, a in zip(tup, args):
            c *= a.get(i, 0)
            if not c:
                break
        if c:
            add_term(out, k, c * v)
    return out


def lie_degree(op):
    """Degree of a cochain or operator in the bracket grading: arity minus one."""
    return op.arity - 1
