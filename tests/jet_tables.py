"""Tabulating polynomials and polydifferential operators on a degree-capped
function model, as vectors and cochains of its structure algebra.

The program never tabulates an operator; these are tools for tests that
compare the symbolic operator calculus with the finite-dimensional tables.
"""

from itertools import product as _cartesian

from formality_lab.hochschild import Cochain


def poly_to_vec(model, p):
    """p in the model's basis; terms above the cap drop (the quotient)."""
    if p.n != model.nvars:
        raise ValueError("variable count mismatch")
    out = {}
    for e, v in p.c.items():
        if sum(e) <= model.cap:
            out[model.index[e]] = v
    return out


def from_polydiff(op, model, algebra):
    """Tabulate a polydifferential operator on the degree-capped model.

    ``model`` is the FunctionModel whose monomials index ``algebra``
    (see ``algebras.jet_algebra``); ``poly_to_vec`` truncates each value at
    the cap.
    """
    C = Cochain.zero(algebra, op.arity)
    for tup in _cartesian(range(model.dim), repeat=op.arity):
        args = [model.basis_poly(i) for i in tup]
        for k, x in poly_to_vec(model, op.apply(args)).items():
            C.c[(tup, k)] = x
    return C
