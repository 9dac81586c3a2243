"""Star products and a reference associativity sweep that several oracle
modules share.

``_seeded_moyal`` and ``_mixed_order_product`` build the products the
associativity, composition and operator oracles run on: the benchmark's
seeded constant Moyal products, and corrections whose terms take different
orders in each slot.  ``_monomial_table_check_associativity`` is an earlier
body of ``deformation.check_associativity``, verbatim: it expands both sides
by bilinearity over a per-call table of monomial products, each built with
``s.star`` on ``Fraction`` and ``Poly`` arithmetic.
"""

import random
from fractions import Fraction

from formality_lab import deformation as df
from formality_lab import polydiff as pd
from formality_lab.algebras import FunctionModel
from formality_lab.core.basis import add_term
from formality_lab.linfty import CheckReport
from formality_lab.poly import Poly, monomials_upto


def _monomial_table_check_associativity(s, degree=None):
    """(f*g)*h - f*(g*h) on all monomial triples up to ``degree``.

    Witnesses are (exponent triple, t-order, defect polynomial).  Every
    correction is bilinear, so (f*g)*h is the sum over the terms
    c t^k x^e of f*g of c t^k (x^e * h), truncated at order nt, and
    f*(g*h) likewise over the terms of g*h.  Each monomial product
    x^e1 * x^e2 is built once per call, the first time it is needed, into
    a table that lives only for this call.
    """
    if degree is None:
        degree = s.model.cap
    n = s.model.nvars
    nt = s.nt
    monos = monomials_upto(n, degree)
    table = {}

    def times(e1, e2):
        """x^e1 * x^e2 as a list of (t-order, exponent, scalar)."""
        terms = table.get((e1, e2))
        if terms is None:
            prod = s.star(Poly.monomial(n, e1), Poly.monomial(n, e2))
            terms = table[e1, e2] = [
                (k, e, v) for k, f in prod.items() for e, v in f.c.items()
            ]
        return terms

    witnesses = []
    checked = 0
    for ea in monos:
        for eb in monos:
            ab = times(ea, eb)
            for ec in monos:
                defect = {}  # (t-order, exponent) -> scalar of lhs - rhs
                for k, e, v in ab:
                    for k2, e2, v2 in times(e, ec):
                        if k + k2 <= nt:
                            add_term(defect, (k + k2, e2), v * v2)
                for k, e, v in times(eb, ec):
                    v = -v
                    for k2, e2, v2 in times(ea, e):
                        if k + k2 <= nt:
                            add_term(defect, (k + k2, e2), v * v2)
                checked += 1
                if defect:
                    orders = {}
                    for (k, e), v in defect.items():
                        orders.setdefault(k, {})[e] = v
                    for k in sorted(orders):
                        witnesses.append(((ea, eb, ec), k, Poly(n, orders[k])))
    return CheckReport(checked, witnesses)


def _seeded_moyal(n, nt, pattern, seed):
    """Constant Moyal product, nonzero exactly on ``pattern`` and its mirror,
    with seeded entries in +-{1, 2, 3}/{1, 2, 3}."""
    rng = random.Random(seed)
    pi = [[Fraction(0)] * n for _ in range(n)]
    for i, j in pattern:
        v = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
        if rng.random() < 0.5:
            v = -v
        pi[i][j], pi[j][i] = v, -v
    return df.moyal(pi, nt, FunctionModel(n, 2))


def _mixed_order_product():
    """Corrections whose terms take different orders in each slot."""
    x = Poly.var(2, 0)
    p1 = pd.PolyDiffOperator(2, 2, {((1, 0), (1, 0)): 1, ((2, 0), (0, 1)): x})
    p2 = pd.PolyDiffOperator(
        2, 2, {((2, 0), (1, 0)): Fraction(1, 3), ((1, 1), (0, 2)): x}
    )
    return df.StarProduct(FunctionModel(2, 2), {1: p1, 2: p2}, 3)
