"""Star products as truncated bidifferential series.

A product is the ordinary polynomial multiplication plus a finite list of
corrections P_1..P_nt, each an arity-2 polynomial-coefficient operator, all
vanishing when either argument is the constant 1.  Associativity is checked
with exact arithmetic on untruncated polynomials, order by order in the
deformation parameter: the corrections live in the operator complex, so the
order-m associativity defect is literally the order-m flatness residual of
the series viewed as a degree-1 element there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, lcm, perm, prod
from operator import add, sub

from . import polydiff as pd
from .algebras import FunctionModel
from .cartan import MultiVector, hkr, poisson_bracket
from .core.basis import add_term, common_denominator, rational
from .linfty import CheckReport, MCElement
from .poly import Poly, monomials_upto


class StarProduct:
    """Multiplication plus corrections ops[m], 1 <= m <= nt.

    Each correction is copied at construction, and its reach is stored:
    per slot, the least total derivative order over its terms.  A
    correction sends any argument of total degree below its slot's reach
    to zero, so ``star_series`` never applies it there.  The copy keeps the
    reach true whatever the caller later does to the op it passed in.
    """

    def __init__(self, model, ops, nt):
        self.model = model
        self.nt = nt
        self.ops = {}
        self.reach = {}
        for m, op in ops.items():
            if not 1 <= m <= nt:
                if m > nt:
                    continue
                raise ValueError("correction orders start at 1")
            if op.nvars != model.nvars or op.arity != 2:
                raise ValueError("corrections must be arity-2 on the base variables")
            if not op.c:
                continue
            reach = tuple(
                min(sum(key[slot]) for key in op.c) for slot in (0, 1)
            )
            if min(reach) < 1:
                # some term leaves a slot underived, so 1*g or f*1 would move
                raise ValueError(f"order-{m} correction does not vanish on the unit")
            self.ops[m] = pd.PolyDiffOperator(op.nvars, 2, op.c)
            self.reach[m] = reach

    def star(self, f, g):
        """f*g as {t-order: polynomial}, zero orders omitted."""
        return self.star_series({0: f}, {0: g})

    def star_series(self, a, b):
        """Convolution of two {order: polynomial} dictionaries.

        A correction is applied only when both arguments reach its
        derivative orders; every skipped call would have returned zero.
        """
        out = {}
        bs = self._with_degrees(b)
        for ka, fa, dfa in self._with_degrees(a):
            for kb, fb, dfb in bs:
                base = ka + kb
                if base > self.nt:
                    continue
                add_term(out, base, fa * fb)
                for m, op in self.ops.items():
                    ra, rb = self.reach[m]
                    if base + m <= self.nt and dfa >= ra and dfb >= rb:
                        add_term(out, base + m, op.apply([fa, fb]))
        return out

    def _with_degrees(self, series):
        """(order, polynomial, total degree or -1 for zero) per entry.

        Every entry is checked against the base variables here, since a
        skipped correction no longer reaches the check in ``apply``.
        """
        n = self.model.nvars
        out = []
        for k, f in series.items():
            if f.n != n:
                raise ValueError("variable counts differ")
            out.append((k, f, max(map(sum, f.c)) if f.c else -1))
        return out


def moyal(pi, nt, model=None):
    """Exponential-type product of a constant antisymmetric matrix.

    ops[m](f,g) = (1/m!) sum pi^{i1 j1}..pi^{im jm}
                  d_{i1..im} f * d_{j1..jm} g.
    """
    n = len(pi)
    if not n:
        raise ValueError("matrix must have at least one row")
    for row in pi:
        if len(row) != n:
            raise ValueError("matrix must be square")
    pi = [[rational(v) for v in row] for row in pi]
    for i in range(n):
        for j in range(n):
            if pi[i][j] != -pi[j][i]:
                raise ValueError("matrix must be antisymmetric")
    if model is None:
        model = FunctionModel(n, 4)
    entries = [
        (i, j, pi[i][j])
        for i in range(n)
        for j in range(n)
        if pi[i][j]
    ]
    ops = {}
    for m in range(1, nt + 1):
        op = pd.PolyDiffOperator(n, 2)
        scale = Fraction(1, factorial(m))
        for combo in product(entries, repeat=m):
            alpha = [0] * n
            beta = [0] * n
            coeff = scale
            for i, j, v in combo:
                alpha[i] += 1
                beta[j] += 1
                coeff *= v
            add_term(op.c, (tuple(alpha), tuple(beta)), Poly.const(n, coeff))
        if op.c:
            ops[m] = op
    return StarProduct(model, ops, nt)


def check_associativity(s, degree=None):
    """(f*g)*h - f*(g*h) on all monomial triples up to ``degree``.

    Witnesses are (exponent triple, t-order, defect polynomial), by triple
    and then by order.  Every correction is bilinear, so (f*g)*h is the sum,
    over the terms c t^k x^e of f*g, of c t^k (x^e * h) truncated at order
    nt, and f*(g*h) likewise over the terms of g*h.

    The sweep runs on integers.  ``den`` is the lcm of the denominators of
    the corrections' coefficients, and a monomial product x^e1 * x^e2 is a
    list of (t-order, exponent, ``int`` multiple of 1/den), read straight
    off the correction terms by the falling-factorial rule of
    ``poly.diff_terms``: den at x^(e1+e2) in order 0, and for each term
    ((alpha, beta), p) of order m, p * perm(e1, alpha) * perm(e2, beta) at
    x^(e1+e2-alpha-beta) times p's monomials.  The terms are grouped by
    alpha, and the nonzero weights perm(e, alpha) and perm(e, beta) are
    found once per exponent, so a group whose alpha kills x^e1 is skipped
    whole.  Each product is built the first time it is needed, into a table
    that lives only for this call.  Defects accumulate as numerators over
    den^2 and become exact scalars only in a witness.
    """
    if degree is None:
        degree = s.model.cap
    n = s.model.nvars
    nt = s.nt
    den = lcm(1, *map(common_denominator, s.ops.values()))
    groups = {}  # alpha -> [(order, beta, [(exponent, scalar * den)])]
    for m, op in s.ops.items():
        for (alpha, beta), p in op.c.items():
            groups.setdefault(alpha, []).append((m, beta, [
                (e, v.numerator * (den // v.denominator)) for e, v in p.c.items()
            ]))
    alphas = [(alpha, sum(alpha)) for alpha in groups]
    betas = {beta for rows in groups.values() for _, beta, _ in rows}
    betas = [(beta, sum(beta)) for beta in betas]
    lefts, rights = {}, {}

    def weights(memo, derivs, e):
        """{t: perm(e, t)} over the multi-indices t of ``derivs`` that do
        not kill x^e, computed once per exponent e and slot."""
        out = memo.get(e)
        if out is None:
            d = sum(e)
            out = memo[e] = {
                t: w for t, dt in derivs if dt <= d and (w := prod(map(perm, e, t)))
            }
        return out

    monos = monomials_upto(n, degree)
    table = {}

    def times(e1, e2):
        """x^e1 * x^e2 as a list of (t-order, exponent, scalar * den)."""
        terms = table.get((e1, e2))
        if terms is None:
            top = tuple(map(add, e1, e2))
            acc = {(0, top): den}
            right = weights(rights, betas, e2)
            for alpha, w1 in weights(lefts, alphas, e1).items() if right else ():
                rest = tuple(map(sub, top, alpha))
                for m, beta, coeffs in groups[alpha]:
                    w2 = right.get(beta)
                    if w2:
                        w = w1 * w2
                        at = tuple(map(sub, rest, beta))
                        for e, v in coeffs:
                            add_term(acc, (m, tuple(map(add, at, e))), w * v)
            terms = table[e1, e2] = [(k, e, v) for (k, e), v in acc.items()]
        return terms

    scale = den * den
    witnesses = []
    checked = 0
    for ea in monos:
        for eb in monos:
            ab = times(ea, eb)
            for ec in monos:
                defect = {}  # (t-order, exponent) -> numerator of lhs - rhs
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
                        orders.setdefault(k, {})[e] = Fraction(v, scale)
                    for k in sorted(orders):
                        witnesses.append(((ea, eb, ec), k, Poly(n, orders[k])))
    return CheckReport(checked, witnesses)


def _opposite(op):
    return op._like({(b, a): p for (a, b), p in op.c.items()})


def leading_poisson(s):
    """Reconstruct the first-order antisymmetric part as a bivector.

    The commutator bracket {f,g} = P_1(f,g) - P_1(g,f) is read off on
    coordinate pairs; the reconstruction must reproduce the full
    antisymmetrization identically, otherwise the product's first-order
    part has higher-derivative antisymmetric terms and no bivector
    describes it.
    """
    n = s.model.nvars
    P1 = s.ops.get(1) or pd.PolyDiffOperator(n, 2)
    anti = P1 - _opposite(P1)
    out = MultiVector(n, 2, {
        (i, j): anti.apply([Poly.var(n, i), Poly.var(n, j)])
        for i in range(n)
        for j in range(i + 1, n)
    })
    if hkr(out) != anti:
        raise ValueError("antisymmetrized part is not of bivector type")
    return out


def star_to_mc(s):
    """The correction series as a degree-1 element of the operator complex."""
    return MCElement(dict(s.ops), s.nt)


class TraceCandidate:
    """Finite-order distribution at the origin with rational coefficients:
    tau(f) = sum_alpha c_alpha * (d^alpha f)(0).

    ``weights`` holds c_alpha * alpha! per jet order alpha, the factor that
    multiplies the coefficient of x^alpha in f.
    """

    def __init__(self, nvars, coeffs, nt):
        self.nvars = nvars
        self.nt = nt
        self.weights = {}
        for alpha, c in coeffs.items():
            alpha = tuple(alpha)
            if len(alpha) != nvars or any(a < 0 for a in alpha):
                raise ValueError(f"jet order {alpha!r} needs {nvars} entries >= 0")
            c = rational(c)
            if c:
                self.weights[alpha] = c * prod(map(factorial, alpha))

    def evaluate(self, f):
        """tau(f), an exact scalar."""
        out = 0
        for alpha, w in self.weights.items():
            v = f.coeff(alpha)
            if v:
                out += w * v
        return out

    def evaluate_orders(self, parts):
        """{t-order: tau(part)} of a {t-order: polynomial} dict, zero-free;
        orders above nt drop, as in a series truncated at t^nt."""
        out = {}
        for m, f in parts.items():
            if m <= self.nt:
                v = self.evaluate(f)
                if v:
                    out[m] = v
        return out


def _pair_sweep(monos, value):
    """``value(a, b)`` on every ordered pair of indices into ``monos``: a
    witness ((ea, eb), v) for each nonzero value v."""
    witnesses = []
    for (a, ea), (b, eb) in product(enumerate(monos), repeat=2):
        v = value(a, b)
        if v:
            witnesses.append(((ea, eb), v))
    return CheckReport(len(monos) ** 2, witnesses)


def trace_defect(tau, s, degree=None):
    """tau(f*g - g*f) over monomial pairs; witnesses carry the value as
    {t-order: scalar}.

    Every product f*g is built once per call, in an N x N table, and serves
    as both f*g and g*f.  ValueError unless tau and s have one variable
    count.
    """
    if degree is None:
        degree = s.model.cap
    n = s.model.nvars
    if tau.nvars != n:
        raise ValueError(f"trace in {tau.nvars} variables, star product in {n}")
    monos = monomials_upto(n, degree)
    polys = [Poly.monomial(n, e) for e in monos]
    pair = [[s.star(f, g) for g in polys] for f in polys]

    def value(a, b):
        fwd, bwd = pair[a][b], pair[b][a]
        zero = Poly.zero(n)
        return tau.evaluate_orders(
            {k: fwd.get(k, zero) - bwd.get(k, zero) for k in set(fwd) | set(bwd)}
        )

    return _pair_sweep(monos, value)


def poisson_defect(tau, pi0, degree=4):
    """tau({f,g}) over monomial pairs for a bivector's bracket; ValueError
    unless tau and pi0 have one variable count."""
    n = pi0.nvars
    if tau.nvars != n:
        raise ValueError(f"trace in {tau.nvars} variables, bivector in {n}")
    monos = monomials_upto(n, degree)
    polys = [Poly.monomial(n, e) for e in monos]
    return _pair_sweep(
        monos, lambda a, b: tau.evaluate(poisson_bracket(pi0, polys[a], polys[b]))
    )
