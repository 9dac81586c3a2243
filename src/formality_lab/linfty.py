"""Strong-homotopy structure checkers on finite bracket tables.

A structure is a degree function plus a table of n-ary brackets; the
generalized Jacobi and module identities are evaluated directly on
supplied element tuples.  Brackets are the "natural" ones
(differential, binary bracket, ...), and every application is dressed
with the suspension sign from core.signs.decalage_sign, so the identities
take the pure shifted-Koszul form: a differential graded Lie algebra
packaged as (l1, l2) passes with no manual sign threading.  A module is
checked as the structure on the semidirect sum L + M in which M is an
abelian ideal, so both identities are one generalized Jacobi residual.

Elements are vectors: a ``core.basis.Sparse`` container (chains and
cochains, multivectors, forms, operators, series), whose +, scalar *, ==,
is_zero and truth value are written once there.  The Gerstenhaber checker
instead accumulates each law residual through the structure's accumulating
product and bracket.  ``CheckReport`` is the one outcome record of every
identity sweep in the package, the star-product and pipeline checks
included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .core.basis import Sparse, add_term
from .core.signs import decalage_sign, unshuffle_sign


def _accumulate(acc, coeff, elem):
    if coeff == 0 or elem is None or elem.is_zero():
        return acc
    scaled = coeff * elem if coeff != 1 else elem
    return scaled if acc is None else acc + scaled


class LInftyStructure:
    """Bracket table: brackets[n] is an n-ary callable of degree 2-n.

    Missing arities are zero.  ``generators`` is a list of (name, element)
    pairs the checkers sample; ``degree`` maps an element to its integer
    grading.  The 2-bracket is graded antisymmetric, [y, x] =
    -(-1)^(|x||y|) [x, y], as an L-infinity bracket is by definition;
    ``mc_residual`` relies on it.
    """

    def __init__(self, degree, brackets, generators=()):
        self.degree = degree
        self.brackets = dict(brackets)
        self.generators = list(generators)

    def apply(self, n, args):
        return self.brackets[n](list(args))


def dgla(degree, differential, bracket_fn, generators=()):
    """Package a differential graded Lie algebra as a structure table."""
    brackets = {1: lambda args: differential(args[0]),
                2: lambda args: bracket_fn(args[0], args[1])}
    return LInftyStructure(degree, brackets, generators)


class CheckReport:
    """Outcome of any identity sweep: how many checks ran, and an explicit
    witness for each that failed.  ``max_arity`` is the tuple length a
    bracket sweep went up to, when there is one."""

    def __init__(self, checked, witnesses, max_arity=None):
        self.checked = checked
        self.witnesses = witnesses
        self.max_arity = max_arity

    @property
    def ok(self):
        return not self.witnesses

    def __repr__(self):
        state = "pass" if self.ok else f"{len(self.witnesses)} violations"
        arity = "" if self.max_arity is None else f", arity<={self.max_arity}"
        return f"CheckReport({state}, {self.checked} checked{arity})"


def linfty_residual(S, elements):
    """Left side of the generalized Jacobi identity on one tuple."""
    n = len(elements)
    degs = [S.degree(x) for x in elements]
    acc = None
    for p in range(1, n + 1):
        if p not in S.brackets or n - p + 1 not in S.brackets:
            continue
        for I in combinations(range(n), p):
            block = [elements[i] for i in I]
            inner = S.apply(p, block)
            if inner is None or inner.is_zero():
                continue
            rest_idx = [i for i in range(n) if i not in I]
            eps = unshuffle_sign(n, I, degs, shift=1)
            th_in = decalage_sign([degs[i] for i in I])
            ideg = sum(degs[i] for i in I) + 2 - p
            outer_degs = [ideg] + [degs[i] for i in rest_idx]
            th_out = decalage_sign(outer_degs)
            term = S.apply(len(rest_idx) + 1, [inner] + [elements[i] for i in rest_idx])
            acc = _accumulate(acc, eps * th_in * th_out, term)
    return acc


def check_linfty(S, max_arity=3):
    """Sweep the generalized Jacobi identity over generator tuples."""
    witnesses = []
    checked = 0
    for n in range(1, max_arity + 1):
        for tup in combinations_with_replacement(S.generators, n):
            names = [t[0] for t in tup]
            elems = [t[1] for t in tup]
            res = linfty_residual(S, elems)
            checked += 1
            if res is not None and not res.is_zero():
                witnesses.append((tuple(names), len(elems), res))
    return CheckReport(checked, witnesses, max_arity)


# ------------------------------------------------------------------ modules


class LInftyModule:
    """actions[p] : (p algebra elements, module element) -> module element.

    actions[0] is the module differential.  ``mdegree`` grades module
    elements (only its parity enters the signs).  ``samples`` are the
    (name, element) pairs the module sweep acts on.
    """

    def __init__(self, structure, mdegree, actions, samples=()):
        self.structure = structure
        self.mdegree = mdegree
        self.actions = dict(actions)
        self.samples = list(samples)

    def semidirect(self):
        """The L-infinity structure on L + M of which M is an abelian ideal.

        An L-infinity module structure on M is the same thing as this
        structure (Lada-Markl 1995), so the module identity on (x_1 .. x_n,
        m) is the generalized Jacobi identity of L + M on that tuple.  A
        module element is told apart from an algebra element by its type:
        it has the type of one of the samples (chains against cochains,
        forms against multivectors), so the algebra's elements must not.

        The brackets are the algebra's on algebra elements, and
        [x_1 .. x_r, m] = actions[r](x_1 .. x_r, m); a bracket of two
        module elements is zero.  The generalized Jacobi sum also meets a
        module element in first place, [m, x_1 .. x_r], where an inner
        action feeds an outer bracket.  Moving m to the end costs
        (-1)^(|m| sum|x_i| + r).  In the suspended picture the dressed
        bracket decalage_sign * [..] is graded symmetric in the shifted
        degrees, so the move costs the Koszul sign (-1)^((|m|-1) sum(|x_i|-1));
        the dressing of [m, x_1 .. x_r] is that of [x_1 .. x_r, m] times
        (-1)^(r(|m|-1) + sum(|x_i|-1)).  The product of the two is the sign
        above, the same as r transpositions of the natural graded
        antisymmetric bracket, each -(-1)^(|m||x_i|).
        """
        S, actions, mdegree = self.structure, self.actions, self.mdegree
        kinds = {type(m) for _, m in self.samples}

        def degree(x):
            return mdegree(x) if type(x) in kinds else S.degree(x)

        def bracket(k):
            own, act = S.brackets.get(k), actions.get(k - 1)

            def fn(args):
                if type(args[-1]) in kinds:
                    return None if act is None else act(args[:-1], args[-1])
                if type(args[0]) not in kinds:
                    return None if own is None else own(args)
                if act is None:
                    return None
                m, xs = args[0], args[1:]
                out = act(xs, m)
                odd = (mdegree(m) * sum(map(S.degree, xs)) + k - 1) % 2
                return -out if odd else out

            return fn

        arities = set(S.brackets) | {p + 1 for p in actions}
        return LInftyStructure(degree, {k: bracket(k) for k in arities})


def check_module(M, max_arity=2):
    """Sweep the module identity over generator tuples and module samples:
    the generalized Jacobi identity of ``M.semidirect()`` on each tuple
    followed by one sample.  A witness names the tuple and the sample; its
    arity counts the algebra elements."""
    T = M.semidirect()
    witnesses = []
    checked = 0
    for n in range(0, max_arity + 1):
        for tup in combinations_with_replacement(M.structure.generators, n):
            names = [t[0] for t in tup]
            elems = [t[1] for t in tup]
            for mname, melem in M.samples:
                res = linfty_residual(T, elems + [melem])
                checked += 1
                if res is not None and not res.is_zero():
                    witnesses.append((tuple(names + [mname]), len(elems), res))
    return CheckReport(checked, witnesses, max_arity)


# ------------------------------------------------------------------ Maurer-Cartan


class MCElement(Sparse):
    """Degree-1 element with positive formal-parameter orders: c[k] is the
    coefficient of the k-th power, 1 <= k <= nt."""

    __slots__ = ("nt", "c")
    _space = ("nt",)

    def __init__(self, parts, nt):
        self.nt = nt
        self.c = {}
        for k, v in parts.items():
            if k < 1:
                raise ValueError("gauge/deformation series start at order 1")
            if k <= nt and v is not None and not v.is_zero():
                self.c[k] = v

    def _like(self, c):
        out = object.__new__(MCElement)
        out.nt, out.c = self.nt, c
        return out


def _series_bracket(S, n, series_list, nt):
    """Order-by-order n-ary bracket of formal series elements.

    When the bracket is binary and both arguments are one series x,
    [x_j, x_i] for j > i is read off [x_i, x_j], which the ordered visit
    has already computed, by graded antisymmetry.  A value read off that
    way keeps the key order of [x_i, x_j]."""
    out = {}
    orders = [sorted(s.c) for s in series_list]
    mirror = n == 2 and series_list[0] is series_list[1]
    done = {}
    for combo in product(*orders):
        k = sum(combo)
        if k > nt:
            continue
        args = [series_list[i].c[combo[i]] for i in range(n)]
        if mirror and combo[0] > combo[1]:
            val = done[combo[1], combo[0]]
            if val is not None and S.degree(args[0]) * S.degree(args[1]) % 2 == 0:
                val = -val
        else:
            val = S.apply(n, args)
            if mirror and combo[0] < combo[1]:
                done[combo] = val
        if val is not None:
            add_term(out, k, val)
    return out


def mc_residual(S, pi):
    """sum_n (1/n!) [pi, ..., pi]_n per formal order; zero iff flat."""
    total = {}
    fact = 1
    for n in range(1, max(S.brackets, default=0) + 1):
        fact *= n
        if n not in S.brackets:
            continue
        if n > pi.nt and n > 1:
            # each argument carries at least one order: contributions of
            # arity beyond the cap vanish
            continue
        contrib = _series_bracket(S, n, [pi] * n, pi.nt)
        for k, v in contrib.items():
            add_term(total, k, Fraction(1, fact) * v)
    return total


# ------------------------------------------------------- odd-parameter extension


class EpsilonElement:
    """Pair (body, tail) standing for body + e*tail, where e is an odd
    square-zero parameter of degree +1.  A homogeneous element of degree k
    has body of degree k and tail of degree k-1.  Either part may be None
    (zero)."""

    __slots__ = ("body", "tail", "degree")

    def __init__(self, body, tail, degree):
        self.body = None if (body is None or body.is_zero()) else body
        self.tail = None if (tail is None or tail.is_zero()) else tail
        self.degree = degree

    def __bool__(self):
        return self.body is not None or self.tail is not None

    def is_zero(self):
        return not self

    def __repr__(self):
        return f"EpsilonElement(deg={self.degree}, body={self.body!r}, tail={self.tail!r})"


class BodyTail:
    """What the extended product and bracket accumulate into: one flat
    dict for the body and one for the tail.  True when either holds a
    term."""

    __slots__ = ("body", "tail")

    def __init__(self):
        self.body = {}
        self.tail = {}

    def __bool__(self):
        return bool(self.body or self.tail)


class EpsilonAlgebra:
    """Graded-commutative product and odd bracket extended over an odd
    parameter e of degree +1.

    The extended product twists the naive bilinear extension by the
    bracket of the two bodies; the extended bracket drops the e*e terms.
    Both accumulate into a ``BodyTail`` through the plain algebra's
    accumulating kernels (see GerstenhaberData).  ``delta`` differentiates
    along e, and together with the product it regenerates the bracket (a
    second-order-operator identity whose overall sign ``delta_defect``
    measures).
    """

    accumulator = BodyTail

    def __init__(self, degree, mul_into, bracket_into, element, generators=()):
        self._deg = degree
        self._mul = mul_into
        self._brk = bracket_into
        self._element = element
        self.generators = list(generators)

    def embed(self, a):
        return EpsilonElement(a, None, self._deg(a))

    def embed_tail(self, b):
        return EpsilonElement(None, b, self._deg(b) + 1)

    def degree(self, x):
        return x.degree

    def element(self, k, acc):
        """The degree-k element holding what ``acc`` accumulated."""
        make = self._element
        return EpsilonElement(
            make(k, acc.body) if acc.body else None,
            make(k - 1, acc.tail) if acc.tail else None,
            k,
        )

    def mul_into(self, acc, x, y, sign):
        """acc += sign * xy: body x.body y.body, tail x.tail y.body +
        (-1)^|x| (x.body y.tail + [x.body, y.body])."""
        mul = self._mul
        s = -sign if x.degree % 2 else sign
        if y.body is not None:
            if x.body is not None:
                mul(acc.body, x.body, y.body, sign)
            if x.tail is not None:
                mul(acc.tail, x.tail, y.body, sign)
        if x.body is not None:
            if y.tail is not None:
                mul(acc.tail, x.body, y.tail, s)
            if y.body is not None:
                self._brk(acc.tail, x.body, y.body, s)

    def bracket_into(self, acc, x, y, sign):
        """acc += sign * [x, y]: body [x.body, y.body], tail
        [x.tail, y.body] + (-1)^(|x|+1) [x.body, y.tail]."""
        brk = self._brk
        if y.body is not None:
            if x.body is not None:
                brk(acc.body, x.body, y.body, sign)
            if x.tail is not None:
                brk(acc.tail, x.tail, y.body, sign)
        if x.body is not None and y.tail is not None:
            brk(acc.tail, x.body, y.tail, sign if x.degree % 2 else -sign)

    def delta(self, x):
        """Derivative along the odd parameter: body + e*tail -> tail."""
        return EpsilonElement(x.tail, None, x.degree - 1)

    def delta_defect(self, x, y):
        """delta(xy) - delta(x) y - (-1)^|x| (x delta(y) + [x, y]),
        accumulated: empty exactly when the second-order defect of delta on
        (x, y) is the bracket."""
        xy = BodyTail()
        self.mul_into(xy, x, y, 1)
        r = BodyTail()
        r.body = xy.tail  # delta(xy): the tail of the product, as a body
        s = 1 if x.degree % 2 else -1
        self.mul_into(r, self.delta(x), y, -1)
        self.mul_into(r, x, self.delta(y), s)
        self.bracket_into(r, x, y, s)
        return r


class GerstenhaberData:
    """Plain graded product and odd bracket, given as accumulating kernels.

    ``mul_into(acc, x, y, sign)`` and ``bracket_into(acc, x, y, sign)`` add
    sign * xy and sign * [x, y] to the flat coefficient dict ``acc``, as
    ``cartan.wedge_into`` and ``cartan.schouten_into`` do, and
    ``element(k, acc)`` is the degree-k element whose dict is ``acc``.
    There is no delta operator."""

    accumulator = dict
    delta = None

    def __init__(self, degree, mul_into, bracket_into, element, generators=()):
        self.degree = degree
        self.mul_into = mul_into
        self.bracket_into = bracket_into
        self.element = element
        self.generators = list(generators)


def epsilon_extend(degree, mul_into, bracket_into, element, generators=()):
    """Extend (V, product, bracket) over the odd parameter; the generator
    list of the result contains both the embedded generators and their
    parameter multiples."""
    E = EpsilonAlgebra(degree, mul_into, bracket_into, element)
    gens = []
    for name, g in generators:
        gens.append((name, E.embed(g)))
        gens.append(("e*" + name, E.embed_tail(g)))
    E.generators = gens
    return E


def _sign(e):
    return -1 if e % 2 else 1


def check_gerstenhaber(A):
    """Verify the graded-commutative / odd-Lie / Leibniz laws on the
    generators of A, plus the square-zero and bracket-generating laws of
    delta when A has one.  Returns a CheckReport whose witnesses are
    (law, generator names, residual).

    Each law residual is one ``A.accumulator()``, into which
    ``A.mul_into`` and ``A.bracket_into`` add every signed term; an element
    (``A.element``) is made only for a witness and for the N x N tables P
    and B of pairwise products and brackets, which the triple laws read.
    The Jacobi residual of (i, j, k) sums the same three signed terms as
    those of its rotations, so it is computed once per cyclic orbit, at
    the orbit's least rotation, which product order visits first; every
    rotation still counts as a check and reports its own witness."""
    mul = A.mul_into
    brk = A.bracket_into
    new = A.accumulator
    element = A.element
    delta = A.delta
    gens = A.generators
    names = [name for name, _ in gens]
    elems = [g for _, g in gens]
    degs = [A.degree(g) for g in elems]

    def table(op, shift):
        rows = []
        for x, dx in zip(elems, degs):
            row = []
            for y, dy in zip(elems, degs):
                r = new()
                op(r, x, y, 1)
                # the bracket of two functions is a zero of degree 0
                row.append(element(max(dx + dy + shift, 0), r))
            rows.append(row)
        return rows

    P = table(mul, 0)
    B = table(brk, -1)
    witnesses = []
    checked = 0

    n = len(gens)
    for i in range(n):
        nx, x, dx = names[i], elems[i], degs[i]
        for j in range(i, n):
            ny, y, dy = names[j], elems[j], degs[j]
            checked += 1
            r = new()
            mul(r, x, y, 1)
            mul(r, y, x, -_sign(dx * dy))
            if r:
                witnesses.append(("commutativity", (nx, ny), element(dx + dy, r)))
            checked += 1
            r = new()
            brk(r, x, y, 1)
            brk(r, y, x, _sign((dx - 1) * (dy - 1)))
            if r:
                witnesses.append(("antisymmetry", (nx, ny), element(dx + dy - 1, r)))
            if delta is not None:
                checked += 1
                r = A.delta_defect(x, y)
                if r:
                    witnesses.append(
                        ("second-order-delta", (nx, ny), element(dx + dy - 1, r))
                    )

    if delta is not None:
        for nx, x in gens:
            checked += 1
            r = delta(delta(x))
            if r:
                witnesses.append(("delta-squared", (nx,), r))

    jacobi = {}  # least rotation -> its nonzero Jacobi residual
    for i, j, k in product(range(n), repeat=3):
        x, y, z = elems[i], elems[j], elems[k]
        dx, dy, dz = degs[i], degs[j], degs[k]
        d = dx + dy + dz
        label = (names[i], names[j], names[k])
        checked += 1
        r = new()
        mul(r, P[i][j], z, 1)
        mul(r, x, P[j][k], -1)
        if r:
            witnesses.append(("associativity", label, element(d, r)))
        checked += 1
        r = new()
        brk(r, x, P[j][k], 1)
        mul(r, B[i][j], z, -1)
        mul(r, y, B[i][k], -_sign((dx - 1) * dy))
        if r:
            witnesses.append(("bracket-leibniz", label, element(d - 1, r)))
        checked += 1
        orbit = min((i, j, k), (j, k, i), (k, i, j))
        if orbit == (i, j, k):
            r = new()
            brk(r, B[i][j], z, _sign((dx - 1) * (dz - 1)))
            brk(r, B[j][k], x, _sign((dy - 1) * (dx - 1)))
            brk(r, B[k][i], y, _sign((dz - 1) * (dy - 1)))
            if r:
                jacobi[orbit] = element(d - 2, r)
        r = jacobi.get(orbit)
        if r is not None:
            witnesses.append(("jacobi", label, r))
    return CheckReport(checked, witnesses, 3)
