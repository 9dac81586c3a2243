"""Strong-homotopy structure checkers on finite bracket tables.

A structure is a degree function plus a table of n-ary brackets; the
generalized Jacobi and module identities are evaluated directly on
supplied element tuples.  Brackets are the "natural" ones
(differential, binary bracket, ...), and every application is dressed
with the suspension sign from core.signs.decalage_sign, so the identities
take the pure shifted-Koszul form: a differential graded Lie algebra
packaged as (l1, l2) passes with no manual sign threading.  A module is
checked as the structure on the semidirect sum L + M in which M is an
abelian ideal, so both identities are one generalized Jacobi residual,
swept by one loop.

Elements are vectors: a ``core.basis.Sparse`` container (chains and
cochains, multivectors, forms, operators, series), whose +, scalar *, ==,
is_zero and truth value are written once there.  A Gerstenhaber structure
is its product and bracket, two frame rules of ``cartan._monomial_pairs``,
and the checker accumulates each law residual, a flat dict, through that
kernel.  Its extension over an odd square-zero parameter e is not a second
element type: e is one more odd frame symbol of the multivectors, and the
twisted product is one more cached frame rule.  The triple laws of the
Gerstenhaber sweep are certified rather than evaluated on every triple:
each law residual's coefficients are polynomials of low degree in the
exponent entries, so the laws are evaluated on the principal lattice of
exponents and "checked" counts every triple that the evaluation and the
degree argument together certify, as the Jacobi orbits already count
rotations they do not evaluate.  ``CheckReport`` is the one outcome record
of every identity sweep in the package, the star-product and pipeline
checks included.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import factorial

from .cartan import MultiVector, _monomial_pairs
from .core.basis import Sparse, add_term, common_denominator, rescaled
from .core.signs import decalage_sign, unshuffle_sign
from .poly import monomials_upto


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


def _jacobi_sweep(S, generators, lowest, max_arity, tails):
    """The generalized Jacobi identity of S on each tuple of ``generators``
    of length ``lowest`` .. ``max_arity``, followed by each tail in
    ``tails``; generators and tails are (name, element) pairs.  A witness is
    (the names of the tuple and its tail, the tuple's length, residual)."""
    witnesses = []
    checked = 0
    for n in range(lowest, max_arity + 1):
        for tup in combinations_with_replacement(generators, n):
            for tail in tails:
                res = linfty_residual(S, [x for _, x in tup + tail])
                checked += 1
                if res is not None and not res.is_zero():
                    witnesses.append((tuple(name for name, _ in tup + tail), n, res))
    return CheckReport(checked, witnesses, max_arity)


def check_linfty(S, max_arity=3):
    """Sweep the generalized Jacobi identity over generator tuples."""
    return _jacobi_sweep(S, S.generators, 1, max_arity, [()])


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
    tails = [(s,) for s in M.samples]
    return _jacobi_sweep(M.semidirect(), M.structure.generators, 0, max_arity, tails)


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
    """sum_n (1/n!) [pi, ..., pi]_n per formal order; zero iff flat.

    The series handed to the brackets holds ``int`` scalars only.  With
    ``den`` the lcm of every denominator in ``pi`` (an operator's
    coefficient polynomials included), N the largest arity that contributes
    and L = N! den^N, multilinearity gives
    L * residual = sum_n (L / (n! den^n)) [den pi, ..., den pi]_n, all of
    whose weights are integers; each order is divided by L once, scalar by
    scalar, at the end."""
    # each argument carries at least one order: arities beyond the cap
    # contribute nothing
    arities = sorted(n for n in S.brackets if 1 <= n <= max(pi.nt, 1))
    top = max(arities, default=0)
    den = common_denominator(pi)
    P = rescaled(pi, den)
    L = factorial(top) * den**top
    total = {}
    for n in arities:
        w = L // (factorial(n) * den**n)
        for k, v in _series_bracket(S, n, [P] * n, P.nt).items():
            add_term(total, k, w * v)
    return {k: rescaled(v, Fraction(1, L)) for k, v in total.items()}


# ------------------------------------------------------------ Gerstenhaber algebras


class GerstenhaberData:
    """Multivectors in ``nvars`` variables with a graded product and an odd
    bracket, given as frame rules of ``cartan._monomial_pairs`` (such as
    ``cartan._wedge_rule`` and ``cartan._schouten_rule``).  ``delta`` is
    None, or an odd operator of degree -1 whose second-order defect should
    be the bracket (``epsilon_extend`` installs one)."""

    def __init__(self, nvars, mul_rule, bracket_rule, generators=(), delta=None):
        self.nvars = nvars
        self.mul_rule = mul_rule
        self.bracket_rule = bracket_rule
        self.generators = list(generators)
        self.delta = delta

    def delta_defect(self, x, y):
        """delta(xy) - delta(x) y - (-1)^|x| (x delta(y) + [x, y]) as a flat
        dict: empty exactly when the second-order defect of delta on (x, y)
        is the bracket."""
        delta, mul = self.delta, self.mul_rule
        xy = {}
        _monomial_pairs(xy, x, y, mul, 1)
        r = delta(MultiVector.maker(self.nvars)(x.k + y.k, xy)).c
        s = 1 if x.k % 2 else -1
        _monomial_pairs(r, delta(x), y, mul, -1)
        _monomial_pairs(r, x, delta(y), mul, s)
        _monomial_pairs(r, x, y, self.bracket_rule, s)
        return r


def epsilon_extend(nvars, mul_rule, bracket_rule, generators=()):
    """Extend multivectors in ``nvars`` variables over an odd square-zero
    parameter e of degree +1.  The product and bracket are given as frame
    rules of ``cartan._monomial_pairs`` (``cartan._wedge_rule`` and
    ``cartan._schouten_rule``).

    e is one more odd frame symbol: frame index n = ``nvars``, on a variable
    x_n that nothing depends on, so the result is a plain
    ``GerstenhaberData`` over multivectors in n + 1 variables.  Each
    generator g enters as itself and as e*g, where e ^ frame_I =
    (-1)^|I| frame_(I + (n,)).  The extended product is
    x * y = x ^ y + (-1)^|x| e ^ [x, y] on e-free x and y: one cached rule
    per frame pair, the product entries plus, on an e-free pair, the
    bracket entries moved behind e.  The extended bracket is the plain
    rule without its entries that differentiate along x_n, which vanish.
    ``delta`` is the odd derivative along e; its second-order defect
    regenerates the bracket."""
    n = nvars
    make = MultiVector.maker(n + 1)

    @cache
    def twisted(fa, fb):
        entries = mul_rule(fa, fb)
        if n in fa or n in fb:
            return entries
        s = -1 if len(fa) % 2 else 1
        return entries + tuple(
            (merged + (n,), -s * w if len(merged) % 2 else s * w, i, side)
            for merged, w, i, side in bracket_rule(fa, fb)
        )

    @cache
    def bracket(fa, fb):
        return tuple(t for t in bracket_rule(fa, fb) if t[2] != n)

    def delta(x):
        c = {}
        for (f, a), v in x.c.items():
            if n in f:
                c[f[:-1], a] = v if len(f) % 2 else -v
        return make(max(x.k - 1, 0), c)

    gens = []
    for name, g in generators:
        body, tail = {}, {}
        for (f, a), v in g.c.items():
            body[f, a + (0,)] = v
            tail[f + (n,), a + (0,)] = -v if len(f) % 2 else v
        gens += [(name, make(g.k, body)), ("e*" + name, make(g.k + 1, tail))]
    return GerstenhaberData(n + 1, twisted, bracket, gens, delta)


def _sign(e):
    return -1 if e % 2 else 1


def _exponent_degree(rule, nvars):
    """The degree in the exponent entries of the ``_monomial_pairs`` kernel
    over ``rule``: 0 when no entry, over the 4^n frame pairs, has a
    derivative index, and 1 otherwise, since an entry multiplies by at most
    one exponent entry."""
    frames = [f for k in range(nvars + 1) for f in combinations(range(nvars), k)]
    return int(any(
        i is not None for fa in frames for fb in frames for _, _, i, _ in rule(fa, fb)
    ))


def _principal_lattice(nvars, d):
    """The exponent triples (ea, eb, ec) in ``nvars`` variables with
    |ea| + |eb| + |ec| <= d.  They are unisolvent for the polynomials of
    total degree <= d in the 3 * nvars exponent entries (Chung-Yao, On
    lattices admitting unique Lagrange interpolations, 1977): such a
    polynomial that vanishes on them is zero."""
    n = nvars
    return [(e[:n], e[n : 2 * n], e[2 * n :]) for e in monomials_upto(3 * n, d)]


def _lattice(A):
    """The generator triples on which ``check_gerstenhaber`` evaluates each
    triple law to certify it on every triple, as an iterator of
    (law, i, j, k), or None when the certificate does not apply and the full
    sweep runs.

    Fix the frames of a triple of single-term generators.  Each law residual
    is then a sum over output keys (merged frame, ea + eb + ec - s), one
    fixed shift s per term shape, so distinct shapes never share a key, and
    the coefficient of each is a polynomial in the exponent entries: of
    total degree 2 d_mul for associativity, d_mul + d_brk for
    bracket-Leibniz and 2 d_brk for Jacobi, where d is a kernel's
    ``_exponent_degree``, read off the same two rules the sweep evaluates.
    A derivative skipped on a zero exponent entry is the polynomial's own
    zero, and a generator's coefficient only scales the residual.  So a law
    that vanishes on the principal lattice of that degree vanishes on every
    exponent triple of those frames.

    It applies when every generator is a single term and, for each frame
    (and degree), the generators hold every exponent e with |e| <= the
    largest law degree, so every lattice point is a generator triple."""
    nvars = A.nvars
    dm = _exponent_degree(A.mul_rule, nvars)
    db = _exponent_degree(A.bracket_rule, nvars)
    degrees = {"associativity": 2 * dm, "bracket-leibniz": dm + db, "jacobi": 2 * db}
    groups = {}  # (frame, degree) -> {exponent: its first generator's index}
    for idx, (_, g) in enumerate(A.generators):
        if len(g.c) != 1:
            return None
        ((frame, e),) = g.c
        groups.setdefault((frame, g.k), {}).setdefault(e, idx)
    cover = monomials_upto(nvars, max(degrees.values()))
    if not all(e in group for group in groups.values() for e in cover):
        return None
    lattices = {law: _principal_lattice(nvars, d) for law, d in degrees.items()}
    return (
        (law, ga[ea], gb[eb], gc[ec])
        for ga, gb, gc in product(groups.values(), repeat=3)
        for law, lattice in lattices.items()
        for ea, eb, ec in lattice
    )


def check_gerstenhaber(A):
    """Verify the graded-commutative / odd-Lie / Leibniz laws on the
    generators of A, plus the square-zero and bracket-generating laws of
    delta when A has one.  Returns a CheckReport whose witnesses are
    (law, generator names, residual).

    Each law residual is one flat dict, into which ``_monomial_pairs`` over
    ``A.mul_rule`` and ``A.bracket_rule`` adds every signed term; a
    multivector is made only for a witness and for the N x N tables P and B
    of pairwise products and brackets, which the triple laws read.

    The triple laws are first evaluated on the lattice triples of
    ``_lattice`` when it applies.  If every one vanishes, all N^3 triples of
    each law are certified and counted as checked.  Otherwise, and when the
    certificate does not apply, every triple is evaluated, and the
    witnesses, their order and the count are those of the full sweep.  The
    Jacobi residual of (i, j, k) sums the same three signed terms as those
    of its rotations, so the full sweep computes it once per cyclic orbit,
    at the orbit's least rotation, which product order visits first; every
    rotation still counts as a check and reports its own witness."""
    mul, brk = A.mul_rule, A.bracket_rule
    element = MultiVector.maker(A.nvars)
    delta = A.delta
    gens = A.generators
    names = [name for name, _ in gens]
    elems = [g for _, g in gens]
    degs = [g.k for g in elems]

    def table(rule, shift):
        rows = []
        for x, dx in zip(elems, degs):
            row = []
            for y, dy in zip(elems, degs):
                r = {}
                _monomial_pairs(r, x, y, rule, 1)
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
            r = {}
            _monomial_pairs(r, x, y, mul, 1)
            _monomial_pairs(r, y, x, mul, -_sign(dx * dy))
            if r:
                witnesses.append(("commutativity", (nx, ny), element(dx + dy, r)))
            checked += 1
            r = {}
            _monomial_pairs(r, x, y, brk, 1)
            _monomial_pairs(r, y, x, brk, _sign((dx - 1) * (dy - 1)))
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
    checked += 3 * n**3

    def associativity(i, j, k):
        r = {}
        _monomial_pairs(r, P[i][j], elems[k], mul, 1)
        _monomial_pairs(r, elems[i], P[j][k], mul, -1)
        return r

    def leibniz(i, j, k):
        r = {}
        _monomial_pairs(r, elems[i], P[j][k], brk, 1)
        _monomial_pairs(r, B[i][j], elems[k], mul, -1)
        _monomial_pairs(r, elems[j], B[i][k], mul, -_sign((degs[i] - 1) * degs[j]))
        return r

    def jacobi(i, j, k):
        di, dj, dk = degs[i] - 1, degs[j] - 1, degs[k] - 1
        r = {}
        _monomial_pairs(r, B[i][j], elems[k], brk, _sign(di * dk))
        _monomial_pairs(r, B[j][k], elems[i], brk, _sign(dj * di))
        _monomial_pairs(r, B[k][i], elems[j], brk, _sign(dk * dj))
        return r

    laws = {"associativity": associativity, "bracket-leibniz": leibniz, "jacobi": jacobi}
    lattice = _lattice(A)
    if lattice is not None and not any(laws[law](i, j, k) for law, i, j, k in lattice):
        return CheckReport(checked, witnesses, 3)

    orbits = {}  # least rotation -> its nonzero Jacobi residual
    for i, j, k in product(range(n), repeat=3):
        d = degs[i] + degs[j] + degs[k]
        label = (names[i], names[j], names[k])
        r = associativity(i, j, k)
        if r:
            witnesses.append(("associativity", label, element(d, r)))
        r = leibniz(i, j, k)
        if r:
            witnesses.append(("bracket-leibniz", label, element(d - 1, r)))
        orbit = min((i, j, k), (j, k, i), (k, i, j))
        if orbit == (i, j, k):
            r = jacobi(i, j, k)
            if r:
                orbits[orbit] = element(d - 2, r)
        r = orbits.get(orbit)
        if r is not None:
            witnesses.append(("jacobi", label, r))
    return CheckReport(checked, witnesses, 3)
