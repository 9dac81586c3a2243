"""Job implementations behind the CLI: each op packages one family of
identity checks over the library and reports pass/fail with exact witnesses.

Everything here is deterministic.  Randomized sweeps draw from fixed seeds,
iteration follows declaration or sorted order, and all arithmetic is exact,
so a manifest always produces the same outcome objects.

The built-in suite "core-identities" expands to the whole battery at the
default caps; individual ops accept small overrides where noted.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb
from types import SimpleNamespace

from . import ahat as ah
from . import cartan as ct
from . import deformation as df
from . import hochschild as hh
from . import linfty as lf
from . import polydiff as pd
from .algebras import (
    FunctionModel,
    dual_numbers,
    jet_algebra,
    mat2_unital,
    trunc_poly_algebra,
)
from .manifest import REQUIRED, ManifestError, boolean, check, choice
from .manifest import integer, reference
from .poly import Poly, monomials_upto

HALF = Fraction(1, 2)


class JobOutcome:
    """What one job reports: a status, a one-line summary, a table of
    deterministic data, and the first few exact witnesses on failure."""

    __slots__ = ("status", "summary", "data", "witnesses")

    def __init__(self, status, summary, data=None, witnesses=None):
        if status not in ("pass", "fail", "info"):
            raise ValueError(f"bad status {status!r}")
        self.status = status
        self.summary = summary
        self.data = data or {}
        self.witnesses = witnesses or []

    def __repr__(self):
        return f"JobOutcome({self.status}, {self.summary!r})"


MAX_WITNESSES = 5


class _Tally:
    """Collects checks and failures; formats at most MAX_WITNESSES."""

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.witnesses = []

    def ok(self, passed, describe):
        self.checked += 1
        if not passed:
            self.failed += 1
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(describe())
        return passed

    def outcome(self, label, data=None):
        data = dict(data or {})
        data["checked"] = self.checked
        data["failed"] = self.failed
        if self.failed:
            return JobOutcome(
                "fail",
                f"{label}: {self.failed} of {self.checked} checks failed",
                data,
                self.witnesses,
            )
        return JobOutcome("pass", f"{label}: {self.checked} checks", data)


# ------------------------------------------------------------------ helpers

def _rand_cochain(A, arity, rng):
    basis = hh.basis_cochains(A, arity)
    c = hh.Cochain.zero(A, arity)
    for e in rng.sample(basis, min(3, len(basis))):
        c = c + rng.choice([1, 2, -1]) * e
    return c


def _all_chains(A, n, reduced=False):
    rest = A.bar_indices() if reduced else list(range(A.dim))
    for head in range(A.dim):
        for tail in product(rest, repeat=n):
            yield hh.Chain.elementary(A, (head,) + tail)


def _rand_poly(rng, n, deg):
    p = Poly.zero(n)
    for _ in range(2):
        e = [0] * n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n)] += 1
        p = p + Poly.monomial(n, tuple(e), Fraction(rng.randint(-2, 2)))
    return p


def _rand_mv(rng, n, k, deg=1):
    return ct.MultiVector(
        n, k, {key: _rand_poly(rng, n, deg) for key in combinations(range(n), k)}
    )


def _monomial_basis(cls, n, kmax, deg):
    """Monomial basis of multivectors or forms (``cls``) of degree at most
    ``kmax``: one coefficient monomial per index tuple."""
    return [
        cls(n, len(key), {key: Poly.monomial(n, e)})
        for key, e in ct.frame_monomials(n, range(kmax + 1), deg)
    ]


def _mv_label(v):
    parts = [f"{c}*x^{list(e)}@{list(key)}" for (key, e), c in sorted(v.c.items())]
    return " + ".join(parts) if parts else "0"


def _moyal_plane():
    return df.moyal([[0, HALF], [-HALF, 0]], 4, FunctionModel(2, 4))


def _skewed_product():
    op = pd.PolyDiffOperator(2, 2, {((1, 0), (1, 0)): 1})
    return df.StarProduct(FunctionModel(2, 4), {1: op}, 3)


def _operator_dgla():
    return lf.dgla(lambda op: op.arity - 1, pd.delta, pd.bracket, [])


def _cochain_dgla(A):
    gens = []
    for ar in (1, 2):
        for i, c in enumerate(hh.basis_cochains(A, ar)):
            gens.append((f"c{ar}_{i}", c))
    return lf.dgla(lambda c: c.arity - 1, hh.delta, hh.bracket, gens)


def _schouten_structure(gens=()):
    return lf.LInftyStructure(
        lambda v: v.k - 1, {2: lambda a: ct.schouten(a[0], a[1])}, gens
    )


def _schouten_generators():
    one = Poly.const(2, 1)
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    return [
        ("f", ct.MultiVector.function(x)),
        ("X", ct.MultiVector(2, 1, {(0,): y})),
        ("Y", ct.MultiVector(2, 1, {(1,): one})),
        ("pi", ct.MultiVector(2, 2, {(0, 1): one})),
        ("rho", ct.MultiVector(2, 2, {(0, 1): x})),
    ]


def _chain_samples(A):
    chains = (ch for n in range(3) for ch in _all_chains(A, n))
    return [(f"ch{next(iter(ch.c))}", ch) for ch in chains]


def _chains_module(A, S, boundary):
    return lf.LInftyModule(
        S,
        lambda ch: -ch.n,
        {0: lambda xs, m: boundary(m), 1: lambda xs, m: hh.lie_action(xs[0], m)},
        _chain_samples(A),
    )


# ------------------------------------------------------------------ op registry

OPS = {}


def _op(name, schema=None, agree=None):
    """Register an op with the schema of its arguments (see
    ``manifest.check``); the op is called with the checked values.
    ``agree(values, where)``, when given, raises ``ManifestError`` on checked
    values that are each valid but do not fit together."""
    def wrap(fn):
        OPS[name] = SimpleNamespace(fn=fn, schema=schema or {}, agree=agree)
        return fn

    return wrap


def check_job_args(job, manifest):
    """Check a job's arguments against its op's schema when the manifest
    loads, and keep the checked values for ``run_job``.  The manifest must
    have been loaded with ``known_ops=OPS``."""
    where = f"job {job.name!r}"
    op = OPS[job.op]
    job.values = check(op.schema, job.args, where, manifest, f"{job.op} argument")
    if op.agree is not None:
        op.agree(job.values, where)


def run_job(job, manifest):
    return OPS[job.op].fn(job.values)


_PRESET_ALGEBRAS = {
    "dual-numbers": dual_numbers,
    "truncated-poly-3": lambda: trunc_poly_algebra(3),
    "matrix-2x2": mat2_unital,
}
_ALGEBRA = reference("algebra", _PRESET_ALGEBRAS)
_PLANES = (integer(1, many=True), [1, 2])
_NT_VALUES = [2, 3, 4]


def _bivector(v, where, key, manifest):
    """A degree-2 multivector object."""
    label, piv = reference("multivector")(v, where, key, manifest)
    if piv.k != 2:
        raise ManifestError(f"{where}: {label!r} must have degree 2")
    return label, piv


def _weights(v, where, key, manifest):
    if not isinstance(v, list) or not all(isinstance(w, str) for w in v):
        raise ManifestError(f"{where}: weights must be a list of strings")
    for z in v:
        if z not in ah._Z_TOKENS:
            raise ManifestError(f"{where}: unknown weight token {z!r}")
    return v


# ------------------------------------------------------------------ cochain laws

_POOL = (1, 1, 2, 2, 3)  # arities of the seeded cochains the Jacobi triples draw


@_op(
    "identity-suite",
    {
        "algebra": (_ALGEBRA, None),
        "jacobi-samples": (integer(1, maximum=comb(len(_POOL) + 2, 3)), 20),
    },
)
def _identity_suite(args):
    """Square-zero differential, graded Jacobi, product Leibniz, and closure
    of the normalized subcomplex, over small associative algebras."""
    nsamp = args["jacobi-samples"]
    if args["algebra"]:
        algebras = [args["algebra"]]
    else:
        names = ("truncated-poly-3", "matrix-2x2")
        algebras = [(name, _PRESET_ALGEBRAS[name]()) for name in names]
    t = _Tally()
    for label, A in algebras:
        for ar in range(0, 4):
            for i, e in enumerate(hh.basis_cochains(A, ar)):
                t.ok(
                    hh.delta(hh.delta(e)).is_zero(),
                    lambda label=label, ar=ar, i=i: (
                        f"{label}: differential fails to square to zero on"
                        f" basis cochain {i} of arity {ar}"
                    ),
                )
        for ar in (1, 2, 3):
            for i, e in enumerate(hh.basis_cochains(A, ar, reduced=True)):
                t.ok(
                    e.is_reduced() and hh.delta(e).is_reduced(),
                    lambda label=label, ar=ar, i=i: (
                        f"{label}: normalized subcomplex not closed on"
                        f" basis cochain {i} of arity {ar}"
                    ),
                )
        rng = random.Random(101)
        pool = [_rand_cochain(A, a, rng) for a in _POOL]
        triples = list(combinations_with_replacement(range(len(pool)), 3))
        for idx in triples[:nsamp]:
            D, E, F = (pool[i] for i in idx)
            pa, pb, pc = D.lie_degree, E.lie_degree, F.lie_degree
            z = (
                (-1) ** (pa * pc) * hh.bracket(D, hh.bracket(E, F))
                + (-1) ** (pb * pa) * hh.bracket(E, hh.bracket(F, D))
                + (-1) ** (pc * pb) * hh.bracket(F, hh.bracket(D, E))
            )
            t.ok(
                z.is_zero(),
                lambda label=label, idx=idx: (
                    f"{label}: graded Jacobi fails on sampled triple {idx}"
                ),
            )
        pairs = [(0, 2), (2, 0), (2, 3), (0, 4), (4, 2)]
        for i, j in pairs:
            X, Y = pool[i], pool[j]
            s = -1 if X.arity % 2 else 1
            lhs = hh.delta(hh.cup(X, Y))
            rhs = hh.cup(hh.delta(X), Y) + s * hh.cup(X, hh.delta(Y))
            t.ok(
                lhs == rhs,
                lambda label=label, i=i, j=j: (
                    f"{label}: differential fails the product Leibniz rule"
                    f" on sampled pair ({i}, {j})"
                ),
            )
            t.ok(
                hh.cup(hh.cup(X, Y), X) == hh.cup(X, hh.cup(Y, X)),
                lambda label=label, i=i, j=j: (
                    f"{label}: cup associativity fails on sampled pair ({i}, {j})"
                ),
            )
    return t.outcome("cochain identity suite")


@_op("chain-suite")
def _chain_suite(args):
    """Boundary and cyclic operators on chains: square-zero laws, the
    action of the multiplication cochain, and transport compatibilities."""
    t = _Tally()
    A = dual_numbers()
    m = hh.Cochain.multiplication(A)
    for n in range(0, 5):
        for ch in _all_chains(A, n):
            if n >= 2:
                t.ok(
                    hh.chain_b(hh.chain_b(ch)).is_zero(),
                    lambda n=n: f"b^2 != 0 on a degree-{n} chain",
                )
            if n >= 1:
                t.ok(
                    hh.chain_b(ch) == hh.lie_action(m, ch),
                    lambda n=n: f"b != action of multiplication at degree {n}",
                )
        for ch in _all_chains(A, n, reduced=True):
            t.ok(
                hh.connes_B(hh.connes_B(ch)).is_zero(),
                lambda n=n: f"B^2 != 0 on a normalized degree-{n} chain",
            )
            if n >= 1:
                anti = hh.chain_b(hh.connes_B(ch)).normalized() + hh.connes_B(
                    hh.chain_b(ch).normalized()
                )
                t.ok(
                    anti.is_zero(),
                    lambda n=n: f"bB + Bb != 0 at degree {n}",
                )
    rng = random.Random(202)
    for d, e in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        D = _rand_cochain(A, d, rng)
        E = _rand_cochain(A, e, rng)
        DE = hh.bracket(D, E)
        sgn = (-1) ** ((d - 1) * (e - 1))
        for n in range(max(d, e), 5):
            for ch in _all_chains(A, n):
                lhs = hh.lie_action(D, hh.lie_action(E, ch)) - sgn * hh.lie_action(
                    E, hh.lie_action(D, ch)
                )
                t.ok(
                    lhs == hh.lie_action(DE, ch),
                    lambda d=d, e=e, n=n: (
                        f"commutator of actions != action of bracket"
                        f" (arities {d},{e}, degree {n})"
                    ),
                )
    for d in (1, 2, 3):
        D = _rand_cochain(A, d, rng).reduce()
        s = (-1) ** (d - 1)
        for n in range(max(d - 1, 0), 4):
            for ch in _all_chains(A, n, reduced=True):
                t1 = hh.connes_B(hh.lie_action(D, ch).normalized())
                t2 = hh.lie_action(D, hh.connes_B(ch)).normalized()
                t.ok(
                    (t1 - s * t2).is_zero(),
                    lambda d=d, n=n: (
                        f"cyclic operator does not commute with the action"
                        f" (arity {d}, degree {n})"
                    ),
                )
    # a second, function-model algebra with randomized chains
    J = jet_algebra(2, 2)
    mJ = hh.Cochain.multiplication(J)
    for tup in _random_tuples(J.dim, 24, random.Random(203)):
        ch = hh.Chain.elementary(J, tup)
        t.ok(
            hh.chain_b(hh.chain_b(ch)).is_zero(),
            lambda tup=tup: f"b^2 != 0 on jet chain {tup}",
        )
        t.ok(
            hh.chain_b(ch) == hh.lie_action(mJ, ch),
            lambda tup=tup: f"b != multiplication action on jet chain {tup}",
        )
        nch = ch.normalized()
        anti = hh.chain_b(hh.connes_B(nch)).normalized() + hh.connes_B(
            hh.chain_b(nch).normalized()
        )
        t.ok(
            anti.is_zero(),
            lambda tup=tup: f"bB + Bb != 0 on jet chain {tup}",
        )
    return t.outcome("chain suite")


def _random_tuples(dim, count, rng):
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        out.append(tuple(rng.randrange(dim) for _ in range(n + 1)))
    return out


_BETTI = {
    "algebra": (_ALGEBRA, "dual-numbers"),
    "top": (integer(0, maximum=14), 4),
    "expect": (integer(0, many=True), None),
}
# a Betti job's largest space has dim R^(top + 1) chains, R = dim - 1 in a
# reduced complex: truncated-poly-3 at top 6 is the bound, all four flavors
# in about half a second.  R >= 2 is above it at top 15 (2 x 2^16 chains),
# so the top maximum 14 refuses nothing more there; it bounds R <= 1.
_BETTI_BOUND = 4**8


def _betti_bound(full):
    """The ``agree`` hook of a Betti op, which builds the unnormalized
    complex always when ``full`` and otherwise as ``reduced`` says: refuse
    a job whose largest space is above ``_BETTI_BOUND``."""
    def agree(values, where):
        (label, A), top = values["algebra"], values["top"]
        R = A.dim if full or not values["reduced"] else A.dim - 1
        if A.dim * R ** (top + 1) > _BETTI_BOUND:
            raise ManifestError(
                f"{where}: top {top} needs {A.dim} x {R}^{top + 1} chains of"
                f" {label!r} in degree {top + 1}, above the bound {_BETTI_BOUND}"
            )
    return agree


@_op(
    "betti",
    {
        **_BETTI,
        "reduced": (boolean, True),
        "kind": (choice("homology", "cohomology"), "homology"),
    },
    _betti_bound(full=False),
)
def _betti(args):
    """Betti numbers of the (co)chain complex of an algebra, optionally
    checked against expected values."""
    (label, A), top, expect = args["algebra"], args["top"], args["expect"]
    reduced, kind = args["reduced"], args["kind"]
    fn = hh.homology_betti if kind == "homology" else hh.cohomology_betti
    values = fn(A, top, reduced=reduced)
    data = {"algebra": label, "kind": kind, "reduced": reduced, "betti": values}
    if expect is None:
        return JobOutcome("info", f"betti table of {label} ({kind})", data)
    if values == expect:
        return JobOutcome("pass", f"betti table of {label} matches", data)
    return JobOutcome(
        "fail",
        f"betti table of {label} differs",
        data,
        [f"computed {values}, expected {expect}"],
    )


@_op("betti-agreement", _BETTI, _betti_bound(full=True))
def _betti_agreement(args):
    """Betti numbers of the normalized and unnormalized complexes agree,
    for homology and cohomology both."""
    (label, A), top, expect = args["algebra"], args["top"], args["expect"]
    tables = {
        "homology-reduced": hh.homology_betti(A, top, reduced=True),
        "homology-full": hh.homology_betti(A, top, reduced=False),
        "cohomology-reduced": hh.cohomology_betti(A, top, reduced=True),
        "cohomology-full": hh.cohomology_betti(A, top, reduced=False),
    }
    data = {"algebra": label}
    data.update(tables)
    witnesses = []
    base = tables["homology-reduced"]
    for key in ("homology-full", "cohomology-reduced", "cohomology-full"):
        if tables[key] != base:
            witnesses.append(f"{key} = {tables[key]} differs from {base}")
    if expect is not None and base != expect:
        witnesses.append(f"computed {base}, expected {expect}")
    if witnesses:
        return JobOutcome(
            "fail", f"betti tables of {label} disagree", data, witnesses
        )
    return JobOutcome(
        "pass", f"betti tables of {label} agree in degrees 0..{top}", data
    )


# ------------------------------------------------------------------ multivectors

@_op("hkr-suite", {"closed-samples": (integer(1), 20)})
def _hkr_suite(args):
    """The symbol-to-operator map lands in cocycles, and its failures to
    respect bracket and product are exact, with solved primitives."""
    nclosed = args["closed-samples"]
    t = _Tally()
    rng = random.Random(303)
    for i in range(nclosed):
        if i % 5 < 3:
            piv = _rand_mv(rng, 2, rng.choice([1, 2]), 2)
        else:
            piv = _rand_mv(rng, 3, rng.choice([2, 3]), 1)
        t.ok(
            pd.delta(ct.hkr(piv)).is_zero(),
            lambda i=i: f"operator of sampled multivector {i} is not closed",
        )
    for defect, i, what in _hkr_defects():
        Y = pd.delta_primitive(defect)
        t.ok(
            Y is not None and pd.delta(Y) == defect,
            lambda i=i, what=what: f"{what} defect {i} has no solved primitive",
        )
    return t.outcome("symbol-map suite")


def _hkr_defects():
    """(defect, index, law) of the symbol map against the bracket and the
    product, on three seeded bivector pairs each."""
    for seed, deg, op, law, what in (
        (304, 2, pd.bracket, ct.schouten, "bracket"),
        (305, 1, pd.cup, ct.MultiVector.wedge, "product"),
    ):
        rng = random.Random(seed)
        for i in range(3):
            piv = ct.MultiVector(2, 2, {(0, 1): _rand_poly(rng, 2, deg)})
            psi = ct.MultiVector(2, 2, {(0, 1): _rand_poly(rng, 2, deg)})
            yield op(ct.hkr(piv), ct.hkr(psi)) - ct.hkr(law(piv, psi)), i, what


def _light_tuples(weights, length, budget):
    """The index tuples of ``length`` whose weights sum to at most
    ``budget``, in lexicographic order.  ``weights`` never decreases, so an
    index too heavy for what is left ends its slot's loop."""
    if not length:
        yield ()
        return
    for i, w in enumerate(weights):
        if w > budget:
            break
        for tail in _light_tuples(weights, length - 1, budget - w):
            yield (i,) + tail


# the suite's work about doubles with each degree: 8,330 checks at degree 6
@_op("mu-suite", {"max-degree": (integer(1, maximum=6), 3)})
def _mu_suite(args):
    """The chain-to-form map kills boundaries and turns the cyclic
    operator into the exterior derivative, on monomial chains.  The jet
    algebra is cut off at the largest chain weight, so no product of a
    sampled chain is truncated."""
    maxdeg = args["max-degree"]
    model = FunctionModel(2, maxdeg)
    A = jet_algebra(2, maxdeg)
    weights = [sum(e) for e in model.monomials]
    t = _Tally()
    for nn in range(0, 4):
        for tup in _light_tuples(weights, nn + 1, maxdeg):
            ch = hh.Chain.elementary(A, tup)
            t.ok(
                ct.connes_mu_chain(model, hh.chain_b(ch)).is_zero(),
                lambda tup=tup: f"boundary of chain {tup} survives the form map",
            )
            lhs = ct.connes_mu_chain(model, hh.connes_B(ch))
            rhs = ct.deRham_d(ct.connes_mu_chain(model, ch))
            t.ok(
                lhs == rhs,
                lambda tup=tup: (
                    f"cyclic operator does not match d on chain {tup}"
                ),
            )
    return t.outcome("chains-to-forms suite")


@_op("schouten-suite", {"bivector-samples": (integer(1), 10)})
def _schouten_suite(args):
    """Bracket axioms on multivectors, the cyclic-sum identity for the
    induced bracket on functions, and the leading term of the constant
    exponential product."""
    nbiv = args["bivector-samples"]
    t = _Tally()
    # shifted antisymmetry: exhaustive over the monomial basis, deep coefficients
    basis4 = _monomial_basis(ct.MultiVector, 3, 3, 2)
    for a, b in combinations_with_replacement(range(len(basis4)), 2):
        A, B = basis4[a], basis4[b]
        r = {}
        ct.schouten_into(r, A, B, 1)
        ct.schouten_into(r, B, A, -1 if ((A.k - 1) * (B.k - 1)) % 2 else 1)
        t.ok(
            not r,
            lambda A=A, B=B: (
                f"antisymmetry fails on {_mv_label(A)} and {_mv_label(B)}"
            ),
        )
    # shifted Jacobi and wedge Leibniz: exhaustive over the linear-coefficient
    # basis, with every bracket of two basis elements read from one table
    basis1 = _monomial_basis(ct.MultiVector, 3, 3, 1)
    S = [[ct.schouten(A, B) for B in basis1] for A in basis1]
    for ia, ib, icx in combinations_with_replacement(range(len(basis1)), 3):
        A, B, C = basis1[ia], basis1[ib], basis1[icx]
        a, b, c = A.k, B.k, C.k
        r = {}
        ct.schouten_into(r, A, S[ib][icx], -1 if ((a - 1) * (c - 1)) % 2 else 1)
        ct.schouten_into(r, B, S[icx][ia], -1 if ((b - 1) * (a - 1)) % 2 else 1)
        ct.schouten_into(r, C, S[ia][ib], -1 if ((c - 1) * (b - 1)) % 2 else 1)
        t.ok(
            not r,
            lambda ia=ia, ib=ib, icx=icx: (
                f"graded Jacobi fails on basis triple ({ia}, {ib}, {icx})"
            ),
        )
        r = {}
        ct.schouten_into(r, A, B.wedge(C), 1)
        ct.wedge_into(r, S[ia][ib], C, -1)
        ct.wedge_into(r, B, S[ia][icx], 1 if ((a - 1) * b) % 2 else -1)
        t.ok(
            not r,
            lambda ia=ia, ib=ib, icx=icx: (
                f"wedge Leibniz fails on basis triple ({ia}, {ib}, {icx})"
            ),
        )
    # anchoring: functions commute; fields act by derivative
    monos = monomials_upto(3, 3)
    for ea, eb in combinations_with_replacement(monos, 2):
        f = ct.MultiVector.function(Poly.monomial(3, ea))
        g = ct.MultiVector.function(Poly.monomial(3, eb))
        t.ok(
            ct.schouten(f, g).is_zero(),
            lambda ea=ea, eb=eb: f"functions {ea} and {eb} fail to commute",
        )
    for w in range(3):
        for ex in monomials_upto(3, 2):
            X = ct.MultiVector(3, 1, {(w,): Poly.monomial(3, ex)})
            for ef in monomials_upto(3, 2):
                f = Poly.monomial(3, ef)
                want = Poly.monomial(3, ex) * f.diff(w)
                got = ct.schouten(X, ct.MultiVector.function(f))
                t.ok(
                    got == ct.MultiVector.function(want),
                    lambda w=w, ex=ex, ef=ef: (
                        f"field (e{w}, x^{list(ex)}) fails to derive x^{list(ef)}"
                    ),
                )
    # cyclic-sum identity on randomized bivectors, monomial function triples;
    # the differentials df and the triple wedges df^dg^dh do not depend on
    # the bivector, and the inner Poisson brackets {f, g} = <pi, df^dg> and
    # their differentials come from one table per bivector
    monos2 = monomials_upto(3, 2)
    dfs = [ct.deRham_d(ct.Form.function(Poly.monomial(3, e))) for e in monos2]
    triples = list(combinations_with_replacement(range(len(monos2)), 3))
    vols = [dfs[a].wedge(dfs[b]).wedge(dfs[c]) for a, b, c in triples]
    rng = random.Random(404)
    for i in range(nbiv):
        piv = _rand_mv(rng, 3, 2, 2)
        jac = ct.jacobiator(piv)
        pb = [[ct.pairing(piv, da.wedge(db)) for db in dfs] for da in dfs]
        dpb = [[ct.deRham_d(ct.Form.function(p)) for p in row] for row in pb]
        for (a, b, c), vol in zip(triples, vols):
            lhs = (
                ct.pairing(piv, dfs[a].wedge(dpb[b][c]))
                + ct.pairing(piv, dfs[b].wedge(dpb[c][a]))
                + ct.pairing(piv, dfs[c].wedge(dpb[a][b]))
            )
            t.ok(
                lhs == ct.pairing(jac, vol),
                lambda i=i, ea=monos2[a], eb=monos2[b], ec=monos2[c]: (
                    f"cyclic sum != closure pairing for sampled bivector {i}"
                    f" on monomials {ea}, {eb}, {ec}"
                ),
            )
    # the leading bivector of the constant exponential product is flat
    pi0 = df.leading_poisson(_moyal_plane())
    t.ok(
        ct.jacobiator(pi0).is_zero(),
        lambda: "leading bivector of the exponential product is not flat",
    )
    return t.outcome("multivector bracket suite")


# ------------------------------------------------------------------ homotopy layer

@_op("linfty-suite")
def _linfty_suite(args):
    """Structure and module sweeps pass on the genuine packagings and
    fail with witnesses on engineered perturbations."""
    t = _Tally()
    A = dual_numbers()
    S = _cochain_dgla(A)
    rep = lf.check_linfty(S, max_arity=3)
    t.ok(rep.ok, lambda: f"cochain bracket table fails: {len(rep.witnesses)} witnesses")
    Ss = _schouten_structure(_schouten_generators())
    rep2 = lf.check_linfty(Ss, max_arity=3)
    t.ok(
        rep2.ok,
        lambda: f"multivector bracket table fails: {len(rep2.witnesses)} witnesses",
    )
    M = _chains_module(A, S, hh.chain_b)
    rep3 = lf.check_module(M, max_arity=2)
    t.ok(rep3.ok, lambda: f"chains module fails: {len(rep3.witnesses)} witnesses")
    forms = [
        ("one", ct.Form.function(Poly.const(2, 1))),
        ("fx", ct.Form.function(Poly.var(2, 0))),
        ("dx", ct.Form(2, 1, {(0,): Poly.const(2, 1)})),
        ("xdy", ct.Form(2, 1, {(1,): Poly.var(2, 0)})),
        ("vol", ct.Form(2, 2, {(0, 1): Poly.const(2, 1)})),
    ]
    N = lf.LInftyModule(
        Ss,
        lambda a: a.k,
        {
            0: lambda xs, m: ct.deRham_d(m),
            1: lambda xs, m: ct.lie_derivative(xs[0], m),
        },
        forms,
    )
    rep4 = lf.check_module(N, max_arity=2)
    t.ok(rep4.ok, lambda: f"forms module fails: {len(rep4.witnesses)} witnesses")
    # engineered perturbations must fail
    E = hh.basis_cochains(A, 1)[1]
    bad = lf.dgla(
        lambda c: c.arity - 1,
        lambda c: hh.delta(c) + hh.cup(E, c),
        hh.bracket,
        S.generators[:6],
    )
    repb = lf.check_linfty(bad, max_arity=2)
    t.ok(
        not repb.ok,
        lambda: "perturbed differential slipped through the structure sweep",
    )
    badM = _chains_module(A, S, lambda m: 2 * hh.chain_b(m))
    repc = lf.check_module(badM, max_arity=1)
    t.ok(
        not repc.ok,
        lambda: "rescaled boundary slipped through the module sweep",
    )
    return t.outcome(
        "homotopy-structure suite",
        {
            "structure-tuples": rep.checked + rep2.checked,
            "module-tuples": rep3.checked + rep4.checked,
        },
    )


@_op("mc-star", {"star": (reference("star-product"), None)})
def _mc_star(args):
    """Associativity of the exponential product, flatness of its element
    in the operator complex, and the per-order correspondence between
    associativity defects and flatness residuals on a counterexample."""
    t = _Tally()
    label, s = args["star"] or ("moyal-half", _moyal_plane())
    S = _operator_dgla()
    rep = df.check_associativity(s)
    t.ok(
        rep.ok,
        lambda: (
            f"{label}: associativity fails at orders"
            f" {sorted({o for _, o, _ in rep.witnesses})}"
        ),
    )
    res = lf.mc_residual(S, df.star_to_mc(s))
    t.ok(
        not res,
        lambda: f"{label}: flatness residual at orders {sorted(res)}",
    )
    # engineered counterexample: defect orders and residual orders agree,
    # and the residual operator evaluates to the associator
    bad = _skewed_product()
    badrep = df.check_associativity(bad, degree=2)
    badres = lf.mc_residual(S, df.star_to_mc(bad))
    orders = sorted({o for _, o, _ in badrep.witnesses})
    t.ok(
        orders == sorted(badres) == [2],
        lambda: (
            f"counterexample orders disagree: defects {orders},"
            f" residuals {sorted(badres)}"
        ),
    )
    if 2 in badres:
        A2 = badres[2]
        monos = monomials_upto(2, 2)
        polys = {e: Poly.monomial(2, e) for e in monos}
        # badrep swept the same triples: its order-2 witnesses are the defects
        defects = {abc: d for abc, k, d in badrep.witnesses if k == 2}
        for ea, eb, ec in product(monos, repeat=3):
            fa, fb, fc = polys[ea], polys[eb], polys[ec]
            defect = defects.get((ea, eb, ec), Poly.zero(2))
            t.ok(
                A2.apply([fa, fb, fc]) == defect,
                lambda ea=ea, eb=eb, ec=ec: (
                    f"residual != associator on monomials {ea}, {eb}, {ec}"
                ),
            )
    return t.outcome(
        "flatness/associativity suite",
        {"star": label, "associativity-triples": rep.checked},
    )


@_op("gerstenhaber-suite")
def _gerstenhaber_suite(args):
    """Graded product/bracket compatibility laws on multivectors, plain and
    extended over the odd parameter, plus the square-zero odd operator whose
    second-order defect generates the bracket."""
    t = _Tally()
    gens3 = [
        (f"v{g.k}{''.join(map(str, key))}_{e[0]}{e[1]}", g)
        for g in _monomial_basis(ct.MultiVector, 2, 2, 3)
        for key, e in g.c  # the one term of g
    ]
    plain = lf.GerstenhaberData.from_rules(2, ct._wedge_rule, ct._schouten_rule, gens3)
    rep = lf.check_gerstenhaber(plain)
    t.ok(
        rep.ok,
        lambda: (
            f"plain laws fail: {sorted({law for law, _, _ in rep.witnesses})}"
        ),
    )
    gens1 = [(n, g) for n, g in gens3 if g.c and max(sum(e) for _, e in g.c) <= 1]
    E = lf.epsilon_extend(2, ct._wedge_rule, ct._schouten_rule, gens1)
    repE = lf.check_gerstenhaber(E)
    t.ok(
        repE.ok,
        lambda: (
            f"extended laws fail: {sorted({law for law, _, _ in repE.witnesses})}"
        ),
    )
    # the odd operator's defect against the Leibniz rule is the bracket, on
    # the e-free generators
    body = E.generators[::2]
    for nx, x in body:
        for ny, y in body:
            t.ok(
                not E.delta_defect(x, y),
                lambda nx=nx, ny=ny: (
                    f"second-order defect != bracket on ({nx}, {ny})"
                ),
            )
    return t.outcome(
        "graded-product/bracket suite",
        {"plain-checks": rep.checked, "extended-checks": repE.checked},
    )


# ------------------------------------------------------------------ transport layer

@_op(
    "pipeline-chain-maps",
    {"planes": _PLANES, "coefficient-cap": (integer(0), 2)},
)
def _pipeline_chain_maps(args):
    """Every stage of the weighted-form composition commutes with its
    displayed differentials, on monomial form samples."""
    planes, cap = args["planes"], args["coefficient-cap"]
    t = _Tally()
    total = 0
    for n in planes:
        sd = ah.SymplecticData(n)
        forms = _monomial_basis(ct.Form, sd.nvars, sd.nvars, cap)
        samples = [ah.SeriesForm.wrap(f) for f in forms]
        rep = ah.check_pipeline_chain_maps(sd, samples)
        total += rep.checked
        t.ok(
            rep.ok,
            lambda n=n, rep=rep: (
                f"{len(rep.witnesses)} stage/sample pairs fail at n={n}"
            ),
        )
    return t.outcome("pipeline chain-map suite", {"pairs-checked": total})


def _exp_contract_window(values, where):
    """The ``agree`` hook of ``exp-contract``: at n = max-n the identity
    has a nonzero part at z^m for every m <= n, so refuse a weight z whose
    part would leave the series window."""
    n = values["max-n"]
    for z in values["weights"]:
        dt, du = ah._Z_TOKENS[z]
        for m in range(n + 1):
            if ah.window_refuses(ah.TWIN, m * dt, m * du):
                raise ManifestError(
                    f"{where}: max-n {n} takes weight {z!r} to t^{m * dt} u^{m * du},"
                    f" outside the series window"
                )


@_op(
    "exp-contract",
    {"max-n": (integer(1), 4), "weights": (_weights, ["t", "u", "t/u"])},
    _exp_contract_window,
)
def _exp_contract(args):
    """The exponential-contraction identity on volume powers, for each
    weight monomial."""
    max_n, weights = args["max-n"], args["weights"]
    t = _Tally()
    for n in range(1, max_n + 1):
        for z in weights:
            rep = ah.exp_contract_identity(n, z)
            t.ok(
                rep.ok,
                lambda n=n, z=z: f"identity fails at n={n}, weight {z}",
            )
    return t.outcome("exponential-contraction suite")


@_op("flat-transport", {"planes": _PLANES})
def _flat_transport(args):
    """The composite on the flat model is multiplication by its value at 1,
    and that value is the alternating volume-power series."""
    t = _Tally()
    for n in args["planes"]:
        sd = ah.SymplecticData(n)
        one = ah.SeriesForm.wrap(ct.Form.function(Poly.const(sd.nvars, 1)))
        got = ah.nu0(sd, one)
        want = ah.SeriesForm.zero(sd.nvars)
        for j in range(n + 1):
            want._add(-j, -j, Fraction((-1) ** j) * sd.omega_power(j))
        t.ok(
            got == want,
            lambda n=n: f"value at 1 is not the alternating volume series (n={n})",
        )
        # function-linearity on coordinate multiples of sample forms
        x0 = Poly.var(sd.nvars, 0)
        for f in _monomial_basis(ct.Form, sd.nvars, sd.nvars, 1):
            lhs = ah.nu0(sd, ah.SeriesForm.wrap(x0 * f))
            rhs = ah.nu0(sd, ah.SeriesForm.wrap(f)).map_form(lambda g: x0 * g)
            t.ok(
                lhs == rhs,
                lambda n=n, f=f: (
                    f"function-linearity fails on a degree-{f.k} sample (n={n})"
                ),
            )
    return t.outcome("flat-transport suite")


@_op("ahat-flat", {"planes": _PLANES, "nt-values": (integer(2, many=True), _NT_VALUES)})
def _ahat_flat(args):
    """The flat-model class expansion is the constant 1, with every
    positive-degree part certified exact, at each series cap."""
    t = _Tally()
    classes = {}
    for n in args["planes"]:
        for nt in args["nt-values"]:
            rep = ah.ahat_flat(n, nt)
            classes[f"n={n},nt={nt}"] = sorted(
                (list(k), str(v)) for k, v in rep.klass.items()
            )
            t.ok(
                rep.ok and rep.klass == {(0, 0): Fraction(1)},
                lambda n=n, nt=nt, rep=rep: (
                    f"class at n={n}, nt={nt} is {rep.klass}"
                    + ("" if rep.ok else " with uncertified parts")
                ),
            )
    return t.outcome("flat class expansion", {"classes": classes})


@_op(
    "degeneration-probe",
    {
        "multivector": (_bivector, None),
        "coefficient-cap": (integer(0), 2),
        "nt-values": (integer(1, many=True), _NT_VALUES),
        "expect-degenerate": (boolean, None),
    },
)
def _degeneration_probe(args):
    """Graded rank tables of the filtered complex against the split
    prediction; a finite-cap probe, not a proof."""
    label, piv = args["multivector"] or (
        "standard-plane",
        ct.MultiVector(2, 2, {(0, 1): Poly.const(2, 1)}),
    )
    cap = args["coefficient-cap"]
    tables = {}
    flags = {}
    for nt in args["nt-values"]:
        try:
            table = ah.spectral_degeneration_probe(piv, cap, nt)
        except ValueError as e:
            return JobOutcome(
                "fail",
                f"probe of {label} refused at nt={nt}",
                {"multivector": label},
                [str(e)],
            )
        tables[f"nt={nt}"] = [
            [r.grade, r.dim, r.homology, r.predicted] for r in table.rows
        ]
        flags[f"nt={nt}"] = table.degenerate
    data = {"multivector": label, "rows": tables, "degenerate": flags}
    expect = args["expect-degenerate"]
    if expect is None:
        return JobOutcome("info", f"probe tables for {label}", data)
    bad = [key for key, flag in sorted(flags.items()) if flag is not expect]
    if bad:
        return JobOutcome(
            "fail",
            f"probe of {label} contradicts the expectation",
            data,
            [f"{key}: degenerate={flags[key]}, expected {expect}" for key in bad],
        )
    return JobOutcome("pass", f"probe of {label} as expected at all caps", data)


def _series_text(val):
    """A {t-order: scalar} trace value in the report's series notation."""
    terms = " + ".join(f"{v}*t^{k}*u^0" for k, v in sorted(val.items()))
    return f"FormalSeries({terms})"


def _same_variables(values, where):
    """A trace is evaluated on the star product's polynomials, so the two
    must have one variable count."""
    (tlabel, tau), (slabel, s) = values["trace"], values["star"]
    if tau.nvars != s.model.nvars:
        raise ManifestError(
            f"{where}: trace {tlabel!r} is in {tau.nvars} variables,"
            f" star product {slabel!r} in {s.model.nvars}"
        )


@_op(
    "trace-defect",
    {
        "trace": (reference("trace"), REQUIRED),
        "star": (reference("star-product"), REQUIRED),
        "max-degree": (integer(0), None),
        "expect": (choice("zero", "nonzero"), None),
    },
    _same_variables,
)
def _trace_defect(args):
    """Commutator defect of a candidate trace against a star product, plus
    the induced-bracket defect against its leading bivector; the degree
    defaults to the product's cap."""
    (tlabel, tau), (slabel, s) = args["trace"], args["star"]
    degree = s.model.cap if args["max-degree"] is None else args["max-degree"]
    rep = df.trace_defect(tau, s, degree=degree)
    data = {
        "trace": tlabel,
        "star": slabel,
        "pairs-checked": rep.checked,
        "nonzero-pairs": len(rep.witnesses),
    }
    try:
        pi0 = df.leading_poisson(s)
        prep = df.poisson_defect(tau, pi0, degree=degree)
        data["bracket-nonzero-pairs"] = len(prep.witnesses)
    except ValueError:
        data["bracket-nonzero-pairs"] = "no leading bivector"
    witnesses = [
        f"tau(x^{list(ea)} * x^{list(eb)} - x^{list(eb)} * x^{list(ea)}) = "
        + _series_text(val)
        for (ea, eb), val in rep.witnesses[:MAX_WITNESSES]
    ]
    expect = args["expect"]
    if expect is None:
        return JobOutcome(
            "info", f"trace defect of {tlabel} against {slabel}", data, witnesses
        )
    good = rep.ok if expect == "zero" else not rep.ok
    if good:
        return JobOutcome(
            "pass", f"trace defect of {tlabel} is {expect} as expected", data
        )
    return JobOutcome(
        "fail",
        f"trace defect of {tlabel} is not {expect}",
        data,
        witnesses,
    )


# ------------------------------------------------------------------ built-in suite

SUITE_NAME = "core-identities"


def _suite_name(v, where, key, manifest):
    if v != SUITE_NAME:
        raise ManifestError(f"{where}: unknown suite {v!r} (have {SUITE_NAME})")
    return v


def expand_suite(args, model, name):
    """The canonical job battery: every identity family at default caps."""
    schema = {"suite": (_suite_name, SUITE_NAME)}
    check(schema, args, f"job {name!r}", None, "suite argument")
    return [
        ("core/identities", "identity-suite", {}),
        ("core/chains", "chain-suite", {}),
        (
            "core/betti",
            "betti-agreement",
            {"algebra": "dual-numbers", "top": 4, "expect": [2, 1, 1, 1, 1]},
        ),
        ("core/hkr", "hkr-suite", {}),
        ("core/mu", "mu-suite", {}),
        ("core/linfty", "linfty-suite", {}),
        ("core/mc-star", "mc-star", {}),
        ("core/schouten", "schouten-suite", {}),
        ("core/pipeline", "pipeline-chain-maps", {"planes": [1, 2]}),
        ("core/exp-contract", "exp-contract", {"max-n": 4}),
        ("core/flat-transport", "flat-transport", {"planes": [1, 2]}),
        (
            "core/ahat-flat",
            "ahat-flat",
            {"planes": [1, 2], "nt-values": [2, 3, 4]},
        ),
        (
            "core/probe",
            "degeneration-probe",
            {"coefficient-cap": 2, "nt-values": [2, 3, 4], "expect-degenerate": True},
        ),
        ("core/gerstenhaber", "gerstenhaber-suite", {}),
    ]
