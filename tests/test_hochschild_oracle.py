"""The Hochschild Betti matrices and tables that ``homology_betti`` and
``cohomology_betti`` compute, against the code before them.

``_old_delta`` and ``_old_chain_b`` are the earlier ``hochschild`` code,
and ``_old_homology_rows`` and ``_old_cohomology_rows`` the row builders
that went through them, with the elimination taken out.  Both are kept
verbatim as the reference, except that the row builders now keep a row for
every basis element, empty or not, so that a row's position is its basis
index, and that ``_old_cohomology_rows`` writes and reads cochain terms by
their flat (input tuple, output index) keys.  ``_bimodule_rows`` builds b
on the chains M (x) A^(x)n of a bimodule M on basis tuples, face by face;
``_dual_actions`` reads the actions of M = A* off their definitions.

Every map is checked three times.  The full matrix, before clearing, must
equal the reference entry for entry: b's against the transpose of the
calculus-built rows, since b is built with one row per chain of the degree
below, and delta's against the calculus-built rows of delta moved through
the pairing of C^n(A, A) with C_n(A, A*).  Both must also equal
``_bimodule_rows``, with A and A* as the bimodule, key for key in order.
And the rows handed to ``rank_kernel`` must be exactly the nonzero rows
of that matrix that clearing keeps: those not at a pivot column of the map
before, which ``_leading_columns`` finds by its own elimination.

``_old_homology_betti`` and ``_old_cohomology_betti`` are the Betti
functions before clearing, verbatim: row-major, every nonzero row
eliminated, nothing checked, and delta built from its closed form, on its
own copy of the lookups it read then (``_old_delta_lookups``), adding
their blocks through ``parent_betti._add_block``.  The tables must agree
in all four flavors, also on algebras that are not symmetric, where a
wrong dual bimodule changes the cochain table.
``delta`` must equal the bracket with the product cochain on seeded random
cochains.

Each map ``_betti`` yields grows its face rows from the map below; it must
equal the map ``parent_betti.betti_maps`` builds face by face from scratch,
key for key and in key order, for A and for A*.
"""

import random
from fractions import Fraction
from itertools import product as _cartesian

import pytest

from formality_lab import hochschild as hh
from formality_lab.algebras import (
    dual_numbers,
    jet_algebra,
    mat2_unital,
    trunc_poly_algebra,
)
from formality_lab.core import linalg
from formality_lab.core.basis import add_term, vec
from formality_lab.core.linalg import rank_kernel
from formality_lab.hochschild import (
    Chain,
    Cochain,
    basis_cochains,
    bracket,
    chain_b,
    cohomology_betti,
    delta,
    homology_betti,
)

import parent_betti as parent
from algebra_tools import mat2_elementary, mul, upper_triangular_2


# -- reference: the previous hochschild code, verbatim ---------------------------

def _old_delta(D):
    """Coboundary: bracket with the product cochain."""
    return bracket(Cochain.multiplication(D.algebra), D)


def _old_chain_b(ch):
    """Tensor-contraction boundary: adjacent products plus the wrap term."""
    A, n = ch.algebra, ch.n
    if n == 0:
        return Chain(A, 0)  # nothing below degree zero
    out = Chain(A, n - 1)
    for tup, coeff in ch.c.items():
        for i in range(n):
            prod = A.table.get((tup[i], tup[i + 1]))
            if not prod:
                continue
            sign = -1 if i % 2 else 1
            key_head, key_tail = tup[:i], tup[i + 2 :]
            for k, v in prod.items():
                add_term(out.c, key_head + (k,) + key_tail, sign * coeff * v)
        prod = A.table.get((tup[n], tup[0]))
        if prod:
            sign = -1 if n % 2 else 1
            tail = tup[1:n]
            for k, v in prod.items():
                add_term(out.c, (k,) + tail, sign * coeff * v)
    return out


def _chain_tuples(algebra, n, reduced):
    first = range(algebra.dim)
    if reduced:
        rest = algebra.bar_indices()
    else:
        rest = list(range(algebra.dim))
    for head in first:
        for tail in _cartesian(rest, repeat=n):
            yield (head,) + tail


def _old_homology_rows(algebra, top, reduced=True):
    dims = []
    tuple_index = {}
    for n in range(top + 2):
        tuples = list(_chain_tuples(algebra, n, reduced))
        tuple_index[n] = {t: i for i, t in enumerate(tuples)}
        dims.append(len(tuples))
    matrices = []
    for n in range(1, top + 2):
        cols = []
        for t in tuple_index[n]:
            img = _old_chain_b(Chain.elementary(algebra, t))
            if reduced:
                img = img.normalized()
            col = {tuple_index[n - 1][s]: v for s, v in img.c.items()}
            cols.append(col)
        matrices.append((cols, dims[n - 1]))
    return matrices


def _old_cohomology_rows(algebra, top, reduced=True):
    if reduced:
        slots = algebra.bar_indices()
    else:
        slots = list(range(algebra.dim))
    dim = algebra.dim

    def basis_keys(n):
        return [
            (t, k) for t in _cartesian(slots, repeat=n) for k in range(dim)
        ]

    key_index = {}
    dims = []
    for n in range(top + 2):
        keys = basis_keys(n)
        key_index[n] = {key: i for i, key in enumerate(keys)}
        dims.append(len(keys))
    matrices = []
    for n in range(top + 1):
        cols = []
        for (t, k) in key_index[n]:
            e = Cochain(algebra, n)
            e.c[(t, k)] = 1
            de = _old_delta(e)
            col = {}
            for (tt, kk), c in de.c.items():
                if reduced and any(i not in slots for i in tt):
                    continue
                col[key_index[n + 1][(tt, kk)]] = c
            cols.append(col)
        matrices.append((cols, dims[n + 1]))
    return matrices


def _bimodule_rows(algebra, top, reduced, right, left):
    """b_n on the chains M (x) A^(x)n of a bimodule M, n = 1..top + 1, built
    on basis tuples, as (rows, ncols): one row per chain of degree n - 1,
    {column: coefficient}.  right[(k, a)] is m_k a and left[(a, k)] is
    a m_k.  The rows are filled face by face, face 0 (the right action),
    faces 1..n - 1 (the product), then the wrap (the left action), each
    face over the chains of degree n in lexicographic order; in the reduced
    complex a term with the unit in a reducible slot is dropped."""
    matrices = []
    for n in range(1, top + 2):
        below = {t: x for x, t in enumerate(_chain_tuples(algebra, n - 1, reduced))}
        chains = list(_chain_tuples(algebra, n, reduced))
        rows = [{} for _ in below]
        for i in range(n + 1):
            sign = -1 if i % 2 else 1
            for y, t in enumerate(chains):
                if i == n:
                    prod = left.get((t[n], t[0]), {})
                    terms = [((k,) + t[1:n], v) for k, v in prod.items()]
                else:
                    prod = (right if i == 0 else algebra.table).get((t[i], t[i + 1]), {})
                    terms = [(t[:i] + (k,) + t[i + 2 :], v) for k, v in prod.items()]
                for s, v in terms:
                    if s in below:
                        add_term(rows[below[s]], y, sign * v)
        matrices.append((rows, len(chains)))
    return matrices


def _dual_actions(algebra):
    """(right, left) of the dual bimodule A*, read off the definitions
    (phi a)(x) = phi(a x) and (a phi)(x) = phi(x a) on basis elements."""
    dim = algebra.dim
    right, left = {}, {}
    for k in range(dim):
        for a in range(dim):
            ax = [(x, mul(algebra, {a: 1}, {x: 1}).get(k, 0)) for x in range(dim)]
            xa = [(x, mul(algebra, {x: 1}, {a: 1}).get(k, 0)) for x in range(dim)]
            right[(k, a)], left[(a, k)] = vec(*ax), vec(*xa)
    return right, left


# -- reference: the Betti functions before clearing, verbatim ----------------------

def _old_homology_betti(algebra, top, reduced=True):
    """Chain-complex Betti numbers in degrees 0..top.

    Each row of b is filled as ``_b_terms`` lists its terms: face i is
    (-1)^i I (x) m (x) I on slots i and i + 1, then the wrap term.  In the
    reduced complex a product in a reducible slot keeps only its bar
    components, the terms missing from the normalized chains."""
    dim, table = algebra.dim, algebra.table
    rest = algebra.bar_indices() if reduced else list(range(dim))
    R = len(rest)
    pos = {i: r for r, i in enumerate(rest)}
    # m on (slot 0, slot 1) -> slot 0, and on two reducible slots -> one
    m_head = [list(table.get((a, b), {}).items()) for a in range(dim) for b in rest]
    m_bar = [
        [(pos[k], v) for k, v in table.get((a, b), {}).items() if k in pos]
        for a in rest
        for b in rest
    ]
    dims = [dim * R**n for n in range(top + 2)]
    ranks = [0] * (top + 2)
    for n in range(1, top + 2):
        rows = [{} for _ in range(dims[n])]
        parent._add_block(rows, 1, 1, m_head, dim, R ** (n - 1))
        for i in range(1, n):
            sign = -1 if i % 2 else 1
            parent._add_block(rows, sign, dim * R ** (i - 1), m_bar, R, R ** (n - 1 - i))
        # wrap: (i_0, mid, i_n) -> (m(i_n, i_0), mid), mid < R^(n-1)
        sign = -1 if n % 2 else 1
        mid = R ** (n - 1)
        for a in range(dim):
            for last, b in enumerate(rest):
                x = a * R**n + last
                for k, v in table.get((b, a), {}).items():
                    y, v = k * mid, sign * v
                    for u in range(mid):
                        add_term(rows[x + u * R], y + u, v)
        rank, _ = rank_kernel([row for row in rows if row], dims[n - 1])
        ranks[n] = rank
    return [dims[n] - ranks[n] - ranks[n + 1] for n in range(top + 1)]


def _old_delta_lookups(algebra, slots):
    """The structure constants as the coboundary reads them, with every
    new input index drawn from ``slots``: left[k] lists (b, m(k, b)),
    right[k] lists (a, m(a, k)), and pre[c] lists (a, b, m(a, b)_c) for
    each nonzero c-coefficient."""
    table = algebra.table
    left, right, pre = {}, {}, {}
    for k in range(algebra.dim):
        left[k] = [(b, table[(k, b)]) for b in slots if (k, b) in table]
        right[k] = [(a, table[(a, k)]) for a in slots if (a, k) in table]
    for a in slots:
        for b in slots:
            for c, v in table.get((a, b), {}).items():
                pre.setdefault(c, []).append((a, b, v))
    return left, right, pre


def _old_cohomology_betti(algebra, top, reduced=True):
    """Cochain-complex Betti numbers in degrees 0..top.

    Each row of delta is filled as ``_delta_terms`` lists its terms, read
    off the parent ``_delta_lookups`` (``_old_delta_lookups``): ``left`` is
    I (x) L, ``right`` puts the new input in front of t, and the split of
    slot j is +-I (x) P (x) I."""
    dim = algebra.dim
    slots = algebra.bar_indices() if reduced else list(range(dim))
    R = len(slots)
    pos = {i: r for r, i in enumerate(slots)}
    left, right, pre = _old_delta_lookups(algebra, slots)
    # L: k -> (b, output); P: t_j -> (a, b) with t_j's coefficient in m(a, b)
    L = [
        [(pos[b] * dim + kk, c) for b, v in left[k] for kk, c in v.items()]
        for k in range(dim)
    ]
    P = [[(pos[a] * R + pos[b], c) for a, b, c in pre.get(tj, ())] for tj in slots]
    dims = [R**n * dim for n in range(top + 2)]
    ranks = [0] * (top + 2)  # ranks[n] = rank of delta: C^n -> C^(n+1)
    for n in range(top + 1):
        rows = [{} for _ in range(dims[n])]
        T = R**n
        parent._add_block(rows, 1, T, L, R * dim, 1)
        sign = 1 if n % 2 else -1  # (-1)^(n-1)
        # right: (t, k) -> ((a,) + t, output), t < T
        for k in range(dim):
            for a, v in right[k]:
                for kk, c in v.items():
                    y, c = pos[a] * T * dim + kk, sign * c
                    for u in range(T):
                        add_term(rows[u * dim + k], y + u * dim, c)
        for j in range(n):
            s = sign if j % 2 else -sign  # outer (-1)^j, as in _delta_terms
            parent._add_block(rows, s, R**j, P, R * R, R ** (n - 1 - j) * dim)
        rank, _ = rank_kernel([row for row in rows if row], dims[n + 1])
        ranks[n] = rank
    return [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)]


# -- the matrices the current code builds, and the rows it eliminates ------------------

def _recorded(monkeypatch, fn, algebra, top, reduced):
    """(full, fed): each map as ``betti`` receives it, before clearing, and
    the rows then handed to ``rank_kernel``, both as (rows, ncols) in
    degree order."""
    full, fed = [], []
    real_betti, real_kernel = hh.betti, linalg.rank_kernel

    def tee(dims, maps):
        for i, (n, rows) in enumerate(maps):
            full.append(([dict(r) for r in rows], dims[i + 1]))
            yield n, rows

    def record(rows, ncols):
        fed.append(([dict(r) for r in rows], ncols))
        return real_kernel(rows, ncols)

    with monkeypatch.context() as m:
        m.setattr(hh, "betti", lambda name, dims, maps: real_betti(name, dims, tee(dims, maps)))
        m.setattr(linalg, "rank_kernel", record)
        fn(algebra, top, reduced=reduced)
    return full, fed


def _transposed(rows, ncols):
    """The transpose of ``rows``, as a list of ``ncols`` dict rows."""
    out = [{} for _ in range(ncols)]
    for x, row in enumerate(rows):
        for y, v in row.items():
            out[y][x] = v
    return out


def _leading_columns(rows):
    """The leading columns of the row space of ``rows``: Gaussian
    elimination in ``Fraction``, each row reduced against the ones kept."""
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            f = row[c] / piv[c]
            for cc, vv in piv.items():
                w = row.get(cc, 0) - f * vv
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
    return set(pivots)


# (name, algebra, top, flavors): every degree up to ``top`` in each flavor
CASES = [
    ("dual-numbers", dual_numbers, 4, (True, False)),
    ("trunc-2", lambda: trunc_poly_algebra(2), 3, (True, False)),
    ("trunc-3", lambda: trunc_poly_algebra(3), 3, (True, False)),
    ("mat2-unital", mat2_unital, 2, (True, False)),
    ("mat2-elementary", mat2_elementary, 2, (False,)),  # no unit in the basis
    ("jet-2-2", lambda: jet_algebra(2, 2), 2, (True, False)),
    ("dual-numbers-top-0", dual_numbers, 0, (True, False)),
    ("mat2-elementary-top-0", mat2_elementary, 0, (False,)),
    # not symmetric (A and A* are different bimodules), so HH^n != HH_n
    ("upper-triangular-2", upper_triangular_2, 3, (True, False)),
    ("jet-2-1", lambda: jet_algebra(2, 1), 3, (True, False)),
    ("jet-3-1", lambda: jet_algebra(3, 1), 2, (True, False)),
]


def _assert_rows(got, want, where, ordered):
    """``got`` equals ``want`` matrix by matrix and row by row, and, when
    ``ordered``, each row lists its keys in the order of ``want``'s."""
    assert len(got) == len(want)
    for n, ((rows, ncols), (old_rows, old_ncols)) in enumerate(zip(got, want)):
        assert ncols == old_ncols
        assert rows == old_rows, where + (n,)
        if ordered:
            for row, old_row in zip(rows, old_rows):
                assert list(row) == list(old_row), where + (n,)


def _assert_cleared(full, fed, where):
    """The rows fed for each map are its nonzero rows, in index order, less
    those at the leading columns of the map before it."""
    assert len(fed) == len(full)
    cleared = set()
    for n, ((rows, ncols), (fed_rows, fed_ncols)) in enumerate(zip(full, fed)):
        assert fed_ncols == ncols
        kept = [row for x, row in enumerate(rows) if row and x not in cleared]
        assert fed_rows == kept, where + (n,)
        cleared = _leading_columns(rows)


def _paired(rows, algebra, n, reduced):
    """(-1)^(n+1) delta_n's rows, one per cochain (t, k) of degree n, each
    row and column moved to the chain (k,) + t of A* (x) A^(x)n that the
    cochain pairs with: index k R^n + idx(t) instead of idx(t) dim + k.
    Under the pairing, b of A* is the transpose of delta up to that sign."""
    dim = algebra.dim
    R = len(algebra.bar_indices()) if reduced else dim
    sign = -1 if n % 2 == 0 else 1

    def move(x, m):
        t, k = divmod(x, dim)
        return k * R**m + t

    out = [None] * len(rows)
    for x, row in enumerate(rows):
        out[move(x, n)] = {move(y, n + 1): sign * v for y, v in row.items()}
    return out


@pytest.mark.parametrize("name,make,top,flavors", CASES, ids=[c[0] for c in CASES])
def test_rows_match_the_calculus_built_rows(monkeypatch, name, make, top, flavors):
    A = make()
    for reduced in flavors:
        full, fed = _recorded(monkeypatch, homology_betti, A, top, reduced)
        assert len(full) == top + 1
        where = (name, reduced, "b from degree")
        want = [
            (_transposed(rows, ncols), len(rows))
            for rows, ncols in _old_homology_rows(A, top, reduced)
        ]
        _assert_rows(full, want, where, False)
        _assert_rows(full, _bimodule_rows(A, top, reduced, A.table, A.table), where, True)
        _assert_cleared(full, fed, where)
        # the cochains, as the chains with coefficients in A*
        full, fed = _recorded(monkeypatch, cohomology_betti, A, top, reduced)
        assert len(full) == top + 1
        where = (name, reduced, "delta from degree")
        dual = _bimodule_rows(A, top, reduced, *_dual_actions(A))
        _assert_rows(full, dual, where, True)
        want = [
            (_paired(rows, A, n, reduced), ncols)
            for n, (rows, ncols) in enumerate(_old_cohomology_rows(A, top, reduced))
        ]
        _assert_rows(full, want, where, False)
        _assert_cleared(full, fed, where)
    if A.unit_index is None:
        # the normalized complexes need the unit among the basis elements
        for fn in (homology_betti, cohomology_betti):
            with pytest.raises(ValueError):
                fn(A, top, reduced=True)


def _tables(homology, cohomology, A, top, flavors):
    return [
        (reduced, homology(A, top, reduced=reduced), cohomology(A, top, reduced=reduced))
        for reduced in flavors
    ]


def _grown_and_parent_maps(monkeypatch, fn, algebra, top, reduced):
    """(got, want): the (n, rows) that ``_betti`` yields under ``fn``, all of
    them drawn before any is read, and the parent's on the same arguments."""
    calls, got = [], []
    real = hh._betti

    def spy(*args):
        calls.append(args)
        return real(*args)

    def record(name, dims, maps):
        got.extend(maps)

    with monkeypatch.context() as m:
        m.setattr(hh, "_betti", spy)
        m.setattr(hh, "betti", record)
        fn(algebra, top, reduced=reduced)
    (args,) = calls
    return got, list(parent.betti_maps(*args))


@pytest.mark.parametrize("name,make,top,flavors", CASES, ids=[c[0] for c in CASES])
def test_grown_maps_equal_the_parent_maps_in_key_order(monkeypatch, name, make, top, flavors):
    """Each map grown from the one below equals the parent's, built face by
    face, key for key and in key order, for A (chains) and A* (cochains).
    The maps are compared only once the last is built, so a map changed
    after it was handed on fails too."""
    A = make()
    for reduced in flavors:
        for fn in (homology_betti, cohomology_betti):
            got, want = _grown_and_parent_maps(monkeypatch, fn, A, top, reduced)
            assert len(got) == len(want) == top + 1
            for (n, rows), (old_n, old_rows) in zip(got, want):
                where = (name, reduced, fn.__name__, n)
                assert n == old_n and len(rows) == len(old_rows), where
                for row, old_row in zip(rows, old_rows):
                    assert list(row.items()) == list(old_row.items()), where


@pytest.mark.parametrize("name,make,top,flavors", CASES, ids=[c[0] for c in CASES])
def test_betti_tables_match_the_uncleared_functions(name, make, top, flavors):
    A = make()
    for t in sorted({top, 4}):
        want = _tables(_old_homology_betti, _old_cohomology_betti, A, t, flavors)
        assert _tables(homology_betti, cohomology_betti, A, t, flavors) == want, (name, t)


def test_upper_triangular_tells_the_cochains_from_the_chains():
    """T_2 is not symmetric: HH^n is 1, 0, 0, 0 and HH_n is 2, 0, 0, 0, so
    its own table in place of A*'s changes the cochain table.  With the two
    dual actions swapped, A* is no bimodule, and b does not square to zero
    on T_2 or on M_2."""
    A = upper_triangular_2()
    for reduced in (True, False):
        assert homology_betti(A, 3, reduced=reduced) == [2, 0, 0, 0]
        assert cohomology_betti(A, 3, reduced=reduced) == [1, 0, 0, 0]
    for A in (upper_triangular_2(), mat2_unital()):
        right, left = _dual_actions(A)
        for reduced in (True, False):
            with pytest.raises(ValueError, match=r"^delta\^2 != 0: "):
                hh._betti(A, 3, reduced, left, right, "delta")


def _random_cochain(A, arity, rng):
    basis = basis_cochains(A, arity)
    c = Cochain.zero(A, arity)
    for e in rng.sample(basis, min(4, len(basis))):
        c = c + rng.choice([1, 2, -1, Fraction(-3, 2)]) * e
    return c


def test_delta_is_the_bracket_with_the_product_on_random_cochains():
    rng = random.Random(20261018)
    for make in (dual_numbers, lambda: trunc_poly_algebra(2), mat2_unital,
                 mat2_elementary, lambda: jet_algebra(2, 2)):
        A = make()
        for arity in range(4):
            for _ in range(4):
                D = _random_cochain(A, arity, rng)
                got = delta(D)
                assert got.arity == arity + 1
                assert got == _old_delta(D), (A.labels, arity)
        for arity in range(4):
            assert delta(Cochain.zero(A, arity)) == _old_delta(Cochain.zero(A, arity))


def test_chain_b_matches_the_previous_loop_on_random_chains():
    rng = random.Random(1018)
    for make in (dual_numbers, lambda: trunc_poly_algebra(3), mat2_elementary):
        A = make()
        for n in range(5):
            coeffs = {}
            for _ in range(5):
                tup = tuple(rng.randrange(A.dim) for _ in range(n + 1))
                coeffs[tup] = rng.choice([1, -2, 3])
            ch = Chain(A, n, coeffs)
            assert chain_b(ch) == _old_chain_b(ch)


def test_homology_workload_tables_in_all_four_flavors():
    """The sizes of the ``homology`` benchmark workload, against their
    closed forms: HH of Q[x]/(x^4) is 4 in degree 0 and 3 above, and
    M_2(Q) is Morita-trivial."""
    for make, top, want in (
        (lambda: trunc_poly_algebra(3), 5, [4, 3, 3, 3, 3, 3]),
        (mat2_unital, 4, [1, 0, 0, 0, 0]),
    ):
        A = make()
        for reduced in (True, False):
            assert homology_betti(A, top, reduced=reduced) == want
            assert cohomology_betti(A, top, reduced=reduced) == want
            assert _old_homology_betti(A, top, reduced=reduced) == want
            assert _old_cohomology_betti(A, top, reduced=reduced) == want
