"""The Hochschild matrix rows that ``homology_betti`` and ``cohomology_betti``
build on mixed-radix basis indices, against the builders before them.

``_old_delta`` and ``_old_chain_b`` are the earlier ``hochschild`` code,
and ``_old_homology_rows`` and ``_old_cohomology_rows`` the row builders
that went through them, with the elimination taken out.
``_tuple_cohomology_rows`` is the builder that came next: it enumerated
basis keys, looked each term of ``_delta_terms`` up in a {key: index}
dict and filled the rows through ``add_term``; its b twin did the same
with ``_b_terms`` over ``_chain_tuples``.  All are kept verbatim as the
reference.  The rows the Betti functions hand to ``rank_kernel`` must
equal them entry for entry, in both flavors and every degree, and list
their keys in the tuple-index builders' order, which fixes the work
``rank_kernel`` does.  The calculus-built b rows already have that order,
so they pin it for b; the bracket-built delta rows do not.  ``delta`` must
equal the bracket with the product cochain on seeded random cochains.
"""

import random
from fractions import Fraction
from itertools import product as _cartesian

import pytest

from formality_lab import hochschild as hh
from formality_lab.algebras import (
    dual_numbers,
    jet_algebra,
    mat2_elementary,
    mat2_unital,
    trunc_poly_algebra,
)
from formality_lab.core.basis import add_term
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
            if col:
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
            e.table[t] = {k: 1}
            de = _old_delta(e)
            col = {}
            for tt, vv in de.table.items():
                if reduced and any(i not in slots for i in tt):
                    continue
                for kk, c in vv.items():
                    col[key_index[n + 1][(tt, kk)]] = c
            if col:
                cols.append(col)
        matrices.append((cols, dims[n + 1]))
    return matrices


def _tuple_cohomology_rows(algebra, top, reduced=True):
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
    lookups = hh._delta_lookups(algebra, slots)
    matrices = []
    for n in range(top + 1):
        above = key_index[n + 1]
        cols = []
        for (t, k) in key_index[n]:
            col = {}
            for key, kk, c in hh._delta_terms(lookups, t, k):
                add_term(col, above[(key, kk)], c)
            if col:
                cols.append(col)
        matrices.append((cols, dims[n + 1]))
    return matrices


# -- the rows the current code eliminates ------------------------------------------

def _recorded(monkeypatch, fn, algebra, top, reduced):
    seen = []
    real = hh.rank_kernel

    def record(rows, ncols):
        seen.append(([dict(r) for r in rows], ncols))
        return real(rows, ncols)

    with monkeypatch.context() as m:
        m.setattr(hh, "rank_kernel", record)
        fn(algebra, top, reduced=reduced)
    return seen


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


@pytest.mark.parametrize("name,make,top,flavors", CASES, ids=[c[0] for c in CASES])
def test_rows_match_the_calculus_built_rows(monkeypatch, name, make, top, flavors):
    A = make()
    for reduced in flavors:
        got = _recorded(monkeypatch, homology_betti, A, top, reduced)
        assert len(got) == top + 1
        where = (name, reduced, "b into degree")
        _assert_rows(got, _old_homology_rows(A, top, reduced), where, True)
        got = _recorded(monkeypatch, cohomology_betti, A, top, reduced)
        assert len(got) == top + 1
        where = (name, reduced, "delta from degree")
        _assert_rows(got, _old_cohomology_rows(A, top, reduced), where, False)
        _assert_rows(got, _tuple_cohomology_rows(A, top, reduced), where, True)
    if A.unit_index is None:
        # the normalized complexes need the unit among the basis elements
        for fn in (homology_betti, cohomology_betti):
            with pytest.raises(ValueError):
                fn(A, top, reduced=True)


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
