"""The sparse eliminator against the kernel it replaced, on seeded systems.

``_old_rank_kernel`` and ``_old_solve`` are the previous ``core.linalg``
code, kept verbatim as the reference: two elimination loops, full
back-substitution and a kernel basis.  The current kernel must give the
same rank, and ``solve`` the same solution (or ``None``) on every system.

``_fraction_rank_kernel`` is the forward eliminator in ``Fraction``
arithmetic that the integer one replaced, also verbatim.  Every integer
pivot must be a primitive ``int`` row equal by value to its pivot when that
eliminator is fed the rows leaders-first (``_leaders_first``), on the
seeded systems, on the Hochschild boundary and coboundary matrices, on a
dense rational system and on rows of mixed scalar types.

``_in_order_rank_kernel`` is the one-pass integer eliminator that the
two-pass one replaced, verbatim: it reduces every row in input order.  On
the same systems the two must give the same rank and the same set of pivot
columns, and ``solve`` must not depend on the order of the rows.  On rows
holding explicit zeros all of this holds too, and pass 1 may copy a row
only when it holds a zero: a zero-free primitive leader is its own pivot.
``_normalize_row`` itself must equal ``_int_normalize_row`` on seeded int
and mixed rows and return a primitive int row itself.
"""

import random
from fractions import Fraction
from math import gcd, lcm

from formality_lab import hochschild as hh
from formality_lab.core import linalg
from formality_lab.algebras import dual_numbers, mat2_unital, trunc_poly_algebra
from formality_lab.core.linalg import rank_kernel
from shared_tools import solve_rows


# -- reference: the previous core.linalg, verbatim ----------------------------

def _normalize_row(row):
    """Scale a sparse row to coprime integers with a positive leading entry."""
    if not row:
        return row
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    g = 0
    for v in row.values():
        g = gcd(g, abs(v.numerator * (den // v.denominator)))
    lead = min(row)
    sign = 1 if row[lead] > 0 else -1
    return {c: Fraction(sign * v.numerator * (den // v.denominator), g) for c, v in row.items()}


def _old_rank_kernel(rows, ncols):
    """Exact (rank, kernel basis) of a sparse rational matrix.

    ``rows``: iterable of dict col-index -> Fraction.  The kernel basis
    vectors come out with the free coordinate set to 1, denominators
    cleared, ordered by their free column.
    """
    pivots = {}  # col -> reduced row (pivot coefficient 1 after division)
    for raw in rows:
        row = {c: (v if isinstance(v, Fraction) else Fraction(v)) for c, v in raw.items() if v}
        while row:
            c = min(row)
            if c in pivots:
                piv = pivots[c]
                factor = row[c] / piv[c]
                for cc, vv in piv.items():
                    w = row.get(cc, Fraction(0)) - factor * vv
                    if w:
                        row[cc] = w
                    else:
                        row.pop(cc, None)
            else:
                pivots[c] = _normalize_row(row)
                break
    rank = len(pivots)
    # back-substitute to reduced echelon form for clean kernel vectors
    for c in sorted(pivots, reverse=True):
        piv = pivots[c]
        for c2, row2 in pivots.items():
            if c2 == c or c not in row2:
                continue
            factor = row2[c] / piv[c]
            for cc, vv in piv.items():
                w = row2.get(cc, Fraction(0)) - factor * vv
                if w:
                    row2[cc] = w
                else:
                    row2.pop(cc, None)
    kernel = []
    pivot_cols = set(pivots)
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = {free: Fraction(1)}
        for c, row in pivots.items():
            if free in row:
                v[c] = -row[free] / row[c]
        den = 1
        for x in v.values():
            den = den * x.denominator // gcd(den, x.denominator)
        v = {c: Fraction(x.numerator * (den // x.denominator)) for c, x in v.items()}
        kernel.append(v)
    kernel.sort(key=lambda v: min(v))
    return rank, kernel


def _old_solve(rows, rhs, ncols):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    ``rows`` is a list of sparse rows; ``rhs`` aligns with it.  Free
    variables are set to zero.
    """
    aug = []
    RHS = ncols  # sentinel column for the right-hand side
    for row, b in zip(rows, rhs):
        r = {c: (v if isinstance(v, Fraction) else Fraction(v)) for c, v in row.items() if v}
        if not isinstance(b, Fraction):
            b = Fraction(b)
        if b:
            r[RHS] = b
        if r:
            aug.append(r)
    pivots = {}
    for row in aug:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                piv = pivots[c]
                factor = row[c] / piv[c]
                for cc, vv in piv.items():
                    w = row.get(cc, Fraction(0)) - factor * vv
                    if w:
                        row[cc] = w
                    else:
                        row.pop(cc, None)
            else:
                if c == RHS:
                    return None  # 0 = nonzero
                pivots[c] = row
                break
    for c in sorted(pivots, reverse=True):
        piv = pivots[c]
        for c2, row2 in pivots.items():
            if c2 == c or c not in row2:
                continue
            factor = row2[c] / piv[c]
            for cc, vv in piv.items():
                w = row2.get(cc, Fraction(0)) - factor * vv
                if w:
                    row2[cc] = w
                else:
                    row2.pop(cc, None)
    x = {}
    for c, row in pivots.items():
        v = row.get(RHS, Fraction(0)) / row[c]
        if v:
            x[c] = v
    return x


# -- seeded systems -------------------------------------------------------------

def _entry(rng):
    """A small nonzero rational, an int about a third of the time."""
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5, 7])
    if rng.random() < 0.35:
        return num
    return Fraction(num, rng.choice([1, 2, 3, 4, 6, 9]))


def _combine(rng, rows):
    """A random rational combination of some of ``rows`` (a dependent row)."""
    out = {}
    for row in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
        k = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5]))
        for c, v in row.items():
            out[c] = out.get(c, 0) + k * v
    return {c: v for c, v in out.items() if v}


def _system(rng):
    """(rows, rhs, ncols): sparse, often rank deficient, sometimes with
    duplicated, empty or explicit-zero rows."""
    ncols = rng.randint(0, 9)
    nrows = rng.randint(0, 10)
    density = rng.choice([0.15, 0.3, 0.6])
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.2:
            rows.append(dict(rng.choice(rows)))
        elif rows and roll < 0.4:
            rows.append(_combine(rng, rows))
        elif roll < 0.5:
            rows.append({} if rng.random() < 0.5 else {0: 0} if ncols else {})
        else:
            rows.append({c: _entry(rng) for c in range(ncols) if rng.random() < density})
    if rng.random() < 0.5:
        # consistent by construction: rhs = rows . x0
        x0 = {c: _entry(rng) for c in range(ncols) if rng.random() < 0.5}
        rhs = [sum((v * x0.get(c, 0) for c, v in row.items()), Fraction(0)) for row in rows]
    else:
        rhs = [_entry(rng) if rng.random() < 0.6 else rng.choice([0, Fraction(0)])
               for _ in rows]
    return rows, rhs, ncols


def _copy(rows):
    return [dict(r) for r in rows]


def test_rank_and_solve_match_reference_on_seeded_systems():
    rng = random.Random(20260418)
    inconsistent = 0
    for _ in range(1500):
        rows, rhs, ncols = _system(rng)
        snapshot = _copy(rows)
        rank, _ = rank_kernel(_copy(rows), ncols)
        assert rank == _old_rank_kernel(_copy(rows), ncols)[0], (rows, ncols)
        want = _old_solve(_copy(rows), list(rhs), ncols)
        got = solve_rows(rows, list(rhs), ncols)
        assert rows == snapshot, "solve changed its input rows"
        assert got == want, (rows, rhs, ncols)
        if want is None:
            inconsistent += 1
        else:
            for row, b in zip(rows, rhs):
                assert sum((v * got.get(c, 0) for c, v in row.items()), Fraction(0)) == b
    # both branches are exercised in bulk
    assert 300 < inconsistent < 1200


def test_zero_matrix_and_empty_systems_match_reference():
    for ncols in (0, 1, 4):
        for rows in ([], [{}], [{}, {}], [{c: 0 for c in range(ncols)}]):
            assert rank_kernel(_copy(rows), ncols)[0] == _old_rank_kernel(_copy(rows), ncols)[0] == 0
            for rhs in ([0] * len(rows), [Fraction(1)] * len(rows)):
                assert solve_rows(_copy(rows), rhs, ncols) == _old_solve(_copy(rows), rhs, ncols)


# -- reference: the rational-arithmetic forward eliminator, verbatim ------------

def _fraction_rank_kernel(rows, ncols):
    """Forward elimination of a sparse rational matrix: (rank, pivots).

    ``rows``: iterable of dict col-index -> Fraction (ints are accepted).
    ``pivots`` maps each pivot column to its echelon row, normalized by
    ``_normalize_row``; the pivot is the row's minimum column.  The rows
    are not back-substituted.
    """
    pivots = {}
    for raw in rows:
        row = {c: (v if isinstance(v, Fraction) else Fraction(v)) for c, v in raw.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _normalize_row(row)
                break
            factor = row[c] / piv[c]  # Fractions both: never an int / int float
            for cc, vv in piv.items():
                w = row.get(cc, 0) - factor * vv
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
    return len(pivots), pivots


# -- reference: the one-pass integer eliminator, verbatim ------------------------

def _int_normalize_row(row):
    """Scale a sparse rational row to its primitive integer row: coprime
    ``int`` entries with a positive leading (minimum-column) entry."""
    if not row:
        return row
    ints = row
    # the type, not the denominator: Fraction(k, 1) must be rescaled to int
    if not all(type(v) is int for v in row.values()):
        den = lcm(*(v.denominator for v in row.values()))
        ints = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {c: v // g for c, v in ints.items()}


def _in_order_rank_kernel(rows, ncols):
    """Forward elimination of a sparse rational matrix: (rank, pivots).

    ``rows``: iterable of dict col-index -> int or Fraction; they are not
    modified.  ``pivots`` maps each pivot column to its echelon row as a
    primitive ``int`` row (``_normalize_row``); the pivot is the row's
    minimum column.  Normalization does not depend on scale, so each pivot
    equals, by value, the normalized echelon row of elimination over the
    rationals.  The rows are not back-substituted.
    """
    _normalize_row = _int_normalize_row  # the module-level name here is the Fraction one
    pivots = {}
    for raw in rows:
        row = _normalize_row({c: v for c, v in raw.items() if v})
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _normalize_row(row)
                break
            g = gcd(piv[c], row[c])
            a, b = piv[c] // g, row[c] // g  # a > 0: pivots lead positive
            if a != 1:
                row = {cc: a * vv for cc, vv in row.items()}
            for cc, vv in piv.items():
                w = row.get(cc, 0) - b * vv
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
    return len(pivots), pivots


def _leaders_first(rows):
    """The rows reordered as the two-pass eliminator takes them: the first
    row to lead at each column, in input order, then the other rows that
    have a nonzero entry, in input order."""
    leaders, rest, taken = [], [], set()
    for row in rows:
        lead = min((c for c, v in row.items() if v), default=None)
        if lead is None:
            continue
        if lead in taken:
            rest.append(row)
        else:
            taken.add(lead)
            leaders.append(row)
    return leaders + rest


def _check_kernel(rows, ncols):
    """``rank_kernel`` on ``rows`` against both references: the rank and
    pivot columns of the in-order integer eliminator, and the pivot values
    of the rational one fed the rows leaders-first.  Returns its result."""
    rank, pivots = rank_kernel(_copy(rows), ncols)
    in_order_rank, in_order = _in_order_rank_kernel(_copy(rows), ncols)
    assert rank == in_order_rank and set(pivots) == set(in_order), (rows, ncols)
    want_rank, want = _fraction_rank_kernel(_leaders_first(_copy(rows)), ncols)
    assert rank == want_rank
    _assert_primitive_pivots(pivots, want)
    return rank, pivots


def _assert_primitive_pivots(pivots, want):
    """Every pivot is a primitive ``int`` row led by a positive entry at its
    key, and equals by value the rational eliminator's normalized pivot."""
    assert set(pivots) == set(want)
    for c, row in pivots.items():
        assert min(row) == c
        assert all(type(v) is int for v in row.values()), row
        assert gcd(*row.values()) == 1 and row[c] > 0, row
        assert row == _normalize_row(want[c]), (row, want[c])


def test_pivots_are_primitive_int_rows_on_seeded_systems():
    rng = random.Random(20260418)
    for _ in range(1500):
        rows, rhs, ncols = _system(rng)
        _check_kernel(rows, ncols)


def _with_zeros(rng, rows, ncols):
    """Copies of ``rows``: about half of them with explicit zeros (``0`` or
    ``Fraction(0)``) added at random columns, often before the leading
    entry, and a quarter scaled to primitive ``int`` rows, as most
    Hochschild rows come."""
    out = []
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        roll = rng.random()
        if ncols and roll < 0.5:
            for c in rng.sample(range(ncols), rng.randint(1, ncols)):
                row.setdefault(c, rng.choice([0, Fraction(0)]))
        elif roll < 0.75:
            row = _int_normalize_row(row)
        out.append(row)
    return out


def test_rows_holding_explicit_zeros_are_copied_and_only_they():
    """Pass 1 copies a row only when it holds a zero.  Such rows must give
    the references' rank, pivots and solution; a zero-free row that is
    already primitive becomes its pivot as itself; no input row changes."""
    rng = random.Random(20261019)
    kept = zeroed = 0
    for _ in range(1500):
        rows, rhs, ncols = _system(rng)
        rows = _with_zeros(rng, rows, ncols)
        snapshot = _copy(rows)
        rank, _ = _check_kernel(rows, ncols)
        assert rank == _old_rank_kernel(_copy(rows), ncols)[0], (rows, ncols)
        assert solve_rows(_copy(rows), list(rhs), ncols) == _old_solve(_copy(rows), list(rhs), ncols)
        _, pivots = rank_kernel(rows, ncols)
        assert rows == snapshot, "rank_kernel changed its input rows"
        leads = set()
        for row in rows:
            lead = min((c for c, v in row.items() if v), default=None)
            if lead is None or lead in leads:
                continue
            leads.add(lead)
            primitive = all(type(v) is int for v in row.values()) and (
                gcd(*row.values()) == 1 and row[lead] > 0
            )
            if not all(row.values()):
                assert pivots[lead] is not row and 0 not in pivots[lead].values()
                zeroed += 1
            elif primitive:
                assert pivots[lead] is row
                kept += 1
    # both kinds of leader occur in bulk
    assert kept > 300 and zeroed > 500


def _betti_matrices(monkeypatch, algebra, top, reduced):
    """The (rows, ncols) that ``homology_betti`` and ``cohomology_betti``
    hand to ``rank_kernel`` for ``algebra`` up to degree ``top + 1``."""
    seen = []

    def record(rows, ncols):
        seen.append(([dict(r) for r in rows], ncols))
        return rank_kernel(rows, ncols)

    with monkeypatch.context() as m:
        m.setattr(linalg, "rank_kernel", record)
        hh.homology_betti(algebra, top, reduced=reduced)
        hh.cohomology_betti(algebra, top, reduced=reduced)
    return seen


def test_boundary_and_coboundary_matrices_match_reference(monkeypatch):
    for algebra in (dual_numbers(), trunc_poly_algebra(3), mat2_unital()):
        for reduced in (True, False):
            matrices = _betti_matrices(monkeypatch, algebra, 2, reduced)
            assert len(matrices) == 6  # b into degrees 0..2, delta into 1..3
            for rows, ncols in matrices:
                assert all(type(v) is int for row in rows for v in row.values())
                rank, _ = _check_kernel(rows, ncols)
                assert rank == _old_rank_kernel(_copy(rows), ncols)[0]


def test_dense_rational_system_with_coefficient_growth():
    rng = random.Random(12)
    n = 12
    rows = [
        {c: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for c in range(n)}
        for _ in range(n)
    ]
    rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    rank, pivots = _check_kernel(rows, n)
    assert rank == _old_rank_kernel(_copy(rows), n)[0] == n
    # the echelon rows outgrow the one-digit inputs far past a machine word
    assert max(abs(v) for row in pivots.values() for v in row.values()) > 2 ** 64
    x = solve_rows(rows, list(rhs), n)
    assert x == _old_solve(_copy(rows), list(rhs), n)
    assert all(type(v) is Fraction for v in x.values())
    for row, b in zip(rows, rhs):
        assert sum(v * x.get(c, 0) for c, v in row.items()) == b


def test_rows_mixing_int_integral_fraction_and_proper_fraction():
    """``_normalize_row`` skips the rescaling only for rows of plain ``int``s;
    a ``Fraction(k, 1)`` (as the HKR rows carry) or a proper ``Fraction``
    anywhere in a row must still be rescaled to a primitive ``int`` row."""
    rng = random.Random(1018)
    kinds = (
        lambda: rng.choice([-3, -1, 1, 2, 5]),
        lambda: Fraction(rng.choice([-4, -1, 2, 3]), 1),
        lambda: Fraction(rng.choice([-5, 1, 3]), rng.choice([2, 3, 7])),
    )
    mixed = 0
    for _ in range(400):
        ncols = rng.randint(1, 7)
        rows = []
        for _ in range(rng.randint(1, 7)):
            row = {}
            for c in rng.sample(range(ncols), rng.randint(1, ncols)):
                row[c] = rng.choice(kinds)()
            rows.append(row)
        types = {(type(v), getattr(v, "denominator", 1) == 1)
                 for row in rows for v in row.values()}
        mixed += len(types) == 3
        rhs = [rng.choice(kinds)() if rng.random() < 0.7 else 0 for _ in rows]
        rank, _ = _check_kernel(rows, ncols)
        assert rank == _old_rank_kernel(_copy(rows), ncols)[0]
        assert solve_rows(_copy(rows), list(rhs), ncols) == _old_solve(
            _copy(rows), list(rhs), ncols
        ), (rows, rhs)
    # most systems carry all three kinds of entry at once
    assert mixed > 200
    # a row of integral Fractions alone is rescaled too
    rank, pivots = rank_kernel([{0: Fraction(-2, 1), 3: Fraction(4, 1)}], 4)
    assert rank == 1 and pivots == {0: {0: 1, 3: -2}}
    assert all(type(v) is int for v in pivots[0].values())


def test_normalize_row_against_the_int_reference_on_seeded_rows():
    """``linalg._normalize_row`` takes one ``gcd`` of an ``int`` row and
    rescales any row that holds a ``Fraction``, ``Fraction(k, 1)`` too.  It
    must equal ``_int_normalize_row`` by value and in key order on int rows
    with a common factor and a negative lead, return a primitive int row
    itself, and give plain ``int`` entries on mixed rows."""
    rng = random.Random(20261022)
    kinds = (
        lambda: rng.choice([-6, -2, 1, 3, 4]),
        lambda: Fraction(rng.choice([-4, -1, 2, 3]), 1),
        lambda: Fraction(rng.choice([-5, 1, 3]), rng.choice([2, 3, 7])),
    )
    mixed = 0
    for _ in range(400):
        cols = rng.sample(range(12), rng.randint(1, 6))
        lead = min(cols)
        # a common factor and a negative lead
        k = rng.choice([2, 3, 6])
        row = {c: k * rng.choice([-3, -1, 1, 2, 5]) for c in cols}
        row[lead] = -abs(row[lead])
        got = linalg._normalize_row(row)
        assert list(got.items()) == list(_int_normalize_row(row).items()), row
        assert got is not row and got[lead] > 0
        # a primitive row is its own normal form
        primitive = _int_normalize_row(row)
        assert linalg._normalize_row(primitive) is primitive
        # int, Fraction(k, 1) and proper Fraction entries mixed
        row = {c: rng.choice(kinds)() for c in cols}
        mixed += len({type(v) for v in row.values()}) > 1
        got = linalg._normalize_row(row)
        assert list(got.items()) == list(_int_normalize_row(row).items()), row
        assert all(type(v) is int for v in got.values()), row
    assert mixed > 200


# -- solve does not depend on the row order ----------------------------------------

def test_solve_is_the_same_for_shuffled_rows():
    """Free variables at zero make the solution unique, so shuffling the rows
    (which moves the leaders and the rows pass 2 reduces) must give the same
    solution by value, keyed in ascending column order."""
    rng = random.Random(20261019)
    solved = 0
    for _ in range(1500):
        rows, rhs, ncols = _system(rng)
        want = solve_rows(_copy(rows), list(rhs), ncols)
        order = list(range(len(rows)))
        rng.shuffle(order)
        got = solve_rows([dict(rows[i]) for i in order], [rhs[i] for i in order], ncols)
        assert got == want, (rows, rhs, order)
        if got is not None:
            solved += 1
            assert list(got) == sorted(got)
    assert 300 < solved < 1200


def test_solve_when_rows_share_a_leading_column():
    """Three rows lead at column 0: the first is pass 1's pivot, pass 2
    reduces the second to a new pivot at column 1 and the third to zero."""
    rows = [
        {0: 2, 1: 4, 2: 2},  # leader at 0
        {0: 1, 1: 3},  # reduces to {1: 1, 2: -1}
        {0: Fraction(3, 2), 1: 4, 2: Fraction(1, 2)},  # = row 0 / 4 + row 1: reduces to zero
        {2: 3},  # leader at 2
    ]
    rhs = [16, 11, 15, 6]
    assert _leaders_first(rows) == [rows[0], rows[3], rows[1], rows[2]]
    rank, pivots = _check_kernel(rows, 3)
    assert rank == 3 and list(pivots) == [0, 2, 1]
    assert pivots == {0: {0: 1, 1: 2, 2: 1}, 2: {2: 1}, 1: {1: 1, 2: -1}}
    x = solve_rows(_copy(rows), list(rhs), 3)
    assert x == _old_solve(_copy(rows), list(rhs), 3)
    assert list(x.items()) == [(0, Fraction(-4)), (1, Fraction(5)), (2, Fraction(2))]
    # an inconsistent right-hand side on the row that reduces to zero
    assert solve_rows(_copy(rows), [16, 11, 16, 6], 3) is None
