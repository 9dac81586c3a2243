"""Exact linear algebra over the rationals.

The checks ask two questions of linear algebra, and both are answered
here.  ``solve`` takes a system as its columns, sparse vectors over any
hashable keys, and a target vector, and numbers the equations itself.
``betti`` takes a complex one map at a time, certifies that consecutive
maps compose to zero, clears each map by the one before and returns the
Betti numbers.

Both work on sparse rows (dict col -> int or Fraction), through one
forward eliminator, ``rank_kernel``, in two passes.  The first
takes, in input order, each row that leads at a column no earlier row
leads at as that column's pivot, with no reduction (the pivot detection of
Faugère–Lachartre elimination); on the lexicographically ordered
Hochschild matrices most pivots are found so.  The second reduces the
other rows, in input order: it scales each to a primitive integer row and
eliminates fraction-free, with ``row = a*row - b*piv`` for coprime
integers ``a`` and ``b``, so the loop does ``int`` arithmetic only
(primitive-row elimination, a cousin of Bareiss').  Both passes are exact
and assume nothing about the rows.  ``solve`` back-substitutes in
``Fraction``; no floating point exists anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _normalize_row(row):
    """Scale a sparse rational row to its primitive integer row: coprime
    ``int`` entries with a positive leading (minimum-column) entry.

    A row that is already primitive is returned itself, not copied, so the
    caller must own it."""
    if not row:
        return row
    ints = row
    try:
        g = gcd(*row.values())
    except TypeError:  # any Fraction, Fraction(k, 1) too, is rescaled to int
        den = lcm(*(v.denominator for v in row.values()))
        ints = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    if g == 1:
        return ints
    return {c: v // g for c, v in ints.items()}


def rank_kernel(rows, ncols):
    """Forward elimination of a sparse rational matrix: (rank, pivots).

    ``rows``: iterable of dict col-index -> int or Fraction; they are not
    modified.  ``pivots`` maps each pivot column to its echelon row as a
    primitive ``int`` row (``_normalize_row``); the pivot is the row's
    minimum column.  A pass-1 pivot that was already a zero-free primitive
    row is the caller's row itself, not a copy, so the caller must not
    change it while it holds the pivots.  Pass 1 drops zero entries (it
    copies only a row that holds one) and makes the first row to
    lead at each column that column's pivot, unreduced; pass 2 reduces
    every other nonzero row, in input order, against the pivots so far and
    adds a pivot where one survives.  Normalization does not depend on
    scale, so each pivot equals, by value, the normalized echelon row of
    elimination over the rationals fed the rows leaders-first: pass 1's
    leaders in input order, then the rest in input order.  ``pivots``
    holds pass 1's columns first, then pass 2's, each in the order found.
    The rank and the set of pivot columns (the leading columns of the row
    space) do not depend on the row order.  The rows are not
    back-substituted.
    """
    pivots = {}
    rest = []  # the caller's rows themselves; a filtered copy of each raises peak memory
    for raw in rows:
        row = raw if all(raw.values()) else {c: v for c, v in raw.items() if v}
        if row:
            c = min(row)
            if c in pivots:
                rest.append(raw)
            else:
                pivots[c] = _normalize_row(row)
    for raw in rest:
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


def solve(columns, target):
    """One exact x with sum_j x_j columns[j] = target, or None if there is none.

    ``columns`` is a sequence of sparse vectors {key: scalar} over any
    hashable keys, and ``target`` is one more.  Each key is one equation,
    numbered as first met in the columns and then in the target; the target
    fills the augmented column.  Free variables (the non-pivot columns) are
    set to zero, which makes ``x`` unique, so it does not depend on the
    order of the equations.  ``x`` holds its nonzero values, as
    ``Fraction``, keyed by column position in ascending order.
    """
    ncols = len(columns)
    eqs = {}  # key -> its equation, a sparse row over the columns
    for j, col in enumerate(columns):
        for key, v in col.items():
            eqs.setdefault(key, {})[j] = v
    for key, v in target.items():
        eqs.setdefault(key, {})[ncols] = v  # column ncols is the target
    _, pivots = rank_kernel(eqs.values(), ncols + 1)
    if ncols in pivots:
        return None  # 0 = nonzero
    x = {}
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        v = row.get(ncols, 0) - sum(a * x[cc] for cc, a in row.items() if cc in x)
        if v:
            x[c] = Fraction(v) / row[c]  # int / int would be a float
    return {c: x[c] for c in cols if c in x}  # callers iterate x in this order


def betti(name, dims, maps):
    """The Betti numbers of a complex V_0 -> V_1 -> .. -> V_k: check, clear,
    eliminate.

    ``dims`` lists dim V_0 .. dim V_k.  ``maps`` yields (n, rows) for each
    map name_n: V_i -> V_(i+1) in turn, i = 0 .. k - 1, as one sparse row
    per basis vector of V_i over the dims[i + 1] basis indices of V_(i+1).
    (A chain complex hands in the transposes of its boundaries: the ranks
    are the same.)  The result is dims[i] - rank in - rank out at each
    V_i, i < k.

    First, each echelon row z of the map before is multiplied into the
    rows exactly.  These z span the row space of the map before, so
    z rows = 0 for all of them certifies that the two maps compose to zero;
    a nonzero entry raises ``ValueError`` with that entry as the witness,
    and no rank is returned.  Then the rows at the pivot columns of the map
    before are dropped: z rows = 0 makes the row at z's pivot column a
    combination of later rows, so, by induction from the largest pivot
    column down, the dropped rows lie in the span of the kept ones.
    ``rank_kernel`` eliminates the kept nonzero rows in index order, and
    its echelon rows clear the next map.  This is the clearing of
    persistent homology (Chen-Kerber) done on the small side of each map,
    as in the coboundary form of de Silva-Morozov-Vejdemo-Johansson.
    """
    ranks = [0]  # ranks[i] = rank of the map into V_i
    pivots = {}
    for i, (n, rows) in enumerate(maps):
        for c, z in pivots.items():
            acc = {}  # plain sums tested once: add_term per term is slower here
            for x, zx in z.items():
                for y, v in rows[x].items():
                    acc[y] = acc.get(y, 0) + zx * v
            if any(acc.values()):
                y = min(y for y, w in acc.items() if w)
                raise ValueError(
                    f"{name}^2 != 0: the echelon row of {name}_{n - 1} at pivot "
                    f"column {c} times {name}_{n} is {acc[y]} at column {y}"
                )
        rank, pivots = rank_kernel(
            [row for x, row in enumerate(rows) if row and x not in pivots], dims[i + 1]
        )
        ranks.append(rank)
    return [dims[i] - ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
