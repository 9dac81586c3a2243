"""Exact linear algebra over the rationals.

Everything here works on sparse rows (dict col -> int or Fraction).  One
forward eliminator serves both entry points, in two passes.  The first
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
    # the type, not the denominator: Fraction(k, 1) must be rescaled to int
    if not all(type(v) is int for v in row.values()):
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


def solve(rows, rhs, ncols):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    ``rows`` is a list of sparse rows; ``rhs`` aligns with it.  Free
    variables (the non-pivot columns) are set to zero, which makes ``x``
    unique, so it does not depend on the order of the rows.  ``x`` holds
    its nonzero values, as ``Fraction``, keyed in ascending column order.
    """
    # column ncols of the augmented rows holds the right-hand side
    aug = [{**row, ncols: b} if b else row for row, b in zip(rows, rhs)]
    _, pivots = rank_kernel(aug, ncols + 1)
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
