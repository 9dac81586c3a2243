"""Exact linear algebra over the rationals.

Everything here works on sparse rows (dict col -> int or Fraction).  One
forward eliminator serves both entry points.  It scales each incoming row
once to a primitive integer row and then eliminates fraction-free, with
``row = a*row - b*piv`` for coprime integers ``a`` and ``b``, so the loop
does ``int`` arithmetic only (primitive-row elimination, a cousin of
Bareiss').  ``solve`` back-substitutes in ``Fraction``; no floating point
exists anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _normalize_row(row):
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


def rank_kernel(rows, ncols):
    """Forward elimination of a sparse rational matrix: (rank, pivots).

    ``rows``: iterable of dict col-index -> int or Fraction; they are not
    modified.  ``pivots`` maps each pivot column to its echelon row as a
    primitive ``int`` row (``_normalize_row``); the pivot is the row's
    minimum column.  Normalization does not depend on scale, so each pivot
    equals, by value, the normalized echelon row of elimination over the
    rationals.  The rows are not back-substituted.
    """
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


def solve(rows, rhs, ncols):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    ``rows`` is a list of sparse rows; ``rhs`` aligns with it.  Free
    variables are set to zero; the values of ``x`` are ``Fraction``.
    """
    # column ncols of the augmented rows holds the right-hand side
    aug = [{**row, ncols: b} if b else row for row, b in zip(rows, rhs)]
    _, pivots = rank_kernel(aug, ncols + 1)
    if ncols in pivots:
        return None  # 0 = nonzero
    x = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        v = row.get(ncols, 0) - sum(a * x[cc] for cc, a in row.items() if cc in x)
        if v:
            x[c] = Fraction(v) / row[c]  # int / int would be a float
    return {c: x[c] for c in pivots if c in x}  # pivot order: callers iterate x
