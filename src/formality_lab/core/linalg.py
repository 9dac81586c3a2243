"""Exact linear algebra over the rationals.

Everything here works on sparse rows (dict col -> Fraction).  One forward
eliminator serves both entry points.  It normalizes each stored row to
coprime integer entries, so pivoting is integer arithmetic with a single
exact division per elimination step; no floating point exists anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


def rank_kernel(rows, ncols):
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


def solve(rows, rhs, ncols):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    ``rows`` is a list of sparse rows; ``rhs`` aligns with it.  Free
    variables are set to zero.
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
            x[c] = v / row[c]  # row[c] is a Fraction from _normalize_row
    return {c: x[c] for c in pivots if c in x}  # pivot order: callers iterate x
