"""Operator composition as tools for tests, and as it was before insertions
were summed as rows, kept as the reference for it.

The program composes only through ``hochschild.bracket``; ``insert`` and
``circle`` here build one insertion and one insertion sum from the same
``insert_rows``/``circle_rows`` and ``assemble``.

``_parent_pd_insert``, ``_parent_pd_zero_of``, ``_parent_cochain_insert``,
``_parent_cochain_zero_of``, ``_parent_circle``, ``_parent_bracket`` and
``_parent_series_bracket`` are the previous bodies of
``PolyDiffOperator.insert``/``zero_of``, ``Cochain.insert``/``zero_of``,
``hochschild.circle``/``bracket`` and ``linfty._series_bracket``, verbatim
apart from their names and that of the row helper ``hochschild._add_vec``,
now ``core.basis.add_row``.  ``_parent_mc_residual`` is the
``linfty.mc_residual`` from before the residual was summed on integer
numerators, verbatim apart from its name and that it calls
``linfty._series_bracket`` through the module: it sums ``Fraction(1, n!)``
times each bracket of the series as given, so it takes any element with
``+``, scalar ``*`` and ``is_zero``, reference cochains included.
``_parent_compositions`` and
``_parent_leibniz_splits`` are the helpers the operator ``insert`` called.
The reference builds one ``PolyDiffOperator`` or ``Cochain`` per insertion
and sums them with the containers' ``+`` and ``-``, multiplies ``Poly``
objects term pair by term pair, differentiates each coefficient once per
term pair and split, and brackets every ordered pair of orders.

The cochain methods go on ``parent_cochain.Cochain``, the nested-table
cochain from before ``hochschild.Cochain`` stored its terms flat, so the
reference composes reference cochains (``parent_cochain.reference`` copies
one in).  Inside ``parent_composition()`` the classes carry those methods
again, and
``hochschild.bracket``, ``polydiff.bracket`` (which ``delta`` looks up
there) and ``linfty._series_bracket`` are the reference functions, so a
structure built inside the block from ``pd.bracket``, ``pd.delta`` or
``hh.bracket`` is the reference structure.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from itertools import product as _cartesian
from math import factorial

from formality_lab import hochschild, linfty, polydiff
from formality_lab.core.basis import add_row, add_term
from formality_lab.polydiff import PolyDiffOperator
from parent_cochain import Cochain


# -- tools: one insertion, and the insertion sum on its own ------------------------

def insert(D, E, pos):
    """E plugged into argument slot ``pos`` of D, with no sign."""
    return D.assemble(E, D.arity + E.arity - 1, D.insert_rows(E, pos))


def circle(D, E):
    """The insertion sum of E into D, as ``hochschild.bracket`` adds it up."""
    return D.assemble(E, max(D.arity + E.arity - 1, 0), hochschild.circle_rows(D, E))


# -- reference: the previous bodies, verbatim ------------------------------------

def _parent_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _parent_compositions(total - first, parts - 1):
            yield (first,) + rest


def _parent_leibniz_splits(alpha, parts):
    """Ways to write multi-index ``alpha`` as an ordered sum of ``parts``
    multi-indices, with the multinomial weight of each split."""
    per_var = []
    for a_v in alpha:
        opts = []
        for comp in _parent_compositions(a_v, parts):
            w = factorial(a_v)
            for p in comp:
                w //= factorial(p)
            opts.append((comp, w))
        per_var.append(opts)
    nv = len(alpha)
    for choice in _cartesian(*per_var):
        weight = 1
        for _, w in choice:
            weight *= w
        split = tuple(
            tuple(choice[v][0][k] for v in range(nv)) for k in range(parts)
        )
        yield split, weight


def _parent_pd_zero_of(self, arity):
    """The zero operator of ``arity`` in the same variables."""
    return PolyDiffOperator(self.nvars, arity)


def _parent_pd_insert(self, other, pos):
    """Plug ``other`` into argument slot ``pos``, expanding derivatives
    that used to hit that slot over other's coefficient and arguments by
    the Leibniz rule.  No sign convention is applied here."""
    if self.nvars != other.nvars:
        raise ValueError("variable counts differ")
    if not 0 <= pos < self.arity:
        raise ValueError("insertion slot out of range")
    n, m = self.arity, other.arity
    out = PolyDiffOperator(self.nvars, n + m - 1)
    for alphas, c in self.c.items():
        splits = list(_parent_leibniz_splits(alphas[pos], m + 1))
        for betas, e in other.c.items():
            for split, weight in splits:
                coeff = weight * (c * e.diff_multi(split[0]))
                if not coeff:
                    continue
                mids = tuple(
                    tuple(b + s for b, s in zip(beta, spl))
                    for beta, spl in zip(betas, split[1:])
                )
                key = alphas[:pos] + mids + alphas[pos + 1 :]
                add_term(out.c, key, coeff)
    return out


def _parent_cochain_zero_of(self, arity):
    """The zero cochain of ``arity`` on the same algebra."""
    return Cochain(self.algebra, arity)


def _parent_cochain_insert(self, other, pos):
    """Feed ``other``'s output into argument slot ``pos``."""
    if self.algebra is not other.algebra:
        raise ValueError("different algebras")
    if not 0 <= pos < self.arity:
        raise ValueError("insertion slot out of range")
    n, m = self.arity, other.arity
    out = Cochain(self.algebra, n + m - 1)
    for dtup, dvec in self.table.items():
        k = dtup[pos]
        for etup, evec in other.table.items():
            c = evec.get(k)
            if not c:
                continue
            add_row(out.table, dtup[:pos] + etup + dtup[pos + 1 :], dvec, c)
    return out


def _parent_circle(D, E):
    """Insertion sum: sum_j (-1)^((arity(E)-1)*j) of E into slot j of D.

    One sum for every cochain type with ``insert`` and ``zero_of``: the
    tables here and ``polydiff``'s operators.
    """
    n, m = D.arity, E.arity
    # with no slots to insert into, the honest arity n + m - 1 would be
    # negative: an arity-0 zero stands in
    out = D.zero_of(max(n + m - 1, 0))
    for j in range(n):
        term = D.insert(E, j)
        out = out - term if ((m - 1) * j) % 2 else out + term
    return out


def _parent_bracket(D, E):
    """Graded commutator of insertions; degree of arity-n input is n-1."""
    n, m = D.arity, E.arity
    second = _parent_circle(E, D)
    if ((n - 1) * (m - 1)) % 2:
        return _parent_circle(D, E) + second
    return _parent_circle(D, E) - second


def _parent_series_bracket(S, n, series_list, nt):
    """Order-by-order n-ary bracket of formal series elements."""
    out = {}
    orders = [sorted(s.c) for s in series_list]
    for combo in product(*orders):
        k = sum(combo)
        if k > nt:
            continue
        val = S.apply(n, [series_list[i].c[combo[i]] for i in range(n)])
        if val is not None:
            add_term(out, k, val)
    return out


def _parent_mc_residual(S, pi):
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
        contrib = linfty._series_bracket(S, n, [pi] * n, pi.nt)
        for k, v in contrib.items():
            add_term(total, k, Fraction(1, fact) * v)
    return total


_METHODS = [
    (PolyDiffOperator, "insert", _parent_pd_insert),
    (PolyDiffOperator, "zero_of", _parent_pd_zero_of),
    (Cochain, "insert", _parent_cochain_insert),
    (Cochain, "zero_of", _parent_cochain_zero_of),
]

_FUNCTIONS = [
    (hochschild, "bracket", _parent_bracket),
    (polydiff, "bracket", _parent_bracket),
    (linfty, "_series_bracket", _parent_series_bracket),
]


@contextmanager
def parent_composition():
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in _FUNCTIONS]
    for cls, name, fn in _METHODS:
        assert not hasattr(cls, name), f"{cls.__name__}.{name} is back in the program"
        setattr(cls, name, fn)
    for mod, name, fn in _FUNCTIONS:
        setattr(mod, name, fn)
    try:
        yield
    finally:
        for cls, name, _ in _METHODS:
            delattr(cls, name)
        for mod, name, fn in saved:
            setattr(mod, name, fn)
