"""``hochschild.Cochain`` from before it was a ``core.basis.Sparse``, kept as
the reference for it.

The class below is the previous ``Cochain``, verbatim: a nested table
{input tuple: {output index: scalar}} with its own ``+``, ``-``, negation,
scalar multiple, ``==``, truth value and ``is_zero``, and its ``apply``,
``reduce``, ``is_reduced``, ``insert_rows`` and ``assemble``.  ``cup``,
``delta`` and ``lie_action`` are the previous functions of that name,
verbatim, except that ``cup`` multiplies with ``algebra_tools.mul``, the
algebra's former ``mul`` method; ``delta`` reads the same
``_delta_lookups``/``_delta_terms`` as the program, and ``lie_action``
builds the program's ``Chain``.
``composition.parent_composition()`` installs the older ``insert`` and
``zero_of`` on this class, so the reference bracket runs on it too.

``reference`` copies a flat cochain into this class, row by row in the
order its keys come, with its scalars untouched; ``flat`` reads a
reference table back as {(input tuple, output index): scalar}, row by row.
"""

from weakref import WeakKeyDictionary

from formality_lab.core.basis import add_row, add_term, rational, vadd_into, vec
from formality_lab.hochschild import Chain, _delta_lookups, _delta_terms

from algebra_tools import mul


def reference(x):
    """The reference cochain with the terms of the flat cochain ``x``."""
    out = Cochain(x.algebra, x.arity)
    for (tup, k), v in x.c.items():
        out.table.setdefault(tup, {})[k] = v
    return out


def flat(x):
    """The terms of the reference cochain ``x``, flattened row by row."""
    return {(tup, k): v for tup, row in x.table.items() for k, v in row.items()}


# -- reference: the previous Cochain and its functions, verbatim ----------------

class Cochain:
    """Multilinear map A^arity -> A given by table[(i_1..i_n)] = output vec.

    Not a ``core.basis.Sparse``: its values are sparse vectors, not scalars
    or containers, and ``lie_action`` reads whole rows by input tuple, so
    it keeps its own table arithmetic.
    """

    __slots__ = ("algebra", "arity", "table")

    def __init__(self, algebra, arity, table=None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.algebra = algebra
        self.arity = arity
        self.table = {}
        if table:
            dim = algebra.dim
            for tup, v in table.items():
                tup = tuple(tup)
                if len(tup) != arity or any(not 0 <= i < dim for i in tup):
                    raise ValueError(f"bad input tuple {tup!r}")
                add_row(self.table, tup, vec(*v.items()))

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, algebra, arity):
        return cls(algebra, arity)

    @classmethod
    def multiplication(cls, algebra):
        c = cls(algebra, 2)
        for key, v in algebra.table.items():
            if v:
                c.table[key] = dict(v)
        return c

    @classmethod
    def element(cls, algebra, vector):
        c = cls(algebra, 0)
        vv = vec(*vector.items())
        if vv:
            c.table[()] = vv
        return c

    @property
    def lie_degree(self):
        return self.arity - 1

    def assemble(self, other, arity, rows):
        """The cochain of ``arity`` whose rows {input tuple: {output index:
        scalar}} are ``rows``, summed from insertions of ``other`` into this
        one (or the reverse); ValueError unless both live on the same
        algebra."""
        if self.algebra is not other.algebra:
            raise ValueError("different algebras")
        out = Cochain(self.algebra, arity)
        out.table = rows
        return out

    # -- vector space ---------------------------------------------------------
    def _check(self, other):
        if self.algebra is not other.algebra or self.arity != other.arity:
            raise ValueError("cochain shapes differ")

    def __add__(self, other):
        self._check(other)
        out = Cochain(self.algebra, self.arity)
        out.table = {t: dict(v) for t, v in self.table.items()}
        for t, v in other.table.items():
            add_row(out.table, t, v)
        return out

    def __neg__(self):
        out = Cochain(self.algebra, self.arity)
        out.table = {t: {k: -c for k, c in v.items()} for t, v in self.table.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = rational(scalar)
        out = Cochain(self.algebra, self.arity)
        if scalar:
            out.table = {
                t: {k: scalar * c for k, c in v.items()} for t, v in self.table.items()
            }
        return out

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.arity == other.arity
            and self.table == other.table
        )

    def __bool__(self):
        return bool(self.table)

    def is_zero(self):
        return not self

    def __repr__(self):
        return f"Cochain(arity={self.arity}, {len(self.table)} entries)"

    # -- evaluation -------------------------------------------------------------
    def apply(self, args):
        if len(args) != self.arity:
            raise ValueError("argument count mismatch")
        out = {}
        for tup, val in self.table.items():
            c = 1
            for i, a in zip(tup, args):
                c *= a.get(i, 0)
                if not c:
                    break
            if c:
                vadd_into(out, val, c)
        return out

    # -- reduced (vanishing on the unit) subspace ---------------------------------
    def is_reduced(self):
        ui = self.algebra.unit_index
        if ui is None:
            raise ValueError("need a unit-adapted basis")
        return all(ui not in tup for tup in self.table)

    def reduce(self):
        """Restrict inputs to the complement of the unit: the table entries
        touching the unit index are dropped."""
        ui = self.algebra.unit_index
        if ui is None:
            raise ValueError("need a unit-adapted basis")
        out = Cochain(self.algebra, self.arity)
        out.table = {
            t: dict(v) for t, v in self.table.items() if ui not in t
        }
        return out

    # -- insertion --------------------------------------------------------------
    def insert_rows(self, other, pos):
        """``other``'s output fed into argument slot ``pos``, as rows
        {input tuple: {output index: scalar}} for ``assemble``."""
        if self.algebra is not other.algebra:
            raise ValueError("different algebras")
        if not 0 <= pos < self.arity:
            raise ValueError("insertion slot out of range")
        out = {}
        for dtup, dvec in self.table.items():
            k = dtup[pos]
            for etup, evec in other.table.items():
                c = evec.get(k)
                if not c:
                    continue
                add_row(out, dtup[:pos] + etup + dtup[pos + 1 :], dvec, c)
        return out


def cup(D, E):
    """(D cup E)(..) = (-1)^(nm) D(first n) * E(last m)."""
    if D.algebra is not E.algebra:
        raise ValueError("different algebras")
    A = D.algebra
    n, m = D.arity, E.arity
    sign = -1 if (n * m) % 2 else 1
    out = Cochain(A, n + m)
    for dtup, dvec in D.table.items():
        for etup, evec in E.table.items():
            prod = mul(A, dvec, evec)
            if not prod:
                continue
            add_row(out.table, dtup + etup, prod, sign)
    return out


_ALL_LOOKUPS = WeakKeyDictionary()  # algebra -> _delta_lookups


def delta(D):
    """Coboundary: bracket with the product cochain, summed from the closed
    form of ``_delta_terms`` over the table of ``D``.  The lookups are
    built once per algebra."""
    A = D.algebra
    lookups = _ALL_LOOKUPS.get(A)
    if lookups is None:
        lookups = _ALL_LOOKUPS[A] = _delta_lookups(A)
    acc = {}
    for t, v in D.table.items():
        for k, c in v.items():
            for key, kk, w in _delta_terms(lookups, t, k):
                add_term(acc.setdefault(key, {}), kk, c * w)
    out = Cochain(A, D.arity + 1)
    out.table = {key: v for key, v in acc.items() if v}
    return out


def lie_action(D, ch):
    """Chain-level action of an arity-d cochain, lowering degree by d-1.

    Interior terms slide D across the reducible slots; wrap terms feed the
    slot-0 entry into D and put the output back into slot 0:

        sum_{i=0}^{n-d}  (-1)^((d-1)(i+1)) a_0 .. a_i (x) D(a_{i+1}..a_{i+d}) .. a_n
      + sum_{j=n-d+1}^{n} (-1)^(n(j+1))    D(a_{j+1}..a_n, a_0..a_{d+j-n-1}) (x) a_{d+j-n} .. a_j
    """
    A = ch.algebra
    d = D.arity
    if d == 0:
        raise ValueError("arity-0 cochains do not act on chains")
    n = ch.n
    if d > n + 1:
        return Chain(A, 0)  # the action truncates to zero below the bottom
    out = Chain(A, n - d + 1)
    for tup, coeff in ch.c.items():
        for i in range(n - d + 1):
            val = D.table.get(tup[i + 1 : i + d + 1])
            if not val:
                continue
            sign = -1 if ((d - 1) * (i + 1)) % 2 else 1
            head, tail = tup[: i + 1], tup[i + d + 1 :]
            for k, v in val.items():
                add_term(out.c, head + (k,) + tail, sign * coeff * v)
        for j in range(max(n - d + 1, 0), n + 1):
            args = tup[j + 1 : n + 1] + tup[0 : d + j - n]
            val = D.table.get(args)
            if not val:
                continue
            sign = -1 if (n * (j + 1)) % 2 else 1
            rest = tup[d + j - n : j + 1]
            for k, v in val.items():
                add_term(out.c, (k,) + rest, sign * coeff * v)
    return out
