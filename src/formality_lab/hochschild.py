"""Cochains and chains of a finite-dimensional algebra, on its basis.

Both are ``core.basis.Sparse`` vectors over basis keys of a
``StructureAlgebra``: a chain keyed by its tensor (i_0..i_n), a cochain by
(input tuple, output index); the Betti matrices run on the integer indices
of those keys.  So all the operator identities (square-zero differentials,
bracket compatibilities, the chain-level action of cochains) hold exactly
-- including on degree-capped polynomial models, which are honest
finite-dimensional algebras.

Degrees: an arity-n cochain has bracket degree n-1.  Chains of length
n+1 (one unreduced slot plus n reducible ones) sit in homological
degree n.
"""

from __future__ import annotations

from itertools import product as _cartesian
from weakref import WeakKeyDictionary

from .core.basis import Sparse, add_row, add_term, rational, vec
from .core.linalg import betti


class Cochain(Sparse):
    """Multilinear map A^arity -> A: c[((i_1..i_n), k)] is the coefficient
    of basis element k in its value on basis elements i_1..i_n."""

    __slots__ = ("algebra", "arity", "c")
    _space = ("algebra", "arity")

    def __init__(self, algebra, arity, table=None):
        """``table`` maps input tuples to output vectors {index: scalar}."""
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.algebra = algebra
        self.arity = arity
        self.c = {}
        if table:
            dim = algebra.dim
            for tup, v in table.items():
                tup = tuple(tup)
                if len(tup) != arity or any(not 0 <= i < dim for i in tup):
                    raise ValueError(f"bad input tuple {tup!r}")
                for k, x in vec(*v.items()).items():
                    add_term(self.c, (tup, k), x)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, algebra, arity):
        return cls(algebra, arity)

    @classmethod
    def multiplication(cls, algebra):
        c = cls(algebra, 2)
        for key, v in algebra.table.items():
            for k, x in v.items():
                c.c[(key, k)] = x
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
        out.c = {(t, k): v for t, row in rows.items() for k, v in row.items()}
        return out

    def __repr__(self):
        return f"Cochain(arity={self.arity}, {len(self.c)} terms)"

    # -- reduced (vanishing on the unit) subspace ---------------------------------
    def is_reduced(self):
        ui = self.algebra.unit_index
        if ui is None:
            raise ValueError("need a unit-adapted basis")
        return all(ui not in tup for tup, _ in self.c)

    def reduce(self):
        """Restrict inputs to the complement of the unit: the terms whose
        inputs touch the unit index are dropped."""
        ui = self.algebra.unit_index
        if ui is None:
            raise ValueError("need a unit-adapted basis")
        return self._like({key: v for key, v in self.c.items() if ui not in key[0]})

    # -- insertion --------------------------------------------------------------
    def insert_rows(self, other, pos):
        """``other``'s output fed into argument slot ``pos``, as rows
        {input tuple: {output index: scalar}} for ``assemble``."""
        if self.algebra is not other.algebra:
            raise ValueError("different algebras")
        if not 0 <= pos < self.arity:
            raise ValueError("insertion slot out of range")
        by_output = {}  # output index -> [(input tuple of other, scalar)]
        for (etup, k), c in other.c.items():
            by_output.setdefault(k, []).append((etup, c))
        out = {}
        for (dtup, kk), v in self.c.items():
            head, tail = dtup[:pos], dtup[pos + 1 :]
            for etup, c in by_output.get(dtup[pos], ()):
                add_term(out.setdefault(head + etup + tail, {}), kk, c * v)
        return {key: row for key, row in out.items() if row}


def _add_rows(acc, rows, sign):
    for key, row in rows.items():
        add_row(acc, key, row, sign)


def circle_rows(D, E):
    """The insertion sum sum_j (-1)^((arity(E)-1)*j) of E into slot j of D,
    as rows for ``D.assemble``.

    One sum for every cochain type with ``insert_rows`` and ``assemble``:
    the tables here and ``polydiff``'s operators.  Rows are added as the
    containers' ``+`` and ``-`` add them, so the result has the same keys
    in the same order and the same scalar types as a sum of built
    insertions.
    """
    out = {}
    m = E.arity
    for j in range(D.arity):
        _add_rows(out, D.insert_rows(E, j), -1 if ((m - 1) * j) % 2 else 1)
    return out


def bracket(D, E):
    """Graded commutator of insertions; degree of arity-n input is n-1.

    The two insertion sums are added as rows and the result is built
    once.  [E, D] = -(-1)^((n-1)(m-1)) [D, E] holds by construction."""
    n, m = D.arity, E.arity
    out = circle_rows(D, E)
    _add_rows(out, circle_rows(E, D), 1 if ((n - 1) * (m - 1)) % 2 else -1)
    # with no slots to insert into, the honest arity n + m - 1 would be
    # negative: an arity-0 zero stands in
    return D.assemble(E, max(n + m - 1, 0), out)


def cup(D, E):
    """(D cup E)(..) = (-1)^(nm) D(first n) * E(last m)."""
    if D.algebra is not E.algebra:
        raise ValueError("different algebras")
    A = D.algebra
    n, m = D.arity, E.arity
    sign = -1 if (n * m) % 2 else 1
    out = Cochain(A, n + m)
    for (dtup, i), a in D.c.items():
        for (etup, j), b in E.c.items():
            prod = A.table.get((i, j))
            if not prod:
                continue
            key, s = dtup + etup, sign * (a * b)
            for k, v in prod.items():
                add_term(out.c, (key, k), s * v)
    return out


def _delta_lookups(algebra):
    """The structure constants as the coboundary reads them: left[k] lists
    (b, m(k, b)), right[k] lists (a, m(a, k)), and pre[c] lists
    (a, b, m(a, b)_c) for each nonzero c-coefficient."""
    table = algebra.table
    slots = range(algebra.dim)
    left, right, pre = {}, {}, {}
    for k in slots:
        left[k] = [(b, table[(k, b)]) for b in slots if (k, b) in table]
        right[k] = [(a, table[(a, k)]) for a in slots if (a, k) in table]
    for a in slots:
        for b in slots:
            for c, v in table.get((a, b), {}).items():
                pre.setdefault(c, []).append((a, b, v))
    return left, right, pre


def _delta_terms(lookups, t, k):
    """The (input tuple, output index, coefficient) terms of the coboundary
    of the elementary cochain e_(t,k), which sends t to basis k.

    This is bracket(multiplication, e) expanded by hand: m(k, b) at t + (b,),
    (-1)^(n-1) m(a, k) at (a,) + t, and for each slot j,
    outer (-1)^j m(a, b)_(t_j) at t with t_j replaced by (a, b), where
    outer is +1 for odd n-1 and -1 otherwise.
    """
    left, right, pre = lookups
    n = len(t)
    for b, v in left[k]:
        key = t + (b,)
        for kk, c in v.items():
            yield key, kk, c
    sign = 1 if n % 2 else -1  # (-1)^(n-1)
    for a, v in right[k]:
        key = (a,) + t
        for kk, c in v.items():
            yield key, kk, sign * c
    for j, tj in enumerate(t):
        s = sign if j % 2 else -sign  # outer (-1)^j, and outer = -(-1)^(n-1)
        head, tail = t[:j], t[j + 1 :]
        for a, b, c in pre.get(tj, ()):
            yield head + (a, b) + tail, k, s * c


_ALL_LOOKUPS = WeakKeyDictionary()  # algebra -> _delta_lookups


def delta(D):
    """Coboundary: bracket with the product cochain, summed from the closed
    form of ``_delta_terms`` over the terms of ``D``.  The lookups are
    built once per algebra."""
    A = D.algebra
    lookups = _ALL_LOOKUPS.get(A)
    if lookups is None:
        lookups = _ALL_LOOKUPS[A] = _delta_lookups(A)
    out = Cochain(A, D.arity + 1)
    for (t, k), c in D.c.items():
        for key, kk, w in _delta_terms(lookups, t, k):
            add_term(out.c, (key, kk), c * w)
    return out


def basis_cochains(algebra, arity, reduced=False):
    """Elementary cochains e_{tuple, output}, in a deterministic order."""
    if reduced:
        slots = algebra.bar_indices()
    else:
        slots = list(range(algebra.dim))
    out = []
    for tup in _cartesian(slots, repeat=arity):
        for k in range(algebra.dim):
            c = Cochain(algebra, arity)
            c.c[(tup, k)] = 1
            out.append(c)
    return out


# -- chains ---------------------------------------------------------------------

class Chain(Sparse):
    """Element of A^(tensor n+1): c[(i_0..i_n)] = coefficient."""

    __slots__ = ("algebra", "n", "c")
    _space = ("algebra", "n")

    def __init__(self, algebra, n, coeffs=None):
        if n < 0:
            raise ValueError("chain degree must be >= 0")
        self.algebra = algebra
        self.n = n
        self.c = {}
        if coeffs:
            dim = algebra.dim
            for tup, v in coeffs.items():
                tup = tuple(tup)
                if len(tup) != n + 1 or any(not 0 <= i < dim for i in tup):
                    raise ValueError(f"bad chain tuple {tup!r}")
                add_term(self.c, tup, rational(v))

    @classmethod
    def elementary(cls, algebra, tup):
        return cls(algebra, len(tup) - 1, {tuple(tup): 1})

    def normalized(self):
        """Kill terms with the unit in a reducible slot (positions 1..n)."""
        ui = self.algebra.unit_index
        if ui is None:
            raise ValueError("need a unit-adapted basis")
        return self._like({t: v for t, v in self.c.items() if ui not in t[1:]})

    def __repr__(self):
        return f"Chain(n={self.n}, {len(self.c)} terms)"


def _b_terms(table, tup):
    """The (tuple, coefficient) terms of b on one basis tensor of length
    n + 1 >= 2: the adjacent products, then the wrap term."""
    n = len(tup) - 1
    for i in range(n):
        prod = table.get((tup[i], tup[i + 1]))
        if not prod:
            continue
        sign = -1 if i % 2 else 1
        head, tail = tup[:i], tup[i + 2 :]
        for k, v in prod.items():
            yield head + (k,) + tail, sign * v
    prod = table.get((tup[n], tup[0]))
    if prod:
        sign = -1 if n % 2 else 1
        tail = tup[1:n]
        for k, v in prod.items():
            yield (k,) + tail, sign * v


def chain_b(ch):
    """Tensor-contraction boundary: adjacent products plus the wrap term."""
    A, n = ch.algebra, ch.n
    if n == 0:
        return Chain(A, 0)  # nothing below degree zero
    out = Chain(A, n - 1)
    for tup, coeff in ch.c.items():
        for key, v in _b_terms(A.table, tup):
            add_term(out.c, key, coeff * v)
    return out


def connes_B(ch):
    """Degree-raising cyclic differential on the reduced complex.

    B(a_0 .. a_n) = sum_i (-1)^(n i) 1 (x) a_i .. a_n (x) a_0 .. a_{i-1},
    with terms whose reducible slots hit the unit projected away.
    """
    A, n = ch.algebra, ch.n
    ui = A.unit_index
    if ui is None:
        raise ValueError("need a unit-adapted basis")
    out = Chain(A, n + 1)
    for tup, coeff in ch.c.items():
        for i in range(n + 1):
            rotated = tup[i:] + tup[:i]
            if ui in rotated:
                continue
            sign = -1 if (n * i) % 2 else 1
            add_term(out.c, (ui,) + rotated, sign * coeff)
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
    rows = {}  # input tuple -> [(output index, scalar)]
    for (t, k), v in D.c.items():
        rows.setdefault(t, []).append((k, v))
    out = Chain(A, n - d + 1)
    for tup, coeff in ch.c.items():
        for i in range(n - d + 1):
            val = rows.get(tup[i + 1 : i + d + 1])
            if not val:
                continue
            sign = -1 if ((d - 1) * (i + 1)) % 2 else 1
            head, tail = tup[: i + 1], tup[i + d + 1 :]
            for k, v in val:
                add_term(out.c, head + (k,) + tail, sign * coeff * v)
        for j in range(max(n - d + 1, 0), n + 1):
            args = tup[j + 1 : n + 1] + tup[0 : d + j - n]
            val = rows.get(args)
            if not val:
                continue
            sign = -1 if (n * (j + 1)) % 2 else 1
            rest = tup[d + j - n : j + 1]
            for k, v in val:
                add_term(out.c, (k,) + rest, sign * coeff * v)
    return out


# -- homology -----------------------------------------------------------------
#
# Every Betti rank is taken from the small side of its map.  Each map has one
# row per basis element of its smaller space: b_n: C_n -> C_(n-1) one per
# chain of degree n - 1 (its matrix, the transpose of the rows b(e_t)).  The
# cochains are the dual of the chains with coefficients in A*, and delta is
# b transposed there, up to sign (``cohomology_betti``), so the same rows
# are delta's, one per cochain of the degree it leaves.  The maps are then eliminated
# bottom-up, each cleared by the one below (``linalg.betti``).
#
# The matrices are built on integer basis indices, never on tuples.  A
# chain (i_0, .., i_n) has the mixed-radix index i_0 R^n + r(i_1) R^(n-1) +
# .. + r(i_n), where r(i) is the position of i among the R indices a
# reducible slot allows (all dim of them, or the bar indices); the cochain
# key (t, k) is the chain (k,) + t of A* (x) A^(x)n.  These are the
# lexicographic orders of the chains.  A face that acts on a block of
# adjacent slots and carries the rest through is then the block
# I_p (x) M (x) I_s on those indices (``_add_block``).  Its transpose is
# I_p (x) M^T (x) I_s, so b's faces are the same blocks of the transposed
# products (``_transpose``).


def _add_block(rows, sign, p, m, ncols, s):
    """rows[x][y] += sign * (I_p (x) m (x) I_s)[x, y], through ``add_term``.

    ``m`` lists, for each of its rows, its (column, value) terms in order,
    out of ``ncols`` columns.  Row (q, r, u) of the block is
    rows[(q len(m) + r) s + u] and column (q, c, u) is (q ncols + c) s + u,
    for q < p and u < s.  Each row gets its terms in the order of ``m``."""
    nrows = len(m)
    for q in range(p):
        for r, terms in enumerate(m):
            x = (q * nrows + r) * s
            for c, v in terms:
                y = (q * ncols + c) * s
                v = sign * v
                for u in range(s):
                    add_term(rows[x + u], y + u, v)


def _transpose(m, ncols):
    """The transpose of ``m`` (rows of (column, value) terms, out of
    ``ncols`` columns) in the same form, each row's terms in row order."""
    out = [[] for _ in range(ncols)]
    for r, terms in enumerate(m):
        for c, v in terms:
            out[c].append((r, v))
    return out


def _betti(algebra, top, reduced, right, left, name):
    """Betti numbers in degrees 0..top of the chains M (x) A^(x)n of a
    bimodule M over ``algebra``, on a basis of ``algebra.dim`` elements:
    right[(k, a)] is m_k a and left[(a, k)] is a m_k, as sparse vectors.

    b_n has one row per chain of degree n - 1 and one column per chain of
    degree n.  Face 0 is m^T (x) I from the right action, face i > 0 is
    (-1)^i I (x) m^T (x) I on slots i and i + 1, then the wrap term adds
    left[(i_n, i_0)] at column (i_0, mid, i_n) of row (i_n i_0, mid).  In the
    reduced complex a product in a reducible slot keeps only its bar
    components, the terms missing from the normalized chains.  The maps are
    named ``name``: "b" numbers b_n by its source C_n, "delta" numbers it
    delta_(n-1) by its target, the cochain degree it leaves.
    ``linalg.betti`` takes the ranks bottom-up and raises ``ValueError``
    when the maps do not square to zero."""
    dim, table = algebra.dim, algebra.table
    rest = algebra.bar_indices() if reduced else list(range(dim))
    R = len(rest)
    pos = {i: r for r, i in enumerate(rest)}
    # m^T from slot 0 to (slot 0, slot 1), and from one reducible slot to two
    m_head = _transpose(
        [list(right.get((a, b), {}).items()) for a in range(dim) for b in rest], dim
    )
    m_bar = _transpose(
        [
            [(pos[k], v) for k, v in table.get((a, b), {}).items() if k in pos]
            for a in rest
            for b in rest
        ],
        R,
    )
    dims = [dim * R**n for n in range(top + 2)]
    shift = 1 if name == "delta" else 0

    def maps():
        for n in range(1, top + 2):
            rows = [{} for _ in range(dims[n - 1])]
            _add_block(rows, 1, 1, m_head, dim * R, R ** (n - 1))
            for i in range(1, n):
                sign = -1 if i % 2 else 1
                _add_block(rows, sign, dim * R ** (i - 1), m_bar, R * R, R ** (n - 1 - i))
            # wrap: (i_0, mid, i_n) -> (i_n i_0, mid), mid < R^(n-1)
            sign = -1 if n % 2 else 1
            mid = R ** (n - 1)
            for a in range(dim):
                for last, b in enumerate(rest):
                    x = a * R**n + last
                    for k, v in left.get((b, a), {}).items():
                        y, v = k * mid, sign * v
                        for u in range(mid):
                            add_term(rows[y + u], x + u * R, v)
            yield n - shift, rows

    return betti(name, dims, maps())


def homology_betti(algebra, top, reduced=True):
    """Betti numbers of the chains C(A, A) in degrees 0..top (``_betti``)."""
    return _betti(algebra, top, reduced, algebra.table, algebra.table, "b")


def cohomology_betti(algebra, top, reduced=True):
    """Betti numbers of the cochains C(A, A) in degrees 0..top.

    C^n(A, A) = Hom(A^(x)n, A) is the dual of the chains C_n(A, A*), with
    the cochain (t, k) paired to phi_k (x) t, and delta_n is b_(n+1)
    transposed there, times (-1)^(n+1); the normalized cochains are dual to
    the normalized chains.  So
    these are the chain Betti numbers with coefficients in A*, whose
    actions are phi_k a_i = sum_j m(a_i, a_j)_k phi_j and
    a_j phi_k = sum_i m(a_i, a_j)_k phi_i."""
    right, left = {}, {}
    for (i, j), v in algebra.table.items():
        for k, c in v.items():
            right.setdefault((k, i), {})[j] = c
            left.setdefault((j, k), {})[i] = c
    return _betti(algebra, top, reduced, right, left, "delta")
