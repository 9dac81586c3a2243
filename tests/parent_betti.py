"""The Hochschild Betti maps as they were built before each map grew its
face rows from the map below, kept as the reference for ``hochschild._betti``.

``_add_block`` is the former ``hochschild`` helper, verbatim: it adds a
signed block I_p (x) m (x) I_s into a list of row dicts through
``add_term``.  ``betti_maps`` is the former ``_betti`` up to the
elimination, verbatim but for its last line: it returns the generator of
(n, rows) that ``_betti`` handed to ``linalg.betti``, each map filled face
by face (face 0, faces 1..n - 1, then the wrap) from scratch.  The
pre-clearing Betti functions of ``test_hochschild_oracle`` add their blocks
through ``_add_block`` too.
"""

from formality_lab.core.basis import add_term
from formality_lab.hochschild import _transpose


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


def betti_maps(algebra, top, reduced, right, left, name):
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

    return maps()
