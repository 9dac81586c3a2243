"""The odd-parameter extension from before it was written on multivectors,
kept verbatim as the reference of ``tests/test_epsilon_oracle.py``.

``EpsilonElement``, ``BodyTail``, ``EpsilonAlgebra`` and ``epsilon_extend``
are ``linfty``'s from when an extended element was a (body, tail) pair of
plain elements standing for body + e*tail.  ``check_gerstenhaber`` is the
sweep of that time, verbatim: it accumulates each residual into
``A.accumulator()``, a ``BodyTail`` here, where the current sweep takes a
flat dict.
"""

from itertools import product

from formality_lab.linfty import CheckReport


class EpsilonElement:
    """Pair (body, tail) standing for body + e*tail, where e is an odd
    square-zero parameter of degree +1.  A homogeneous element of degree k
    has body of degree k and tail of degree k-1.  Either part may be None
    (zero)."""

    __slots__ = ("body", "tail", "degree")

    def __init__(self, body, tail, degree):
        self.body = None if (body is None or body.is_zero()) else body
        self.tail = None if (tail is None or tail.is_zero()) else tail
        self.degree = degree

    def __bool__(self):
        return self.body is not None or self.tail is not None

    def is_zero(self):
        return not self

    def __repr__(self):
        return f"EpsilonElement(deg={self.degree}, body={self.body!r}, tail={self.tail!r})"


class BodyTail:
    """What the extended product and bracket accumulate into: one flat
    dict for the body and one for the tail.  True when either holds a
    term."""

    __slots__ = ("body", "tail")

    def __init__(self):
        self.body = {}
        self.tail = {}

    def __bool__(self):
        return bool(self.body or self.tail)


class EpsilonAlgebra:
    """Graded-commutative product and odd bracket extended over an odd
    parameter e of degree +1.

    The extended product twists the naive bilinear extension by the
    bracket of the two bodies; the extended bracket drops the e*e terms.
    Both accumulate into a ``BodyTail`` through the plain algebra's
    accumulating kernels (see GerstenhaberData).  ``delta`` differentiates
    along e, and together with the product it regenerates the bracket (a
    second-order-operator identity whose overall sign ``delta_defect``
    measures).
    """

    accumulator = BodyTail

    def __init__(self, degree, mul_into, bracket_into, element, generators=()):
        self._deg = degree
        self._mul = mul_into
        self._brk = bracket_into
        self._element = element
        self.generators = list(generators)

    def embed(self, a):
        return EpsilonElement(a, None, self._deg(a))

    def embed_tail(self, b):
        return EpsilonElement(None, b, self._deg(b) + 1)

    def degree(self, x):
        return x.degree

    def element(self, k, acc):
        """The degree-k element holding what ``acc`` accumulated."""
        make = self._element
        return EpsilonElement(
            make(k, acc.body) if acc.body else None,
            make(k - 1, acc.tail) if acc.tail else None,
            k,
        )

    def mul_into(self, acc, x, y, sign):
        """acc += sign * xy: body x.body y.body, tail x.tail y.body +
        (-1)^|x| (x.body y.tail + [x.body, y.body])."""
        mul = self._mul
        s = -sign if x.degree % 2 else sign
        if y.body is not None:
            if x.body is not None:
                mul(acc.body, x.body, y.body, sign)
            if x.tail is not None:
                mul(acc.tail, x.tail, y.body, sign)
        if x.body is not None:
            if y.tail is not None:
                mul(acc.tail, x.body, y.tail, s)
            if y.body is not None:
                self._brk(acc.tail, x.body, y.body, s)

    def bracket_into(self, acc, x, y, sign):
        """acc += sign * [x, y]: body [x.body, y.body], tail
        [x.tail, y.body] + (-1)^(|x|+1) [x.body, y.tail]."""
        brk = self._brk
        if y.body is not None:
            if x.body is not None:
                brk(acc.body, x.body, y.body, sign)
            if x.tail is not None:
                brk(acc.tail, x.tail, y.body, sign)
        if x.body is not None and y.tail is not None:
            brk(acc.tail, x.body, y.tail, sign if x.degree % 2 else -sign)

    def delta(self, x):
        """Derivative along the odd parameter: body + e*tail -> tail."""
        return EpsilonElement(x.tail, None, x.degree - 1)

    def delta_defect(self, x, y):
        """delta(xy) - delta(x) y - (-1)^|x| (x delta(y) + [x, y]),
        accumulated: empty exactly when the second-order defect of delta on
        (x, y) is the bracket."""
        xy = BodyTail()
        self.mul_into(xy, x, y, 1)
        r = BodyTail()
        r.body = xy.tail  # delta(xy): the tail of the product, as a body
        s = 1 if x.degree % 2 else -1
        self.mul_into(r, self.delta(x), y, -1)
        self.mul_into(r, x, self.delta(y), s)
        self.bracket_into(r, x, y, s)
        return r


def epsilon_extend(degree, mul_into, bracket_into, element, generators=()):
    """Extend (V, product, bracket) over the odd parameter; the generator
    list of the result contains both the embedded generators and their
    parameter multiples."""
    E = EpsilonAlgebra(degree, mul_into, bracket_into, element)
    gens = []
    for name, g in generators:
        gens.append((name, E.embed(g)))
        gens.append(("e*" + name, E.embed_tail(g)))
    E.generators = gens
    return E


def _sign(e):
    return -1 if e % 2 else 1


def check_gerstenhaber(A):
    """Verify the graded-commutative / odd-Lie / Leibniz laws on the
    generators of A, plus the square-zero and bracket-generating laws of
    delta when A has one.  Returns a CheckReport whose witnesses are
    (law, generator names, residual).

    Each law residual is one ``A.accumulator()``, into which
    ``A.mul_into`` and ``A.bracket_into`` add every signed term; an element
    (``A.element``) is made only for a witness and for the N x N tables P
    and B of pairwise products and brackets, which the triple laws read.
    The Jacobi residual of (i, j, k) sums the same three signed terms as
    those of its rotations, so it is computed once per cyclic orbit, at
    the orbit's least rotation, which product order visits first; every
    rotation still counts as a check and reports its own witness."""
    mul = A.mul_into
    brk = A.bracket_into
    new = A.accumulator
    element = A.element
    delta = A.delta
    gens = A.generators
    names = [name for name, _ in gens]
    elems = [g for _, g in gens]
    degs = [A.degree(g) for g in elems]

    def table(op, shift):
        rows = []
        for x, dx in zip(elems, degs):
            row = []
            for y, dy in zip(elems, degs):
                r = new()
                op(r, x, y, 1)
                # the bracket of two functions is a zero of degree 0
                row.append(element(max(dx + dy + shift, 0), r))
            rows.append(row)
        return rows

    P = table(mul, 0)
    B = table(brk, -1)
    witnesses = []
    checked = 0

    n = len(gens)
    for i in range(n):
        nx, x, dx = names[i], elems[i], degs[i]
        for j in range(i, n):
            ny, y, dy = names[j], elems[j], degs[j]
            checked += 1
            r = new()
            mul(r, x, y, 1)
            mul(r, y, x, -_sign(dx * dy))
            if r:
                witnesses.append(("commutativity", (nx, ny), element(dx + dy, r)))
            checked += 1
            r = new()
            brk(r, x, y, 1)
            brk(r, y, x, _sign((dx - 1) * (dy - 1)))
            if r:
                witnesses.append(("antisymmetry", (nx, ny), element(dx + dy - 1, r)))
            if delta is not None:
                checked += 1
                r = A.delta_defect(x, y)
                if r:
                    witnesses.append(
                        ("second-order-delta", (nx, ny), element(dx + dy - 1, r))
                    )

    if delta is not None:
        for nx, x in gens:
            checked += 1
            r = delta(delta(x))
            if r:
                witnesses.append(("delta-squared", (nx,), r))

    jacobi = {}  # least rotation -> its nonzero Jacobi residual
    for i, j, k in product(range(n), repeat=3):
        x, y, z = elems[i], elems[j], elems[k]
        dx, dy, dz = degs[i], degs[j], degs[k]
        d = dx + dy + dz
        label = (names[i], names[j], names[k])
        checked += 1
        r = new()
        mul(r, P[i][j], z, 1)
        mul(r, x, P[j][k], -1)
        if r:
            witnesses.append(("associativity", label, element(d, r)))
        checked += 1
        r = new()
        brk(r, x, P[j][k], 1)
        mul(r, B[i][j], z, -1)
        mul(r, y, B[i][k], -_sign((dx - 1) * dy))
        if r:
            witnesses.append(("bracket-leibniz", label, element(d - 1, r)))
        checked += 1
        orbit = min((i, j, k), (j, k, i), (k, i, j))
        if orbit == (i, j, k):
            r = new()
            brk(r, B[i][j], z, _sign((dx - 1) * (dz - 1)))
            brk(r, B[j][k], x, _sign((dy - 1) * (dx - 1)))
            brk(r, B[k][i], y, _sign((dz - 1) * (dy - 1)))
            if r:
                jacobi[orbit] = element(d - 2, r)
        r = jacobi.get(orbit)
        if r is not None:
            witnesses.append(("jacobi", label, r))
    return CheckReport(checked, witnesses, 3)
