"""The contraction, the function multiple and the duality star from before
they ran on the monomial-pair kernel and the partner frame, kept as the
reference for them.

``_remove_index``, ``_contract_rule`` and ``contract`` are ``cartan``'s, and
``_pair_det`` and ``symplectic_star`` are ``ahat``'s, verbatim: contraction
with its own double loop over term pairs and its own frame-sign helper, and
the star scanning every frame of the right degree through the Leibniz
determinant.  ``poly_multiple`` is the ``Poly`` branch of
``cartan._Exterior.__rmul__``, verbatim apart from its name.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import add

from formality_lab.ahat import _complement_sign
from formality_lab.cartan import Form, _make
from formality_lab.core.basis import add_term, rational
from formality_lab.core.signs import koszul_sign


def _remove_index(key, i):
    """Odd partial derivative / first-slot insertion on a basis symbol:
    returns (sign, key minus i) or None if i is absent."""
    if i not in key:
        return None
    pos = key.index(i)
    return (-1 if pos % 2 else 1, key[:pos] + key[pos + 1 :])


@cache
def _contract_rule(kv, kf):
    """i_frame_kv on dx^kf as (sign, remaining frame), or None when it vanishes."""
    sign = 1
    key = kf
    for i in reversed(kv):  # innermost factor inserts first
        rem = _remove_index(key, i)
        if rem is None:
            return None
        s, key = rem
        sign *= s
    return sign, key


def contract(mv, alpha):
    """i_mv with i_{X^Y} = i_X o i_Y and first-slot single insertions."""
    if mv.nvars != alpha.nvars:
        raise ValueError("variable counts differ")
    n = mv.nvars
    if mv.k > alpha.k:
        return Form.zero(n, 0)
    c = {}
    fitems = alpha.c.items()
    for (kv, ev), cv in mv.c.items():
        for (kf, ef), cf in fitems:
            rule = _contract_rule(kv, kf)
            if rule is not None:
                sign, key = rule
                v = cv * cf
                add_term(c, (key, tuple(map(add, ev, ef))), v if sign == 1 else -v)
    return _make(Form, n, alpha.k - mv.k, c)


def poly_multiple(self, scalar):
    if scalar.n != self.nvars:
        raise ValueError("variable counts differ")
    c = {}
    for e1, v1 in scalar.c.items():
        for (key, e2), v2 in self.c.items():
            add_term(c, (key, tuple(map(add, e1, e2))), v1 * v2)
    return self._like(c)


def _pair_det(sd, I, J):
    """Determinant extension of the covector pairing to increasing tuples.

    Each coordinate covector pairs to +-1 with exactly one other, so the
    pairing matrix is a signed permutation matrix, or has a zero row when a
    partner of I is missing from J.
    """
    det = 1
    perm = []
    for a in I:
        b = a + sd.n if a < sd.n else a - sd.n
        if b not in J:
            return Fraction(0)
        det *= 1 if a < sd.n else -1  # <dz_a, dz_b> for a's partner b
        perm.append(J.index(b))
    return Fraction(det * koszul_sign(tuple(perm), [1] * len(I)))


def symplectic_star(sd, form):
    """The degree-reversing duality: alpha ^ star(beta) = <alpha, beta> vol.

    <,> is the determinant extension of the covector pairing; vol is
    omega^n/n!.  Involutive, star(1) = vol, and it exchanges the two twisted
    differentials exactly (asserted in tests, not assumed here).
    """
    if form.nvars != sd.nvars:
        raise ValueError("variable counts differ")
    k = form.k
    if k > sd.nvars:
        # only the zero form lives above the top degree
        return Form(sd.nvars, 0)
    vol = sd.volume()
    vcoeff = vol.c.get((tuple(range(sd.nvars)), (0,) * sd.nvars), 0)
    images = {}  # J -> [(Ic, scalar)], once per frame
    out = Form(sd.nvars, sd.nvars - k)
    for (J, e), v in form.c.items():
        image = images.get(J)
        if image is None:
            image = images[J] = []
            for I in combinations(range(sd.nvars), k):
                lam = _pair_det(sd, I, J)
                if not lam:
                    continue
                sign, Ic = _complement_sign(I, sd.nvars)
                # alpha = dz_I forces the Ic coefficient: sign * coeff = lam * vcoeff,
                # and sign is +-1, so dividing by it is multiplying by it
                image.append((Ic, rational(lam * vcoeff * sign)))
        for Ic, s in image:
            add_term(out.c, (Ic, e), v if s == 1 else s * v)
    return out
