"""Constant symplectic calculus on series-valued forms.

Forms carry two formal weights: a deformation order t (Laurent below, capped
above like an ideal) and a periodicity weight u (the hard window [-4, 4]).
On standard R^2n the module builds the twisted de Rham differentials, the
finite exponential of the duality contraction, a duality star, and the
composite that turns the volume normalization into the multiplication
operator exp(-omega/(u t)).

Two sign conventions, both recorded in the convention ledger.  First, the
exponential arrows use the OPPOSITE sign of cartan.contract, so each
symplectic plane contracts its own area form to +1; lie transport stays on
the cartan convention.  That choice makes both exponential conjugations and
the contraction identity exp(z i)(omega^n/n!) = z^n exp(omega/z) hold with
no stray signs.  Second, the duality star exchanges d and L only up to the
parity (-1)^(deg+1), and no per-degree rescaling removes the sign from both
exchanges at once; the complexes downstream of the star therefore carry the
parity in their differentials (see diff_tL_ud_dressed).  Every arrow is then
an on-the-nose chain map, and since the dressing is an invertible diagonal
it changes no kernel, image, or class.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import factorial

from .cartan import (
    Form,
    MultiVector,
    contract,
    deRham_d,
    frame_monomials,
    lie_derivative,
)
from .core.basis import Sparse, add_term, rational
from .core.linalg import betti, solve
from .core.signs import koszul_sign
from .linfty import CheckReport
from .poly import Poly


class SymplecticData:
    """Standard structure on 2n variables: x_i = var i, y_i = var n+i,
    area = sum dx_i ^ dy_i, dual bivector with {x_i, y_j} = delta_ij."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("need at least one symplectic plane")
        self.n = n
        self.nvars = 2 * n
        one = Poly.const(self.nvars, 1)
        self.omega = Form(self.nvars, 2, {(i, n + i): one for i in range(n)})
        self.pi0 = MultiVector(self.nvars, 2, {(i, n + i): one for i in range(n)})

    def omega_power(self, j):
        """omega^j / j!"""
        out = Form.function(Poly.const(self.nvars, 1))
        for _ in range(j):
            out = out.wedge(self.omega)
        return Fraction(1, factorial(j)) * out

    def volume(self):
        return self.omega_power(self.n)

    def contract(self, alpha):
        """The pipeline contraction (sign-flipped; see module docstring)."""
        return Fraction(-1) * contract(self.pi0, alpha)

    def lie(self, alpha):
        return lie_derivative(self.pi0, alpha)


class WindowOverflow(ValueError):
    """A weight left the window of a series form with a nonzero part."""


TWIN = (-4, 4)  # the default t-window; the u-window is always [-4, 4]


def window_refuses(twin, kt, ku):
    """Whether a nonzero part at t^kt u^ku raises ``WindowOverflow`` in a
    series with t-window ``twin``: kt above the top drops, so only kt below
    the bottom or ku outside [-4, 4] is refused."""
    return kt <= twin[1] and (kt < twin[0] or not -4 <= ku <= 4)


class SeriesForm(Sparse):
    """c[(kt, ku, k)] = homogeneous degree-k form at weight t^kt u^ku.

    kt above the window top drops silently (ideal semantics); kt below the
    bottom or ku outside [-4, 4] raises WindowOverflow, since a two-sided
    window is no ideal and a dropped part would corrupt later weights.
    """

    __slots__ = ("nvars", "twin", "c")
    _space = ("nvars", "twin")

    def __init__(self, nvars, parts=None, twin=TWIN):
        self.nvars = nvars
        self.twin = tuple(twin)
        self.c = {}
        if parts:
            for (kt, ku, k), form in parts.items():
                if form.k != k or form.nvars != nvars:
                    raise ValueError("part key disagrees with its form")
                self._add(kt, ku, form)

    @classmethod
    def zero(cls, nvars, twin=TWIN):
        return cls(nvars, None, twin)

    @classmethod
    def wrap(cls, form, twin=TWIN):
        out = cls.zero(form.nvars, twin)
        out._add(0, 0, form)
        return out

    def _add(self, kt, ku, form):
        if not form:
            return
        if window_refuses(self.twin, kt, ku):
            raise WindowOverflow(f"t^{kt} u^{ku} left the window")
        if kt <= self.twin[1]:
            add_term(self.c, (kt, ku, form.k), form)

    def map_parts(self, pieces):
        """The one loop over the parts: ``pieces(form)`` yields (dt, du,
        image) triples, and each image is added at its part's weight shifted
        by (dt, du).  A part's degree is its form's ``.k``."""
        out = SeriesForm.zero(self.nvars, self.twin)
        for (kt, ku, _), form in self.c.items():
            for dt, du, image in pieces(form):
                out._add(kt + dt, ku + du, image)
        return out

    def map_form(self, fn, dt=0, du=0):
        """Apply a linear form operation to every part, with a weight shift."""
        return self.map_parts(lambda form: ((dt, du, fn(form)),))

    def __repr__(self):
        keys = ", ".join(f"t^{kt}u^{ku}:deg{k}" for kt, ku, k in sorted(self.c))
        return f"SeriesForm({keys or '0'})"


# ---------------------------------------------------------------------------
# differentials of the five complexes threaded by the composite
# ---------------------------------------------------------------------------

def diff_d(sd, alpha):
    return alpha.map_form(deRham_d)


def diff_td(sd, alpha):
    return alpha.map_form(deRham_d, dt=1)


def diff_td_uL(sd, alpha):
    return alpha.map_parts(lambda f: ((1, 0, deRham_d(f)), (0, 1, sd.lie(f))))


def _dressed(form, image):
    """image * (-1)^(deg+1), deg the degree of ``form``, the input."""
    return image if form.k % 2 else -image


def diff_tL_ud_dressed(sd, alpha):
    """(-1)^(deg+1) (t*L + u*d): the star conjugate of t*d + u*L.

    The duality star exchanges d and L only up to the parity of the form
    degree (on a degree-k input, star(d a) = (-1)^(k+1) L(star a) and
    star(L a) = (-1)^(k+1) d(star a)); no per-degree rescaling of the star
    can remove that sign on both exchanges at once, so the complexes past
    the star carry it in their differential instead.  The dressing is an
    invertible diagonal, so kernels, images and classes agree with the
    undressed t*L + u*d.
    """
    return alpha.map_parts(
        lambda f: ((1, 0, _dressed(f, sd.lie(f))), (0, 1, _dressed(f, deRham_d(f))))
    )


def diff_ud_dressed(sd, alpha):
    """(-1)^(deg+1) u*d, the dressing carried past the final conjugation."""
    return alpha.map_form(lambda f: _dressed(f, deRham_d(f)), du=1)


def contract_exp(sd, alpha, dt, du, sign=1):
    """exp(sign * t^dt u^du * i) with the pipeline contraction.

    Finite on every part: each contraction drops the form degree by two.
    """
    def pieces(form):
        m = 0
        while form:
            yield m * dt, m * du, Fraction(sign**m, factorial(m)) * form
            form = sd.contract(form)
            m += 1

    return alpha.map_parts(pieces)


# ---------------------------------------------------------------------------
# the duality star
# ---------------------------------------------------------------------------

def _complement_sign(I, nvars):
    """dz_I ^ dz_{I^c} = sign * dz_{0..nvars-1}."""
    Ic = tuple(i for i in range(nvars) if i not in I)
    return koszul_sign(I + Ic, (1,) * nvars), Ic


@cache
def _star_frame(n, J):
    """star(dz_J) = s dz_Ic on R^2n, as (Ic, s) with s = +-1 an int.

    <dz_a, dz_(a+n)> = 1 = -<dz_(a+n), dz_a> and every other pair is 0, so
    dz_I with I the partners of J is the one frame pairing with dz_J; lam is
    the one nonzero term of that Leibniz determinant.  alpha = dz_I forces
    the Ic coefficient: sign * s = lam * v, with sign = +-1 from
    dz_I ^ dz_Ic and v = (-1)^(n(n-1)/2) the top coefficient of
    vol = omega^n/n!.
    """
    P = [a + n if a < n else a - n for a in J]
    I = tuple(sorted(P))
    lam = koszul_sign(tuple(map(P.index, I)), (1,) * len(J))
    if sum(a >= n for a in I) % 2:
        lam = -lam
    sign, Ic = _complement_sign(I, 2 * n)
    return Ic, lam * sign * (-1) ** (n * (n - 1) // 2)


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
    out = Form(sd.nvars, sd.nvars - k)
    for (J, e), v in form.c.items():
        Ic, s = _star_frame(sd.n, J)
        add_term(out.c, (Ic, e), v if s == 1 else -v)
    return out


def series_star(sd, alpha):
    return alpha.map_form(lambda f: symplectic_star(sd, f))


# ---------------------------------------------------------------------------
# the composite
# ---------------------------------------------------------------------------

def degree_twist(sd, alpha):
    """(-1)^n t^(k-n) on each degree-k part: regrades d into t*d."""
    sign = Fraction((-1) ** sd.n)
    return alpha.map_parts(lambda f: ((f.k - sd.n, 0, sign * f),))


def u_regrade(sd, alpha):
    """u^(n-k) on each degree-k part."""
    return alpha.map_parts(lambda f: ((0, sd.n - f.k, f),))


def nu0(sd, alpha):
    """The composite of the pipeline stages, then the u regrading."""
    for arrow, _, _ in pipeline_stages(sd):
        alpha = arrow(sd, alpha)
    return u_regrade(sd, alpha)


def pipeline_stages(sd):
    """The arrows with their (source, target) differentials, in order:
    degree twist, then exp((u/t) i), then the star, then exp(-(t/u) i)."""
    return [
        (degree_twist, diff_d, diff_td),
        (lambda s, a: contract_exp(s, a, dt=-1, du=1, sign=1), diff_td, diff_td_uL),
        (series_star, diff_td_uL, diff_tL_ud_dressed),
        (lambda s, a: contract_exp(s, a, dt=1, du=-1, sign=-1),
         diff_tL_ud_dressed, diff_ud_dressed),
    ]


def check_pipeline_chain_maps(sd, samples):
    """arrow(d_src(a)) == d_tgt(arrow(a)) for every stage and sample."""
    witnesses = []
    checked = 0
    for stage, (arrow, dsrc, dtgt) in enumerate(pipeline_stages(sd)):
        for a in samples:
            lhs = arrow(sd, dsrc(sd, a))
            rhs = dtgt(sd, arrow(sd, a))
            checked += 1
            if lhs != rhs:
                witnesses.append((stage, a, lhs - rhs))
    return CheckReport(checked, witnesses)


# ---------------------------------------------------------------------------
# the contraction identity
# ---------------------------------------------------------------------------

_Z_TOKENS = {"t": (1, 0), "u": (0, 1), "t/u": (1, -1), "u/t": (-1, 1)}


def exp_contract_identity(n, z="t/u"):
    """exp(z i)(omega^n/n!) versus sum_j z^(n-j) omega^j/j!, exactly."""
    if z not in _Z_TOKENS:
        raise ValueError(f"unknown weight token {z!r}")
    dt, du = _Z_TOKENS[z]
    sd = SymplecticData(n)
    lhs = contract_exp(sd, SeriesForm.wrap(sd.volume()), dt, du, sign=1)
    rhs = SeriesForm.zero(sd.nvars)
    for j in range(n + 1):
        rhs._add((n - j) * dt, (n - j) * du, sd.omega_power(j))
    return CheckReport(1, [] if lhs == rhs else [("exp-contract", lhs, rhs)])


# ---------------------------------------------------------------------------
# exactness and the flat expansion
# ---------------------------------------------------------------------------

def d_primitive(form):
    """A beta with d(beta) = form, or None.  beta's coefficients have degree
    at most one more than form's."""
    if form.k == 0:
        return None
    nvars = form.nvars
    cap = 1 + max((sum(e) for _, e in form.c), default=0)
    cols = list(frame_monomials(nvars, (form.k - 1,), cap))
    images = [
        deRham_d(Form(nvars, form.k - 1, {key: Poly.monomial(nvars, e)})).c
        for key, e in cols
    ]
    x = solve(images, form.c)
    if x is None:
        return None
    out = Form(nvars, form.k - 1)
    for j, v in x.items():
        add_term(out.c, cols[j], rational(v))
    return out


# the weight-0 class plus exhibited primitives for every positive part
FlatExpansion = namedtuple("FlatExpansion", "value klass primitives ok")


def ahat_flat(n, nt):
    """Run the composite on 1 over flat R^2n and split class from exact junk.

    The degree-0 parts are the reported expansion; every positive-degree part
    must be d-exact with an explicitly solved primitive, so the class is the
    constant 1 whatever nt is.
    """
    sd = SymplecticData(n)
    twin = (-max(n, nt), nt)
    one = SeriesForm.wrap(Form.function(Poly.const(sd.nvars, 1)), twin)
    value = nu0(sd, one)
    klass = {}
    primitives = {}
    ok = True
    for (kt, ku, k), form in sorted(value.c.items()):
        if k == 0:
            klass[(kt, ku)] = form.c.get(((), (0,) * sd.nvars), 0)
            continue
        prim = d_primitive(form)
        primitives[(kt, ku, k)] = prim
        if prim is None or deRham_d(prim) != form:
            ok = False
    return FlatExpansion(value, klass, primitives, ok)


# ---------------------------------------------------------------------------
# degeneration probe
# ---------------------------------------------------------------------------

ProbeRow = namedtuple("ProbeRow", "grade dim homology predicted")


class ProbeTable(namedtuple("ProbeTable", "rows nt cap")):
    @property
    def degenerate(self):
        return all(r.homology == r.predicted for r in self.rows)


def _graded_betti(nvars, cap, nt, image):
    """Dimensions and Betti numbers, grade by grade, of a grade-raising
    differential on forms x t-powers, through ``betti``.

    Basis vectors are (t-power, index tuple, monomial), graded by
    form degree + 2 * t-power.  ``image`` maps a basis vector to a list of
    (t-power, Form) pieces; anything above the caps must not appear.
    """
    grades = [[] for _ in range(nvars + 2 * nt)]  # the top one stays empty
    for j in range(nt):
        for k in range(nvars + 1):
            for key, e in frame_monomials(nvars, (k,), cap):
                grades[k + 2 * j].append((j, key, e))
    index = {v: (J, pos) for J, vecs in enumerate(grades) for pos, v in enumerate(vecs)}
    dims = [len(vecs) for vecs in grades]

    def maps():
        for J, vecs in enumerate(grades[:-1]):
            rows = []
            for j, key, e in vecs:
                row = {}
                for jj, piece in image(j, key, e):
                    if jj >= nt:
                        continue
                    for (fkey, ee), v in piece.c.items():
                        if sum(ee) > cap:
                            raise ValueError(
                                "coefficient cap is not stable under the transport"
                            )
                        Jp, pos = index[(jj, fkey, ee)]
                        if Jp != J + 1:
                            raise ValueError("image is not grade-raising")
                        add_term(row, pos, v)
                rows.append(row)
            yield J, rows

    return dims[:-1], betti("d", dims, maps())


def spectral_degeneration_probe(pi, cap, nt):
    """Rank table of (forms x t-adic, d + t*L) against the split prediction.

    The prediction column counts classes of the plain d-model times the
    t-powers; equality of every row is what collapse of the t-filtration
    looks like at these finite caps.  A probe, not a proof.  ``betti``
    certifies that (d + t*L)^2 vanishes below t^nt first, and raises
    ``ValueError`` with a witness when it does not: t^2 L^2 is nonzero when
    pi is not Poisson, so such a pi is refused from nt = 3 on.
    """
    nvars = pi.nvars

    def image_full(j, key, e):
        form = Form(nvars, len(key), {key: Poly.monomial(nvars, e)})
        return [(j, deRham_d(form)), (j + 1, lie_derivative(pi, form))]

    dims, hom = _graded_betti(nvars, cap, nt, image_full)
    # at nt = 1 the t*L pieces leave the complex: the plain d-model
    _, betti_d = _graded_betti(nvars, cap, 1, image_full)
    rows = []
    for J, dim in enumerate(dims):
        pred = sum(betti_d[J - 2 * j] for j in range(nt) if 0 <= J - 2 * j <= nvars)
        rows.append(ProbeRow(J, dim, hom[J], pred))
    return ProbeTable(rows, nt, cap)
