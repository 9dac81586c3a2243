"""The flat-class transport from before its arrows ran on one part-map and
the duality star read each frame's image off a cached rule, kept as the
reference for them.

``map_form`` is ``SeriesForm.map_form`` written as a function of the
series; ``_parity_dress``, the five differentials, ``contract_exp``,
``symplectic_star``, ``degree_twist`` and ``u_regrade`` are ``ahat``'s,
verbatim apart from calling that function: each arrow walks the parts
itself, the two two-term differentials add two whole maps, and the star
rebuilds the volume on every call and caches frame images within the call.
``series_star``, ``pipeline_stages`` and ``nu0`` are ``ahat``'s on top of
them, so the parent composite runs on the parent arrows only.
"""

from fractions import Fraction
from math import factorial

from formality_lab.ahat import SeriesForm, _complement_sign
from formality_lab.cartan import Form, deRham_d
from formality_lab.core.basis import add_term, rational
from formality_lab.core.signs import koszul_sign


def map_form(self, fn, dt=0, du=0):
    """Apply a linear form operation to every part, with a weight shift."""
    out = SeriesForm.zero(self.nvars, self.twin)
    for (kt, ku, _), form in self.c.items():
        out._add(kt + dt, ku + du, fn(form))
    return out


def diff_d(sd, alpha):
    return map_form(alpha, deRham_d)


def diff_td(sd, alpha):
    return map_form(alpha, deRham_d, dt=1)


def diff_td_uL(sd, alpha):
    return map_form(alpha, deRham_d, dt=1) + map_form(alpha, sd.lie, du=1)


def _parity_dress(alpha, fn, dt, du):
    """Apply fn weighted by (-1)^(deg+1) on each homogeneous part."""
    return map_form(alpha, lambda form: fn(form) if form.k % 2 else -fn(form), dt, du)


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
    return _parity_dress(alpha, sd.lie, 1, 0) + _parity_dress(alpha, deRham_d, 0, 1)


def diff_ud_dressed(sd, alpha):
    """(-1)^(deg+1) u*d, the dressing carried past the final conjugation."""
    return _parity_dress(alpha, deRham_d, 0, 1)


def contract_exp(sd, alpha, dt, du, sign=1):
    """exp(sign * t^dt u^du * i) with the pipeline contraction.

    Finite on every part: each contraction drops the form degree by two.
    """
    out = SeriesForm.zero(alpha.nvars, alpha.twin)
    for (kt, ku, _), form in alpha.c.items():
        m = 0
        cur = form
        while cur:
            coeff = Fraction(sign ** m, factorial(m))
            out._add(kt + m * dt, ku + m * du, coeff * cur)
            cur = sd.contract(cur)
            m += 1
    return out


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
    n = sd.n
    vol = sd.volume()
    vcoeff = vol.c.get((tuple(range(sd.nvars)), (0,) * sd.nvars), 0)
    images = {}  # J -> (Ic, scalar), once per frame
    out = Form(sd.nvars, sd.nvars - k)
    for (J, e), v in form.c.items():
        image = images.get(J)
        if image is None:
            # <dz_a, dz_(a+n)> = 1 = -<dz_(a+n), dz_a> and every other pair is
            # 0, so dz_I with I the partners of J is the one frame pairing
            # with dz_J; lam is the one nonzero term of that Leibniz determinant
            P = [a + n if a < n else a - n for a in J]
            I = tuple(sorted(P))
            lam = koszul_sign(tuple(map(P.index, I)), (1,) * k)
            if sum(a >= n for a in I) % 2:
                lam = -lam
            sign, Ic = _complement_sign(I, sd.nvars)
            # alpha = dz_I forces the Ic coefficient: sign * coeff = lam * vcoeff,
            # and sign is +-1, so dividing by it is multiplying by it
            image = images[J] = (Ic, rational(lam * vcoeff * sign))
        Ic, s = image
        add_term(out.c, (Ic, e), v if s == 1 else s * v)
    return out


def series_star(sd, alpha):
    return map_form(alpha, lambda f: symplectic_star(sd, f))


def degree_twist(sd, alpha):
    """(-1)^n t^(k-n) on each degree-k part: regrades d into t*d."""
    out = SeriesForm.zero(alpha.nvars, alpha.twin)
    sign = Fraction((-1) ** sd.n)
    for (kt, ku, k), form in alpha.c.items():
        out._add(kt + k - sd.n, ku, sign * form)
    return out


def u_regrade(sd, alpha):
    """u^(n-k) on each degree-k part."""
    out = SeriesForm.zero(alpha.nvars, alpha.twin)
    for (kt, ku, k), form in alpha.c.items():
        out._add(kt, ku + sd.n - k, form)
    return out


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
