"""Rules the package computes once, against the copies they replaced.

Each ``_parent_*`` below is a previous body, kept verbatim as the reference:

- ``_parent_hkr`` is ``cartan.hkr`` with its own inversion count, where the
  program now takes each permutation's sign from ``core.signs.koszul_sign``.
  The top-degree frame in k variables visits every permutation of range(k),
  each on its own key, so no sign can cancel out of the comparison.
- ``_parent_complement_sign`` is ``ahat._complement_sign`` with its own
  inversion count, likewise replaced by ``koszul_sign``.
- ``_parent_principal_lattice`` is ``linfty._principal_lattice`` as three
  nested exponent loops, where the program now cuts the exponents of
  ``monomials_upto(3 * nvars, d)`` into thirds.  The order differs, so the
  lists are compared sorted.
- ``_parent_betti_d`` is the degeneration probe's plain d-model as it was
  built, on the d pieces only.  The probe now builds it from its full image
  at nt = 1, where every t*L piece leaves the complex; at nt = 1 its
  prediction column is that model's Betti numbers, and at nt = 2 the sum
  over t-powers of them.
"""

from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest

from formality_lab import ahat as ah
from formality_lab import cartan as ct
from formality_lab import linfty as lf
from formality_lab.cartan import Form, deRham_d
from formality_lab.core.basis import add_term
from formality_lab.manifest import load_manifest
from formality_lab.poly import Poly, monomials_upto
from formality_lab.polydiff import PolyDiffOperator
from formality_lab.suites import OPS

# -- reference: the previous bodies, verbatim ----------------------------------

def _parent_hkr(mv):
    """The multidifferential operator (a_1..a_k) -> <mv, da_1 ^ .. ^ da_k>.

    Expands the determinant pairing: each increasing tuple I contributes
    sum over permutations sigma of sgn(sigma) * c_I * prod d_{i_sigma(b)}.
    A 0-vector becomes the arity-0 cochain (the function itself).
    """
    n = mv.nvars
    k = mv.k
    polys = {}
    for (key, e), v in mv.c.items():
        if key not in polys:
            polys[key] = Poly.zero(n)
        polys[key].c[e] = v
    if k == 0:
        return PolyDiffOperator.element(polys.get((), Poly.zero(n)))
    terms = {}
    for key, p in polys.items():
        for perm in permutations(range(k)):
            inv = sum(
                1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
            )
            sgn = -1 if inv % 2 else 1
            tkey = []
            for b in range(k):
                e = [0] * n
                e[key[perm[b]]] = 1
                tkey.append(tuple(e))
            add_term(terms, tuple(tkey), sgn * p)
    op = PolyDiffOperator(n, k)
    op.c = terms
    return op


def _parent_complement_sign(I, nvars):
    """dz_I ^ dz_{I^c} = sign * dz_{0..nvars-1}."""
    Ic = tuple(i for i in range(nvars) if i not in I)
    seq = I + Ic
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign, Ic


def _parent_principal_lattice(nvars, d):
    return [
        (ea, eb, ec)
        for ea in monomials_upto(nvars, d)
        for eb in monomials_upto(nvars, d - sum(ea))
        for ec in monomials_upto(nvars, d - sum(ea) - sum(eb))
    ]


def _parent_betti_d(pi, cap):
    nvars = pi.nvars

    def image_d(j, key, e):
        form = Form(nvars, len(key), {key: Poly.monomial(nvars, e)})
        return [(j, deRham_d(form))]

    _, betti_d = ah._graded_betti(nvars, cap, 1, image_d)
    return betti_d


# -- comparisons -------------------------------------------------------------------

def _assert_same_operator(new, old):
    assert (new.nvars, new.arity) == (old.nvars, old.arity)
    assert list(new.c) == list(old.c)
    for key, p in new.c.items():
        assert list(p.c.items()) == list(old.c[key].c.items())
        assert [type(v) for v in p.c.values()] == [type(v) for v in old.c[key].c.values()]


def _multivectors():
    """The top-degree frame in k variables for k <= 5, and every frame of
    each degree in 4 variables with mixed coefficients."""
    out = [
        ct.MultiVector(k, k, {tuple(range(k)): Poly.const(k, 3)}) for k in range(6)
    ]
    coeff = Poly(4, {(1, 0, 0, 0): 2, (0, 1, 1, 0): -1, (0, 0, 0, 0): 1})
    for k in range(5):
        frames = list(combinations(range(4), k))
        out.append(ct.MultiVector(4, k, {f: (i + 1) * coeff for i, f in enumerate(frames)}))
    return out


def test_hkr_matches_reference_on_every_permutation():
    for mv in _multivectors():
        _assert_same_operator(ct.hkr(mv), _parent_hkr(mv))
    for k in range(1, 6):
        assert len(ct.hkr(ct.MultiVector(k, k, {tuple(range(k)): 1})).c) == factorial(k)


@pytest.mark.parametrize("nvars", range(7))
def test_complement_sign_matches_reference_on_every_frame(nvars):
    for k in range(nvars + 1):
        for I in combinations(range(nvars), k):
            assert ah._complement_sign(I, nvars) == _parent_complement_sign(I, nvars), I


@pytest.mark.parametrize("d", range(4))
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_principal_lattice_matches_reference_as_a_set(nvars, d):
    new = lf._principal_lattice(nvars, d)
    assert sorted(new) == sorted(_parent_principal_lattice(nvars, d))


DEMO = Path(__file__).resolve().parents[1] / "manifests" / "demo.yaml"


def _probe_bivectors():
    demo = load_manifest(DEMO, known_ops=OPS)
    kind, linear = demo.objects["pi-linear"]
    assert kind == "multivector"
    return {
        "standard plane": ct.MultiVector(2, 2, {(0, 1): Poly.const(2, 1)}),
        "pi-linear": linear,
        "non-Poisson": ct.MultiVector(
            3, 2, {(0, 1): Poly.const(3, 1), (1, 2): Poly.var(3, 1)}
        ),
    }


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("name", ["standard plane", "pi-linear", "non-Poisson"])
def test_probe_prediction_matches_the_plain_d_model(name, cap):
    pi = _probe_bivectors()[name]
    betti_d = _parent_betti_d(pi, cap)
    rows = ah.spectral_degeneration_probe(pi, cap, 1).rows
    assert [r.predicted for r in rows] == betti_d
    rows = ah.spectral_degeneration_probe(pi, cap, 2).rows
    assert [r.predicted for r in rows] == [
        sum(betti_d[J - 2 * j] for j in range(2) if 0 <= J - 2 * j <= pi.nvars)
        for J in range(len(rows))
    ]
