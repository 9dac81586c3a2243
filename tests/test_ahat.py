"""Flat-model transport: weighted forms, duality star, pipeline, probes."""

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from formality_lab import ahat as ah
from formality_lab import cartan as ct
from formality_lab.ahat import WindowOverflow
from formality_lab.core.signs import koszul_sign
from formality_lab.poly import Poly, monomials_upto


def form_samples(sd, cap=2):
    out = []
    for k in range(sd.nvars + 1):
        for key in combinations(range(sd.nvars), k):
            for e in monomials_upto(sd.nvars, cap):
                out.append(ct.Form(sd.nvars, k, {key: Poly.monomial(sd.nvars, e)}))
    return out


def one_form(nvars, i):
    return ct.Form(nvars, 1, {(i,): Poly.const(nvars, 1)})


def expansion(sd, base, top):
    """base ^ exp(-omega/(u t)) as a SeriesForm, zero parts dropped."""
    out = ah.SeriesForm.zero(sd.nvars)
    for j in range(top + 1):
        out._add(-j, -j, Fraction((-1) ** j) * base.wedge(sd.omega_power(j)))
    return out


def test_exp_contract_identity():
    for n in (1, 2, 3, 4):
        for z in ("t", "u", "t/u"):
            assert ah.exp_contract_identity(n, z).ok
    with pytest.raises(ValueError):
        ah.exp_contract_identity(1, "q")


def test_duality_star_basics():
    for n in (1, 2):
        sd = ah.SymplecticData(n)
        one = ct.Form.function(Poly.const(sd.nvars, 1))
        assert ah.symplectic_star(sd, one) == sd.volume()
        assert ah.symplectic_star(sd, sd.volume()) == one
        for k in range(sd.nvars + 1):
            for key in combinations(range(sd.nvars), k):
                b = ct.Form(sd.nvars, k, {key: Poly.const(sd.nvars, 1)})
                assert ah.symplectic_star(sd, ah.symplectic_star(sd, b)) == b
    sd = ah.SymplecticData(1)
    assert ah.symplectic_star(sd, one_form(2, 0)) == one_form(2, 0)
    assert ah.symplectic_star(sd, one_form(2, 1)) == one_form(2, 1)


def _pair_single(sd, i, j):
    """The bivector pairing on coordinate covectors: <dz_i, dz_j>."""
    if j == i + sd.n and i < sd.n:
        return 1
    if i == j + sd.n and j < sd.n:
        return -1
    return 0


def test_star_of_each_frame_is_the_leibniz_determinant_construction():
    # alpha ^ star(dz_J) = <alpha, dz_J> vol with <dz_I, dz_J> the Leibniz
    # determinant of the covector pairing: the dz_Ic coefficient of
    # star(dz_J) is det(I, J) * vol coefficient * (dz_I ^ dz_Ic sign)
    for n in (1, 2, 3):
        sd = ah.SymplecticData(n)
        top = tuple(range(sd.nvars))
        vcoeff = sd.volume().c[(top, (0,) * sd.nvars)]
        for k in range(sd.nvars + 1):
            for J in combinations(top, k):
                want = ct.Form(sd.nvars, sd.nvars - k)
                for I in combinations(top, k):
                    det = sum(
                        koszul_sign(p, [1] * k)
                        * prod(_pair_single(sd, I[i], J[p[i]]) for i in range(k))
                        for p in permutations(range(k))
                    )
                    Ic = tuple(i for i in top if i not in I)
                    sign = koszul_sign(I + Ic, [1] * sd.nvars)
                    if det:
                        want = want + ct.Form(
                            sd.nvars, sd.nvars - k, {Ic: Poly.const(sd.nvars, det * vcoeff * sign)}
                        )
                b = ct.Form(sd.nvars, k, {J: Poly.const(sd.nvars, 1)})
                assert ah.symplectic_star(sd, b) == want


def test_star_of_degree_above_top_is_zero():
    sd = ah.SymplecticData(1)
    assert ah.symplectic_star(sd, ct.Form(2, 3)).is_zero()


def test_star_exchanges_differentials_up_to_parity():
    # star(d a) = (-1)^(k+1) L(star a) and star(L a) = (-1)^(k+1) d(star a)
    # on degree-k input; this is why the post-star complexes are dressed.
    for n in (1, 2):
        sd = ah.SymplecticData(n)
        for f in form_samples(sd):
            sgn = Fraction((-1) ** (f.k + 1))
            lhs = ah.symplectic_star(sd, ct.deRham_d(f))
            rhs = sgn * sd.lie(ah.symplectic_star(sd, f))
            assert (lhs - rhs).is_zero()
            lhs = ah.symplectic_star(sd, sd.lie(f))
            rhs = sgn * ct.deRham_d(ah.symplectic_star(sd, f))
            assert (lhs - rhs).is_zero()


def test_every_pipeline_arrow_is_a_chain_map():
    for n, total in ((1, 96), (2, 960)):
        sd = ah.SymplecticData(n)
        samples = [ah.SeriesForm.wrap(f) for f in form_samples(sd)]
        rep = ah.check_pipeline_chain_maps(sd, samples)
        assert rep.ok
        assert rep.checked == total


def test_dressed_differentials_square_to_zero():
    sd = ah.SymplecticData(1)
    for f in form_samples(sd, 3):
        a = ah.SeriesForm.wrap(f)
        assert ah.diff_tL_ud_dressed(sd, ah.diff_tL_ud_dressed(sd, a)).is_zero()
        assert ah.diff_ud_dressed(sd, ah.diff_ud_dressed(sd, a)).is_zero()


def test_series_weight_windows():
    sd = ah.SymplecticData(1)
    a = ah.SeriesForm.zero(2, (-2, 1))
    a._add(2, 0, sd.omega)  # above the t cap: ideal, dropped
    assert a.is_zero()
    with pytest.raises(WindowOverflow):
        a._add(-3, 0, sd.omega)
    # u has the fixed window [-4, 4], closed on both sides
    a._add(0, -4, sd.omega)
    a._add(0, 4, sd.omega)
    for ku in (-5, 5):
        with pytest.raises(WindowOverflow):
            a._add(0, ku, sd.omega)
    a._add(0, 9, 0 * sd.omega)  # a part that cancelled is no overflow
    # a run that walks u past its window must refuse, not wrap around:
    # exp(u i) on the volume of R^10 reaches u^5
    with pytest.raises(WindowOverflow, match="u\\^5"):
        ah.exp_contract_identity(5, "u")


def test_degree_twist_and_regrade():
    sd = ah.SymplecticData(2)
    dx = ah.SeriesForm.wrap(one_form(4, 0))
    assert ah.degree_twist(sd, dx).c == {(-1, 0, 1): one_form(4, 0)}
    assert ah.u_regrade(sd, dx).c == {(0, 1, 1): one_form(4, 0)}
    sd1 = ah.SymplecticData(1)
    w = ah.SeriesForm.wrap(sd1.omega)
    assert ah.degree_twist(sd1, w).c == {(1, 0, 2): Fraction(-1) * sd1.omega}


def test_flat_transport_of_one():
    for n in (1, 2):
        sd = ah.SymplecticData(n)
        one = ah.SeriesForm.wrap(ct.Form.function(Poly.const(sd.nvars, 1)))
        base = ct.Form.function(Poly.const(sd.nvars, 1))
        assert ah.nu0(sd, one) == expansion(sd, base, n)


def test_flat_transport_is_function_linear():
    for n in (1, 2):
        sd = ah.SymplecticData(n)
        x0 = Poly.var(sd.nvars, 0)
        for f in form_samples(sd, 1)[:36]:
            a = ah.SeriesForm.wrap(f)
            fa = ah.SeriesForm.wrap(f.__rmul__(x0))
            assert ah.nu0(sd, fa) == ah.nu0(sd, a).map_form(lambda g: g.__rmul__(x0))


def test_flat_transport_on_covectors():
    for n in (1, 2):
        sd = ah.SymplecticData(n)
        dx = one_form(sd.nvars, 0)
        got = ah.nu0(sd, ah.SeriesForm.wrap(dx))
        assert got == Fraction(-1) * expansion(sd, dx, n)
    # the scalar in front is NOT (-1)^degree in general: on the non-primitive
    # part of degree 3 at n=2 the transport is the plain identity.
    sd = ah.SymplecticData(2)
    b = ct.Form(4, 3, {(0, 1, 2): Poly.const(4, 1)})
    assert ah.nu0(sd, ah.SeriesForm.wrap(b)).c == {(0, 0, 3): b}


def test_flat_class_is_one_at_every_cap():
    for n in (1, 2):
        for nt in (2, 3, 4):
            r = ah.ahat_flat(n, nt)
            assert r.klass == {(0, 0): Fraction(1)}
            assert r.ok
            assert len(r.primitives) == n


def test_flat_primitives_are_certified():
    r = ah.ahat_flat(2, 3)
    assert r.primitives
    for (kt, ku, k), prim in r.primitives.items():
        assert k > 0
        assert ct.deRham_d(prim) == r.value.c[(kt, ku, k)]


def test_d_primitive_solves_and_refuses():
    sd = ah.SymplecticData(1)
    prim = ah.d_primitive(Fraction(-1) * sd.omega)
    assert ct.deRham_d(prim) == Fraction(-1) * sd.omega
    # x dy is not closed, so it has no primitive
    assert ah.d_primitive(ct.Form(2, 1, {(1,): Poly.var(2, 0)})) is None
    target = ct.Form(2, 2, {(0, 1): Poly.var(2, 0)})
    got = ah.d_primitive(target)
    assert ct.deRham_d(got) == target


def dense_rank(rows):
    """Row reduction over Fraction lists; independent of core.linalg."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    piv_row = 0
    for col in range(ncols):
        sel = None
        for r in range(piv_row, len(rows)):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
        pr = rows[piv_row]
        for r in range(len(rows)):
            if r != piv_row and rows[r][col]:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        piv_row += 1
        rank += 1
    return rank


def probe_oracle(pi, cap, nt):
    """Brute-force homology of (forms x t-powers, d + t L), graded."""
    nvars = pi.nvars
    basis = {}
    for j in range(nt):
        for k in range(nvars + 1):
            for key in combinations(range(nvars), k):
                for e in monomials_upto(nvars, cap):
                    basis.setdefault(k + 2 * j, []).append((j, key, e))
    pos = {v: p for vecs in basis.values() for p, v in enumerate(vecs)}
    ranks = {}
    for J, vecs in sorted(basis.items()):
        ncols = len(basis.get(J + 1, ()))
        rows = []
        for j, key, e in vecs:
            row = [Fraction(0)] * ncols
            form = ct.Form(nvars, len(key), {key: Poly.monomial(nvars, e)})
            for jj, img in ((j, ct.deRham_d(form)), (j + 1, ct.lie_derivative(pi, form))):
                if jj >= nt:
                    continue
                for (fkey, ee), v in img.c.items():
                    row[pos[(jj, fkey, ee)]] += v
            rows.append(row)
        ranks[J] = dense_rank(rows)
    return {
        J: len(vecs) - ranks.get(J, 0) - ranks.get(J - 1, 0)
        for J, vecs in basis.items()
    }


def test_probe_matches_brute_force_oracle():
    std = ct.MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    linear = ct.MultiVector(2, 2, {(0, 1): Poly.var(2, 0)})
    for pi in (std, linear):
        for nt in (2, 3):
            table = ah.spectral_degeneration_probe(pi, 2, nt)
            oracle = probe_oracle(pi, 2, nt)
            assert {r.grade: r.homology for r in table.rows} == oracle


def test_probe_standard_area_bivector_degenerates():
    std = ct.MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    for nt in (2, 3, 4):
        table = ah.spectral_degeneration_probe(std, 2, nt)
        assert table.degenerate
        assert [r.dim for r in table.rows][:2] == [6, 12]
    rows = ah.spectral_degeneration_probe(std, 2, 2).rows
    assert [(r.grade, r.homology, r.predicted) for r in rows] == [
        (0, 1, 1), (1, 4, 4), (2, 4, 4), (3, 4, 4), (4, 3, 3)]


def test_probe_vanishing_bivector_is_split():
    table = ah.spectral_degeneration_probe(ct.MultiVector(2, 2), 2, 2)
    assert table.degenerate


def test_probe_flags_the_linear_bivector():
    linear = ct.MultiVector(2, 2, {(0, 1): Poly.var(2, 0)})
    table = ah.spectral_degeneration_probe(linear, 2, 2)
    assert not table.degenerate
    assert [(r.grade, r.homology, r.predicted) for r in table.rows] == [
        (0, 1, 1), (1, 4, 4), (2, 1, 4), (3, 1, 4), (4, 3, 3)]


def test_probe_refuses_a_non_poisson_bivector_once_t_squared_is_kept():
    # [pi, pi] != 0, so (d + t L)^2 = t^2 L^2 is nonzero: nt = 2 truncates
    # it away, nt = 3 keeps it and the certified Betti loop refuses
    pi = ct.MultiVector(3, 2, {(0, 1): Poly.const(3, 1), (1, 2): Poly.var(3, 1)})
    table = ah.spectral_degeneration_probe(pi, 1, 2)
    assert [(r.grade, r.dim, r.homology, r.predicted) for r in table.rows] == [
        (0, 4, 1, 1), (1, 12, 6, 6), (2, 16, 6, 9), (3, 16, 3, 9), (4, 12, 5, 8),
        (5, 4, 3, 3)]
    with pytest.raises(ValueError) as e:
        ah.spectral_degeneration_probe(pi, 1, 3)
    assert str(e.value) == (
        "d^2 != 0: the echelon row of d_2 at pivot column 0 times d_3 is -1 at column 12"
    )


def test_probe_rejects_cap_unstable_transport():
    quad = ct.MultiVector(2, 2, {(0, 1): Poly.monomial(2, (2, 0))})
    with pytest.raises(ValueError):
        ah.spectral_degeneration_probe(quad, 2, 2)
