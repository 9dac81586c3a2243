import random
import re
from fractions import Fraction
from itertools import product

import pytest

from formality_lab import suites
from formality_lab.algebras import (
    dual_numbers,
    trunc_poly_algebra,
    mat2_unital,
    FunctionModel,
    jet_algebra,
)
from formality_lab.cli import _execute
from formality_lab.core.basis import vec
from formality_lab.hochschild import (
    Cochain,
    Chain,
    bracket,
    cup,
    delta,
    basis_cochains,
    chain_b,
    connes_B,
    lie_action,
    homology_betti,
    cohomology_betti,
)
from formality_lab.manifest import parse_manifest
from formality_lab.poly import Poly
from formality_lab.polydiff import PolyDiffOperator

from algebra_tools import apply, element, mul
from jet_tables import from_polydiff, poly_to_vec


def _rand_cochain(A, arity, rng, nterms=3):
    basis = basis_cochains(A, arity)
    c = Cochain.zero(A, arity)
    for e in rng.sample(basis, min(nterms, len(basis))):
        c = c + rng.choice([1, 2, -1]) * e
    return c


def _all_chains(A, n, reduced=False):
    rest = A.bar_indices() if reduced else list(range(A.dim))
    for head in range(A.dim):
        for tail in product(rest, repeat=n):
            yield Chain.elementary(A, (head,) + tail)


# -- cochain algebra -----------------------------------------------------------

def test_multiplication_cochain_is_square_zero():
    for A in (dual_numbers(), trunc_poly_algebra(2), mat2_unital()):
        m = Cochain.multiplication(A)
        assert bracket(m, m).is_zero()


def test_delta_squared_is_zero():
    rng = random.Random(11)
    A = trunc_poly_algebra(2)
    for arity in (0, 1, 2):
        D = _rand_cochain(A, arity, rng)
        assert delta(delta(D)).is_zero()


def test_delta_of_element_is_commutator():
    A = mat2_unital()
    e12 = element(A, vec((1, 1)))
    d = delta(e12)
    # (delta a)(b) = ab - ba
    for i in range(A.dim):
        b = vec((i, 1))
        expect = mul(A, vec((1, 1)), b)
        for k, v in mul(A, b, vec((1, 1))).items():
            expect[k] = expect.get(k, Fraction(0)) - v
        expect = {k: v for k, v in expect.items() if v}
        assert apply(d, [b]) == expect


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(5)
    A = dual_numbers()
    ops = [_rand_cochain(A, a, rng) for a in (1, 2, 2, 3)]
    for D in ops:
        for E in ops:
            p, q = D.lie_degree, E.lie_degree
            rhs = bracket(E, D)
            if (p * q) % 2 == 0:
                rhs = -rhs
            assert bracket(D, E) == rhs
    for D, E, F in [(ops[0], ops[1], ops[2]), (ops[1], ops[2], ops[3])]:
        pa, pb, pc = D.lie_degree, E.lie_degree, F.lie_degree
        z = (
            (-1) ** (pa * pc) * bracket(D, bracket(E, F))
            + (-1) ** (pb * pa) * bracket(E, bracket(F, D))
            + (-1) ** (pc * pb) * bracket(F, bracket(D, E))
        )
        assert z.is_zero()


def test_cup_associative_and_leibniz():
    rng = random.Random(3)
    A = trunc_poly_algebra(2)
    D = _rand_cochain(A, 1, rng)
    E = _rand_cochain(A, 2, rng)
    F = _rand_cochain(A, 1, rng)
    assert cup(cup(D, E), F) == cup(D, cup(E, F))
    for X, Y in [(D, E), (E, F), (D, F)]:
        s = -1 if X.arity % 2 else 1
        assert delta(cup(X, Y)) == cup(delta(X), Y) + s * cup(X, delta(Y))


def test_reduced_cochains_form_subcomplex():
    for A in (dual_numbers(), trunc_poly_algebra(2)):
        for arity in (1, 2):
            for e in basis_cochains(A, arity, reduced=True):
                assert e.is_reduced()
                assert delta(e).is_reduced()


def test_apply_multilinearity():
    A = dual_numbers()
    m = Cochain.multiplication(A)
    x = vec((1, 1))
    one = vec((0, 1))
    assert apply(m, [one, x]) == x
    assert apply(m, [x, x]) == {}
    two_x = vec((1, 2))
    assert apply(m, [two_x, one]) == two_x


# -- tabulation of polydifferential operators -------------------------------------

def test_from_polydiff_multiplication():
    F = FunctionModel(1, 3)
    A = F.as_structure_algebra()
    m_sym = PolyDiffOperator.multiplication(1)
    assert from_polydiff(m_sym, F, A) == Cochain.multiplication(A)


def test_from_polydiff_evaluation_consistency():
    F = FunctionModel(2, 3)
    A = F.as_structure_algebra()
    op = PolyDiffOperator(2, 2, {((1, 0), (0, 1)): Poly.var(2, 0)})
    tab = from_polydiff(op, F, A)
    x2y = Poly(2, {(2, 1): 1})
    xy = Poly(2, {(1, 1): 1})
    got = apply(tab, [poly_to_vec(F, x2y), poly_to_vec(F, xy)])
    want = poly_to_vec(F, op.apply([x2y, xy]))
    assert got == want


# -- chains ----------------------------------------------------------------------

def test_b_squared_zero_exhaustive():
    A = dual_numbers()
    for n in range(2, 5):
        for ch in _all_chains(A, n):
            assert chain_b(chain_b(ch)).is_zero()


def test_b_equals_action_of_multiplication():
    for A in (dual_numbers(), trunc_poly_algebra(2), mat2_unital()):
        m = Cochain.multiplication(A)
        for n in range(1, 4):
            for ch in _all_chains(A, n):
                assert chain_b(ch) == lie_action(m, ch)


def test_connes_B_squares_to_zero():
    A = dual_numbers()
    for n in range(0, 4):
        for ch in _all_chains(A, n, reduced=True):
            assert connes_B(connes_B(ch)).is_zero()


def test_b_B_anticommute():
    A = dual_numbers()
    for n in range(1, 4):
        for ch in _all_chains(A, n, reduced=True):
            lhs = chain_b(connes_B(ch)).normalized() + connes_B(
                chain_b(ch).normalized()
            )
            assert lhs.is_zero()


def test_action_commutator_matches_bracket():
    rng = random.Random(23)
    A = dual_numbers()
    pairs = [(1, 1), (1, 2), (2, 2), (2, 3)]
    for d, e in pairs:
        D = _rand_cochain(A, d, rng)
        E = _rand_cochain(A, e, rng)
        DE = bracket(D, E)
        sgn = (-1) ** ((d - 1) * (e - 1))
        for n in range(max(d, e), 5):
            for ch in _all_chains(A, n):
                lhs = lie_action(D, lie_action(E, ch)) - sgn * lie_action(
                    E, lie_action(D, ch)
                )
                assert lhs == lie_action(DE, ch)


def test_action_commutes_with_B_for_reduced_cochains():
    rng = random.Random(29)
    A = dual_numbers()
    # [B, L_D] = B L_D - (-1)^(d-1) L_D B = 0 on the reduced complex
    for d in (1, 2, 3):
        D = _rand_cochain(A, d, rng).reduce()
        s = (-1) ** (d - 1)
        for n in range(d - 1, 4):
            for ch in _all_chains(A, n, reduced=True):
                t1 = connes_B(lie_action(D, ch).normalized())
                t2 = lie_action(D, connes_B(ch)).normalized()
                assert (t1 - s * t2).is_zero()


def test_action_on_too_short_chains_is_zero():
    A = dual_numbers()
    D = Cochain.multiplication(A)
    tri = bracket(D, basis_cochains(A, 2)[1])  # arity 3
    ch = Chain.elementary(A, (1, 1))  # degree 1 < arity - 1
    assert lie_action(tri, ch).is_zero()


# -- homology regressions ------------------------------------------------------------

def test_dual_numbers_betti():
    A = dual_numbers()
    assert homology_betti(A, 4, reduced=True) == [2, 1, 1, 1, 1]
    assert cohomology_betti(A, 4, reduced=True) == [2, 1, 1, 1, 1]
    # the unreduced complexes agree (smaller window: they grow fast)
    assert homology_betti(A, 3, reduced=False) == [2, 1, 1, 1]
    assert cohomology_betti(A, 3, reduced=False) == [2, 1, 1, 1]


def test_trunc_poly_betti():
    A = trunc_poly_algebra(2)
    assert homology_betti(A, 4, reduced=True) == [3, 2, 2, 2, 2]
    assert cohomology_betti(A, 4, reduced=True) == [3, 2, 2, 2, 2]


def test_matrix_algebra_betti_is_morita_trivial():
    A = mat2_unital()
    assert homology_betti(A, 3, reduced=True) == [1, 0, 0, 0]
    assert cohomology_betti(A, 2, reduced=True) == [1, 0, 0]


def test_jet_algebra_betti_degree_zero():
    # center of a commutative algebra is the whole algebra
    A = jet_algebra(2, 2)
    assert cohomology_betti(A, 0, reduced=True) == [6]


# -- complexes that are not complexes ------------------------------------------------

def _non_associative():
    """Q[x]/(x^3) with x * x^2 changed from 0 to x^2: still unital, but
    (x x) x = 0 while x (x x) = x^2, so b and delta do not square to zero.
    ``StructureAlgebra`` refuses such a table, so it is changed after the
    algebra is built."""
    A = trunc_poly_algebra(2)
    A.table[(1, 2)] = {2: 1}
    return A


# b_1 (x (x) x^2) = x^2 and b_1 (x^2 (x) x) = -x^2 make the echelon row of
# b_1 (one row per basis element of C_0) the x^2 row {x (x) x^2: 1,
# x^2 (x) x: -1}.  Times b_2 at x (x) x (x) x, whose boundary is
# 2 x^2 (x) x - x (x) x^2, it is -1 - 2 = -3.
WITNESSES = [
    (homology_betti, True,
     "b^2 != 0: the echelon row of b_1 at pivot column 3 times b_2 is -3 at column 4"),
    (homology_betti, False,
     "b^2 != 0: the echelon row of b_1 at pivot column 5 times b_2 is -3 at column 13"),
    (cohomology_betti, True,
     "delta^2 != 0: the echelon row of delta_0 at pivot column 5 times delta_1 is -1 at column 8"),
    (cohomology_betti, False,
     "delta^2 != 0: the echelon row of delta_0 at pivot column 8 times delta_1 is -1 at column 22"),
]
# delta's columns index the chains A* (x) A^(x)n it is dual to: in both
# flavors the pivot is at phi_(x^2) (x) x^2 and the entry at
# phi_(x^2) (x) x (x) x, phi_k the basis of A* dual to the basis of A.


@pytest.mark.parametrize("fn,reduced,witness", WITNESSES)
def test_square_nonzero_raises_with_an_exact_witness(fn, reduced, witness):
    A = _non_associative()
    assert A.unit_index == 0
    assert mul(A, mul(A, {1: 1}, {1: 1}), {1: 1}) != mul(A, {1: 1}, mul(A, {1: 1}, {1: 1}))
    for top in (1, 2, 3):
        with pytest.raises(ValueError) as e:
            fn(A, top, reduced=reduced)
        assert str(e.value) == witness
    # degree 0 needs only the first map, so nothing composes yet
    assert len(fn(A, 0, reduced=reduced)) == 1


def test_betti_job_on_a_non_associative_algebra_fails_with_the_witness(monkeypatch):
    monkeypatch.setitem(suites._PRESET_ALGEBRAS, "non-associative", _non_associative)
    text = "jobs:\n  - {op: betti, name: j, algebra: non-associative, top: 2}\n"
    mf = parse_manifest(text, known_ops=suites.OPS, expand=suites.expand_suite)
    (job,) = mf.jobs
    suites.check_job_args(job, mf)
    out = _execute(job, mf)
    assert out.status == "fail"
    assert out.summary == "betti: ValueError"
    assert out.data == {}
    (witness,) = out.witnesses
    frame = r"formality_lab\.core\.linalg\.betti:\d+"
    assert re.fullmatch(rf"ValueError at {frame}: " + re.escape(WITNESSES[0][2]), witness)
