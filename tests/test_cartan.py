"""Multivector/form calculus: bracket axioms, Cartan identities, the
operator bridge, and the capped-model counterexamples that justify doing
this part of the calculus on honest polynomials."""
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from formality_lab.poly import Poly
from formality_lab.cartan import (
    Form,
    MultiVector,
    connes_mu,
    connes_mu_chain,
    contract,
    deRham_d,
    hkr,
    jacobiator,
    lie_derivative,
    pairing,
    poisson_bracket,
    schouten,
)
from formality_lab import hochschild, polydiff
from formality_lab.core.basis import add_term, vec
from formality_lab.algebras import FunctionModel, jet_algebra
from formality_lab.hochschild import Chain, chain_b, connes_B
from formality_lab.polydiff import bracket, cup, delta, delta_primitive
from formality_lab.suites import _rand_poly as rand_poly

from algebra_tools import apply
from jet_tables import from_polydiff


def coeff(x, key):
    """The polynomial coefficient of the frame ``key`` in a multivector or form."""
    return Poly(x.nvars, {e: v for (f, e), v in x.c.items() if f == key})


def rand_mv(rng, n, k, deg=1):
    return MultiVector(n, k, {key: rand_poly(rng, n, deg) for key in combinations(range(n), k)})


def rand_form(rng, n, k, deg=1):
    return Form(n, k, {key: rand_poly(rng, n, deg) for key in combinations(range(n), k)})


# ---------------------------------------------------------------- wedge / pairing


def test_constructor_refuses_a_coefficient_in_other_variables():
    # its exponents would be added to those of the element's own variables
    for build in (
        lambda: MultiVector(2, 1, {(0,): Poly.var(3, 2)}),
        lambda: Form(3, 0, {(): Poly.const(2, 1)}),
    ):
        with pytest.raises(ValueError):
            build()


def test_wedge_overlap_vanishes():
    a = MultiVector(2, 1, {(0,): Poly.const(2, 1)})
    assert a.wedge(a).is_zero()


def test_wedge_graded_commutativity():
    rng = random.Random(0)
    for _ in range(6):
        k, l = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        a, b = rand_mv(rng, 3, k), rand_mv(rng, 3, l)
        s = -1 if (k * l) % 2 else 1
        assert a.wedge(b) == s * b.wedge(a)


def test_wedge_associative():
    rng = random.Random(1)
    for _ in range(4):
        a, b, c = (rand_mv(rng, 3, rng.choice([0, 1, 2])) for _ in range(3))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_pairing_determinant_anchor():
    # <e0 ^ e1, dx0 ^ dx1> = +1 under the determinant rule
    mv = MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    fm = Form(2, 2, {(0, 1): Poly.const(2, 1)})
    assert pairing(mv, fm) == Poly.const(2, 1)


def test_contraction_composition_anchor():
    # i_{e0 ^ e1} = i_{e0} o i_{e1}, so on dx0 ^ dx1 it gives -1
    mv = MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    fm = Form(2, 2, {(0, 1): Poly.const(2, 1)})
    assert contract(mv, fm) == Form(2, 0, {(): Poly.const(2, -1)})


def test_pairing_vs_full_contraction_parity():
    # two conventions over the same data: they differ by (-1)^(k(k-1)/2)
    rng = random.Random(2)
    for k, n in ((2, 3), (3, 3)):
        mv, fm = rand_mv(rng, n, k), rand_form(rng, n, k)
        sign = -1 if (k * (k - 1) // 2) % 2 else 1
        assert coeff(contract(mv, fm), ()) == sign * pairing(mv, fm)


# ---------------------------------------------------------------- bracket axioms

# Oracle: Lie derivative of a multivector along a vector field, built from
# the derivation rules L_X f = X(f), L_X Y = vector-field commutator,
# L_X (P ^ Q) = L_X P ^ Q + P ^ L_X Q.


def vf_commutator(X, Y):
    n = X.nvars
    out = {}
    for v in range(n):
        p = Poly.zero(n)
        for w in range(n):
            p = p + coeff(X, (w,)) * coeff(Y, (v,)).diff(w)
            p = p - coeff(Y, (w,)) * coeff(X, (v,)).diff(w)
        if not p.is_zero():
            out[(v,)] = p
    return MultiVector(n, 1, out)


def lie_along_field(X, P):
    n = X.nvars
    out = MultiVector.zero(n, P.k)
    for key in dict.fromkeys(f for f, _ in P.c):
        cf = coeff(P, key)
        xc = Poly.zero(n)
        for w in range(n):
            xc = xc + coeff(X, (w,)) * cf.diff(w)
        if not xc.is_zero():
            out = out + MultiVector(n, P.k, {key: xc})
        for a, ia in enumerate(key):
            for v in range(n):
                coef = coeff(X, (v,)).diff(ia)
                if coef.is_zero():
                    continue
                newtup = key[:a] + (v,) + key[a + 1 :]
                if len(set(newtup)) != len(newtup):
                    continue
                inv = sum(
                    1
                    for s in range(len(newtup))
                    for t in range(s + 1, len(newtup))
                    if newtup[s] > newtup[t]
                )
                sg = -1 if inv % 2 else 1
                out = out + MultiVector(n, P.k, {tuple(sorted(newtup)): (-sg) * (cf * coef)})
    return out


def test_bracket_on_vector_field_and_function():
    rng = random.Random(3)
    for _ in range(6):
        X = rand_mv(rng, 3, 1)
        f = rand_poly(rng, 3, 2)
        want = Poly.zero(3)
        for w in range(3):
            want = want + coeff(X, (w,)) * f.diff(w)
        got = schouten(X, MultiVector.function(f))
        assert coeff(got, ()) == want


def test_bracket_of_vector_fields_is_commutator():
    rng = random.Random(4)
    for _ in range(6):
        X, Y = rand_mv(rng, 3, 1), rand_mv(rng, 3, 1)
        assert schouten(X, Y) == vf_commutator(X, Y)


def test_bracket_is_lie_derivative_hand_cases():
    # X = x d/dx against the coordinate 2-field: scaling eats one x
    X = MultiVector(2, 1, {(0,): Poly.var(2, 0)})
    P = MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    assert schouten(X, P) == MultiVector(2, 2, {(0, 1): Poly.const(2, -1)})
    # X = y d/dx: the two slot corrections cancel
    X2 = MultiVector(2, 1, {(0,): Poly.var(2, 1)})
    assert schouten(X2, P).is_zero()


def test_bracket_is_lie_derivative_higher_degree():
    rng = random.Random(5)
    for _ in range(5):
        X = rand_mv(rng, 3, 1)
        for k in (2, 3):
            P = rand_mv(rng, 3, k)
            assert schouten(X, P) == lie_along_field(X, P)


def test_functions_bracket_to_zero():
    f = MultiVector.function(Poly.var(3, 0) * Poly.var(3, 1))
    g = MultiVector.function(Poly.var(3, 2))
    assert schouten(f, g).is_zero()


def test_bracket_shifted_antisymmetry():
    rng = random.Random(6)
    for _ in range(8):
        a, b = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        A, B = rand_mv(rng, 3, a), rand_mv(rng, 3, b)
        s = -1 if ((a - 1) * (b - 1)) % 2 == 0 else 1
        assert schouten(A, B) == s * schouten(B, A)


def test_bracket_shifted_jacobi():
    rng = random.Random(7)
    for _ in range(6):
        a, b, c = (rng.choice([1, 2]) for _ in range(3))
        A, B, C = rand_mv(rng, 3, a), rand_mv(rng, 3, b), rand_mv(rng, 3, c)
        s1 = -1 if ((a - 1) * (c - 1)) % 2 else 1
        s2 = -1 if ((b - 1) * (a - 1)) % 2 else 1
        s3 = -1 if ((c - 1) * (b - 1)) % 2 else 1
        total = (
            s1 * schouten(A, schouten(B, C))
            + s2 * schouten(B, schouten(C, A))
            + s3 * schouten(C, schouten(A, B))
        )
        assert total.is_zero()


def test_bracket_wedge_leibniz():
    rng = random.Random(8)
    for _ in range(8):
        a = rng.choice([1, 2, 3])
        f = rng.choice([0, 1, 2])
        g = rng.choice([0, 1, 2])
        A, F, G = rand_mv(rng, 3, a), rand_mv(rng, 3, f), rand_mv(rng, 3, g)
        s = -1 if ((a - 1) * f) % 2 else 1
        assert schouten(A, F.wedge(G)) == schouten(A, F).wedge(G) + s * F.wedge(schouten(A, G))


# ---------------------------------------------------------------- Cartan identities


def test_d_squared_zero():
    rng = random.Random(9)
    for k in (0, 1, 2):
        assert deRham_d(deRham_d(rand_form(rng, 3, k, 2))).is_zero()


def test_d_hand_value():
    # d(x dy) = dx ^ dy
    alpha = Form(2, 1, {(1,): Poly.var(2, 0)})
    assert deRham_d(alpha) == Form(2, 2, {(0, 1): Poly.const(2, 1)})


def test_contraction_is_wedge_antihomomorphism():
    rng = random.Random(10)
    for _ in range(8):
        p, q = rng.choice([1, 2]), rng.choice([1, 2])
        P, Q = rand_mv(rng, 3, p), rand_mv(rng, 3, q)
        al = rand_form(rng, 3, 3)
        assert contract(P.wedge(Q), al) == contract(P, contract(Q, al))


def test_lie_derivative_hand_value():
    # L over the coordinate 2-field of (x dy): only the i(d .) leg survives
    pi = MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    alpha = Form(2, 1, {(1,): Poly.var(2, 0)})
    assert lie_derivative(pi, alpha) == Form(2, 0, {(): Poly.const(2, 1)})


def test_lie_derivative_respects_bracket():
    rng = random.Random(11)
    for _ in range(6):
        p, q = rng.choice([1, 2]), rng.choice([1, 2])
        kf = rng.choice([1, 2, 3])
        P, Q = rand_mv(rng, 3, p), rand_mv(rng, 3, q)
        al = rand_form(rng, 3, kf)
        s = -1 if ((1 - p) * (1 - q)) % 2 else 1
        lhs = lie_derivative(schouten(P, Q), al)
        rhs = lie_derivative(P, lie_derivative(Q, al)) - s * lie_derivative(
            Q, lie_derivative(P, al)
        )
        assert lhs == rhs


# ---------------------------------------------------------------- Poisson layer


def test_poisson_bracket_standard_symplectic():
    pi = MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    assert poisson_bracket(pi, x, y) == Poly.const(2, 1)
    assert poisson_bracket(pi, y, x) == Poly.const(2, -1)
    assert poisson_bracket(pi, x, x).is_zero()


def test_jacobiator_zero_for_constant_field():
    pi = MultiVector(3, 2, {(0, 1): Poly.const(3, 1), (1, 2): Poly.const(3, 2)})
    assert jacobiator(pi).is_zero()


def test_jacobiator_detects_non_poisson():
    # e0^e1 + x*(e0^e2) fails the closure equation with a constant defect
    pi = MultiVector(3, 2, {(0, 1): Poly.const(3, 1), (0, 2): Poly.var(3, 0)})
    assert jacobiator(pi) == MultiVector(3, 3, {(0, 1, 2): Poly.const(3, 1)})


def test_cyclic_sum_equals_jacobiator_pairing():
    rng = random.Random(12)
    for _ in range(5):
        pi = rand_mv(rng, 3, 2)
        f, g, h = (rand_poly(rng, 3, 2) for _ in range(3))
        lhs = (
            poisson_bracket(pi, f, poisson_bracket(pi, g, h))
            + poisson_bracket(pi, g, poisson_bracket(pi, h, f))
            + poisson_bracket(pi, h, poisson_bracket(pi, f, g))
        )
        rhs = pairing(
            jacobiator(pi),
            deRham_d(Form.function(f))
            .wedge(deRham_d(Form.function(g)))
            .wedge(deRham_d(Form.function(h))),
        )
        assert lhs == rhs


# ---------------------------------------------------------------- operator bridge


def test_hkr_zero_vector_is_element():
    f = Poly.var(2, 0) * Poly.var(2, 1)
    op = hkr(MultiVector.function(f))
    assert op.arity == 0
    assert op.apply([]) == f


def test_hkr_vector_field_is_derivation_value():
    rng = random.Random(13)
    X = rand_mv(rng, 2, 1, 2)
    f = rand_poly(rng, 2, 3)
    want = Poly.zero(2)
    for w in range(2):
        want = want + coeff(X, (w,)) * f.diff(w)
    assert hkr(X).apply([f]) == want


def test_hkr_bivector_gives_poisson_bracket():
    rng = random.Random(14)
    for _ in range(4):
        pi = rand_mv(rng, 2, 2, 2)
        f, g = rand_poly(rng, 2, 2), rand_poly(rng, 2, 2)
        assert hkr(pi).apply([f, g]) == poisson_bracket(pi, f, g)


def test_hkr_image_is_closed():
    rng = random.Random(15)
    for _ in range(6):
        k = rng.choice([1, 2])
        pi = rand_mv(rng, 2, k, 2)
        assert delta(hkr(pi)).is_zero()
    for _ in range(3):
        pi = rand_mv(rng, 3, rng.choice([2, 3]), 1)
        assert delta(hkr(pi)).is_zero()


def test_delta_primitive_roundtrip():
    rng = random.Random(16)
    for _ in range(3):
        X = polydiff.PolyDiffOperator(2, 2)
        for _ in range(3):
            a1 = tuple(rng.randint(0, 2) for _ in range(2))
            a2 = tuple(rng.randint(0, 2) for _ in range(2))
            add_term(X.c, (a1, a2), rand_poly(rng, 2, 2))
        T = delta(X)
        if T.is_zero():
            continue
        Y = delta_primitive(T)
        assert Y is not None and delta(Y) == T


def test_delta_primitive_refuses_nontrivial_cocycle():
    pi = MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    assert delta_primitive(hkr(pi)) is None


def test_bracket_compatibility_exact_two_vars():
    # two variables admit no 3-fields, so the operator bracket of two
    # closed images must itself be exact
    rng = random.Random(17)
    for _ in range(3):
        pi = MultiVector(2, 2, {(0, 1): rand_poly(rng, 2, 2)})
        psi = MultiVector(2, 2, {(0, 1): rand_poly(rng, 2, 2)})
        assert schouten(pi, psi).is_zero()
        T = bracket(hkr(pi), hkr(psi))
        Y = delta_primitive(T)
        assert Y is not None and delta(Y) == T


def test_cup_compatibility_exact_two_vars():
    rng = random.Random(18)
    for _ in range(3):
        pi = MultiVector(2, 2, {(0, 1): rand_poly(rng, 2, 1)})
        psi = MultiVector(2, 2, {(0, 1): rand_poly(rng, 2, 1)})
        assert pi.wedge(psi).is_zero()
        T = cup(hkr(pi), hkr(psi))
        Y = delta_primitive(T)
        assert Y is not None and delta(Y) == T


def test_cup_compatibility_exact_three_vars():
    rng = random.Random(19)
    pi = rand_mv(rng, 3, 2, 1)
    psi = rand_mv(rng, 3, 2, 1)
    T = hkr(pi.wedge(psi)) - cup(hkr(pi), hkr(psi))
    Y = delta_primitive(T)
    assert Y is not None and delta(Y) == T


def test_bracket_compatibility_three_vars_needs_rescale():
    # with the plain determinant identification the operator bracket
    # transports the multivector bracket only after the factorial/parity
    # rescale; at bidegree (2,2) the factor is -2/3, and no primitive
    # exists without it
    rng = random.Random(20)
    pi = rand_mv(rng, 3, 2, 1)
    psi = rand_mv(rng, 3, 2, 1)
    G = bracket(hkr(pi), hkr(psi))
    S = hkr(schouten(pi, psi))
    assert delta(G).is_zero() and delta(S).is_zero()
    T = G + Fraction(2, 3) * S
    Y = delta_primitive(T)
    assert Y is not None and delta(Y) == T
    assert delta_primitive(G - S) is None


# ---------------------------------------------------------------- chains -> forms


def test_mu_values():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    assert connes_mu([x * y]) == Form.function(x * y)
    assert connes_mu([x, y]) == Form(2, 1, {(1,): x})
    # 1/2! on the two-step: 1 dx ^ dy
    assert connes_mu([Poly.const(2, 1), x, y]) == Form(
        2, 2, {(0, 1): Poly.const(2, Fraction(1, 2))}
    )


def _monomial_chains(model, algebra, maxn, maxdeg):
    for nn in range(0, maxn + 1):
        for tup in product(range(model.dim), repeat=nn + 1):
            if sum(sum(model.monomials[i]) for i in tup) <= maxdeg:
                yield Chain.elementary(algebra, tup)


def test_mu_kills_boundaries():
    model = FunctionModel(2, 4)
    A = jet_algebra(2, 4)
    count = 0
    for ch in _monomial_chains(model, A, 3, 3):
        assert connes_mu_chain(model, chain_b(ch)).is_zero()
        count += 1
    assert count > 200


def test_mu_turns_cyclic_operator_into_d():
    model = FunctionModel(2, 4)
    A = jet_algebra(2, 4)
    for ch in _monomial_chains(model, A, 3, 3):
        lhs = connes_mu_chain(model, connes_B(ch))
        rhs = deRham_d(connes_mu_chain(model, ch))
        assert lhs == rhs


def test_capped_tabulation_breaks_closedness():
    """The coordinate 2-field operator is closed symbolically, but its
    tabulation on the capped model is not: the cap boundary eats terms.
    This is why the operator calculus here runs on honest polynomials."""
    model = FunctionModel(2, 2)
    A = jet_algebra(2, 2)
    pi = MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    assert delta(hkr(pi)).is_zero()
    Dtab = from_polydiff(hkr(pi), model, A)
    dd = hochschild.delta(Dtab)
    assert not dd.is_zero()
    y = model.index[(0, 1)]
    xy = model.index[(1, 1)]
    assert apply(dd, [vec((y, 1)), vec((y, 1)), vec((xy, 1))])


def test_capped_chain_breaks_mu_boundary_identity():
    model = FunctionModel(2, 4)
    A = jet_algebra(2, 4)
    one = model.index[(0, 0)]
    y = model.index[(0, 1)]
    y4 = model.index[(0, 4)]
    ch = Chain.elementary(A, (one, y, y4))  # total degree 5 > cap
    assert not connes_mu_chain(model, chain_b(ch)).is_zero()
