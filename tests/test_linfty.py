"""Homotopy-Lie checkers: bracket tables, morphisms, modules, flatness."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from formality_lab import cartan as ct
from formality_lab import hochschild as hh
from formality_lab import linfty as lf
from formality_lab import polydiff as pd
from formality_lab import suites
from formality_lab.algebras import FunctionModel, dual_numbers
from formality_lab.core.signs import decalage_sign, koszul_sign, unshuffle_sign
from formality_lab.linfty import CheckReport, _accumulate
from formality_lab.poly import Poly, monomials_upto

from jet_tables import from_polydiff
from parent_module import act


def mv(n, k, entries):
    return ct.MultiVector(n, k, entries)


ONE2 = Poly.const(2, 1)
X2 = Poly.var(2, 0)
Y2 = Poly.var(2, 1)
# the wedge and the Schouten bracket as accumulating kernels, in 2 variables,
# and as the frame rules the odd-parameter extension takes
KERNELS = (ct.wedge_into, ct.schouten_into, ct.MultiVector.maker(2))
RULES = (ct._wedge_rule, ct._schouten_rule)


def schouten_generators():
    return [
        ("f", ct.MultiVector.function(X2)),
        ("X", mv(2, 1, {(0,): Y2})),
        ("Y", mv(2, 1, {(1,): ONE2})),
        ("pi", mv(2, 2, {(0, 1): ONE2})),
        ("rho", mv(2, 2, {(0, 1): X2})),
    ]


# -- structure checks -------------------------------------------------------------


def test_cochain_dgla_passes():
    S = suites._cochain_dgla(dual_numbers())
    rep = lf.check_linfty(S, max_arity=3)
    assert rep.ok
    assert rep.checked == 454


def test_perturbed_differential_fails_with_witness():
    A = dual_numbers()
    S = suites._cochain_dgla(A)
    E = hh.basis_cochains(A, 1)[1]
    bad = lf.dgla(
        lambda c: c.arity - 1,
        lambda c: hh.delta(c) + hh.cup(E, c),
        hh.bracket,
        S.generators[:6],
    )
    rep = lf.check_linfty(bad, max_arity=2)
    assert not rep.ok
    names, arity, res = rep.witnesses[0]
    assert arity == 1
    assert not res.is_zero()


def test_polydiff_dgla_passes():
    second = pd.PolyDiffOperator(2, 1)
    second.c[((2, 0),)] = ONE2
    bi = pd.PolyDiffOperator(2, 2)
    bi.c[((1, 0), (0, 1))] = Poly.const(2, 2)
    gens = [
        ("dx", pd.PolyDiffOperator(2, 1, {((1, 0),): ONE2})),
        ("dxx", second),
        ("bi", bi),
        ("m", pd.PolyDiffOperator.multiplication(2)),
    ]
    S = lf.dgla(lambda op: op.arity - 1, pd.delta, pd.bracket, gens)
    rep = lf.check_linfty(S, max_arity=3)
    assert rep.ok


def test_multivector_bracket_passes():
    S = suites._schouten_structure(schouten_generators())
    rep = lf.check_linfty(S, max_arity=3)
    assert rep.ok


# -- modules ----------------------------------------------------------------------


def chains_module(A, S):
    return lf.LInftyModule(
        S,
        lambda ch: -ch.n,
        {0: lambda xs, m: hh.chain_b(m), 1: lambda xs, m: hh.lie_action(xs[0], m)},
        suites._chain_samples(A),
    )


def test_chains_are_a_module_over_cochains():
    A = dual_numbers()
    S = suites._cochain_dgla(A)
    M = chains_module(A, S)
    rep = lf.check_module(M, max_arity=2)
    assert rep.ok
    assert rep.checked == 1274


def form_samples():
    return [
        ("one", ct.Form.function(ONE2)),
        ("fx", ct.Form.function(X2)),
        ("dx", ct.Form(2, 1, {(0,): ONE2})),
        ("xdy", ct.Form(2, 1, {(1,): X2})),
        ("vol", ct.Form(2, 2, {(0, 1): ONE2})),
    ]


def test_forms_are_a_module_under_lie_transport():
    S = suites._schouten_structure(schouten_generators())
    for with_d in (True, False):
        acts = {1: lambda xs, m: ct.lie_derivative(xs[0], m)}
        if with_d:
            acts[0] = lambda xs, m: ct.deRham_d(m)
        M = lf.LInftyModule(S, lambda a: a.k, acts, form_samples())
        rep = lf.check_module(M, max_arity=2)
        assert rep.ok


def test_rescaled_differential_breaks_module_identity():
    # doubling the boundary scales the nested terms but not the
    # bracket-into-action terms, so the defect is the honest transport
    A = dual_numbers()
    S = suites._cochain_dgla(A)
    M = lf.LInftyModule(S, lambda ch: -ch.n,
                        {0: lambda xs, m: 2 * hh.chain_b(m),
                         1: lambda xs, m: hh.lie_action(xs[0], m)},
                        suites._chain_samples(A))
    rep = lf.check_module(M, max_arity=1)
    assert not rep.ok
    for names, arity, res in rep.witnesses:
        assert arity == 1
        assert not res.is_zero()


# -- morphism checkers ------------------------------------------------------------
#
# L-infinity morphisms and module morphisms, checked identity by identity on
# supplied tuples.  The program runs no morphism; these are the tools the
# obstruction and transport-gap tests below use.


class LInftyMorphism:
    """maps[n] : n source elements -> target element, degree 1-n."""

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = dict(maps)

    def apply(self, n, args):
        fn = self.maps.get(n)
        if fn is None:
            return None
        return fn(list(args))


def ordered_partitions(indices, k):
    """All ordered k-tuples of disjoint increasing blocks covering indices."""
    indices = tuple(indices)
    if k == 0:
        if not indices:
            yield ()
        return
    if k == 1:
        if indices:
            yield (indices,)
        return
    n = len(indices)
    for size in range(1, n - k + 2):
        for block in combinations(indices, size):
            remaining = tuple(i for i in indices if i not in block)
            for tail in ordered_partitions(remaining, k - 1):
                yield (block,) + tail


def morphism_residual(f, elements):
    """Difference of the two sides of the morphism identity on one tuple."""
    S, T = f.source, f.target
    n = len(elements)
    degs = [S.degree(x) for x in elements]

    lhs = None
    for p in range(1, n + 1):
        if p not in S.brackets:
            continue
        for I in combinations(range(n), p):
            block = [elements[i] for i in I]
            inner = S.apply(p, block)
            if inner is None or inner.is_zero():
                continue
            rest_idx = [i for i in range(n) if i not in I]
            eps = unshuffle_sign(n, I, degs, shift=1)
            th_in = decalage_sign([degs[i] for i in I])
            ideg = sum(degs[i] for i in I) + 2 - p
            outer_degs = [ideg] + [degs[i] for i in rest_idx]
            th_out = decalage_sign(outer_degs)
            term = f.apply(len(rest_idx) + 1, [inner] + [elements[i] for i in rest_idx])
            lhs = _accumulate(lhs, eps * th_in * th_out, term)

    rhs = None
    for k in range(1, n + 1):
        if k not in T.brackets:
            continue
        inv_k = Fraction(1, 1)
        for j in range(2, k + 1):
            inv_k /= j
        for blocks in ordered_partitions(range(n), k):
            perm = [i for b in blocks for i in b]
            eps = _perm_sign_shifted(perm, degs)
            coeff = eps * inv_k
            args = []
            arg_degs = []
            dead = False
            for b in blocks:
                fb = f.apply(len(b), [elements[i] for i in b])
                if fb is None or fb.is_zero():
                    dead = True
                    break
                coeff *= decalage_sign([degs[i] for i in b])
                args.append(fb)
                arg_degs.append(sum(degs[i] for i in b) + 1 - len(b))
            if dead:
                continue
            coeff *= decalage_sign(arg_degs)
            rhs = _accumulate(rhs, coeff, T.apply(k, args))

    if lhs is None:
        return rhs if rhs is None else (-1) * rhs
    if rhs is None:
        return lhs
    return lhs - rhs


def _perm_sign_shifted(perm, degs):
    """Koszul sign (shift 1) of rearranging 0..n-1 into ``perm``."""
    return koszul_sign(tuple(perm), tuple(degs), shift=1)


def check_morphism(f, max_arity=3, tuples=None):
    witnesses = []
    checked = 0
    if tuples is None:
        tuples = []
        for n in range(1, max_arity + 1):
            tuples.extend(combinations_with_replacement(f.source.generators, n))
    for tup in tuples:
        names = [t[0] for t in tup]
        elems = [t[1] for t in tup]
        res = morphism_residual(f, elems)
        checked += 1
        if res is not None and not res.is_zero():
            witnesses.append((tuple(names), len(elems), res))
    return CheckReport(checked, witnesses, max_arity)


class LInftyModuleMorphism:
    """maps[q] : (q algebra elements, M element) -> N element, degree -q."""

    def __init__(self, source_module, target_module, maps):
        if source_module.structure is not target_module.structure:
            raise ValueError("modules must share the algebra structure")
        self.source = source_module
        self.target = target_module
        self.maps = dict(maps)

    def apply(self, q, xs, m):
        fn = self.maps.get(q)
        if fn is None:
            return None
        return fn(list(xs), m)


def module_morphism_residual(phi, elements, m):
    S = phi.source.structure
    M, N = phi.source, phi.target
    n = len(elements)
    degs = [S.degree(x) for x in elements]
    mdeg = M.mdegree(m)
    acc = None

    # bracket into the morphism
    for p in range(1, n + 1):
        if p not in S.brackets:
            continue
        for I in combinations(range(n), p):
            inner = S.apply(p, [elements[i] for i in I])
            if inner is None or inner.is_zero():
                continue
            rest_idx = [i for i in range(n) if i not in I]
            eps = unshuffle_sign(n, I, degs, shift=1)
            th_in = decalage_sign([degs[i] for i in I])
            ideg = sum(degs[i] for i in I) + 2 - p
            th_out = decalage_sign([ideg] + [degs[i] for i in rest_idx] + [mdeg])
            term = phi.apply(
                len(rest_idx) + 1, [inner] + [elements[i] for i in rest_idx], m
            )
            acc = _accumulate(acc, eps * th_in * th_out, term)

    # source action, then morphism (odd inner operator passes the front)
    for q in range(0, n + 1):
        for J in combinations(range(n), q):
            rest_idx = [i for i in range(n) if i not in J]
            inner = act(M, q, [elements[i] for i in J], m)
            if inner is None or inner.is_zero():
                continue
            eps = unshuffle_sign(n, tuple(rest_idx), degs, shift=1)
            pass_sign = -1 if sum(degs[i] - 1 for i in rest_idx) % 2 else 1
            th_in = decalage_sign([degs[i] for i in J] + [mdeg])
            inner_mdeg = sum(degs[i] for i in J) + mdeg + 1 - q
            th_out = decalage_sign([degs[i] for i in rest_idx] + [inner_mdeg])
            term = phi.apply(len(rest_idx), [elements[i] for i in rest_idx], inner)
            acc = _accumulate(acc, eps * pass_sign * th_in * th_out, term)

    # morphism, then target action (the morphism is even: no pass sign)
    for q in range(0, n + 1):
        for J in combinations(range(n), q):
            rest_idx = [i for i in range(n) if i not in J]
            inner = phi.apply(q, [elements[i] for i in J], m)
            if inner is None or inner.is_zero():
                continue
            eps = unshuffle_sign(n, tuple(rest_idx), degs, shift=1)
            th_in = decalage_sign([degs[i] for i in J] + [mdeg])
            inner_mdeg = sum(degs[i] for i in J) + mdeg - q
            th_out = decalage_sign([degs[i] for i in rest_idx] + [inner_mdeg])
            term = act(N, len(rest_idx), [elements[i] for i in rest_idx], inner)
            acc = _accumulate(acc, -eps * th_in * th_out, term)

    return acc


def check_module_morphism(phi, max_arity=2, tuples=None, module_samples=None):
    witnesses = []
    checked = 0
    if tuples is None:
        gens = phi.source.structure.generators
        tuples = []
        for n in range(0, max_arity + 1):
            tuples.extend(combinations_with_replacement(gens, n))
    if module_samples is None:
        module_samples = phi.source.samples
    for tup in tuples:
        names = [t[0] for t in tup]
        elems = [t[1] for t in tup]
        for mname, melem in module_samples:
            res = module_morphism_residual(phi, elems, melem)
            checked += 1
            if res is not None and not res.is_zero():
                witnesses.append((tuple(names + [mname]), len(elems), res))
    return CheckReport(checked, witnesses, max_arity)


# -- morphisms --------------------------------------------------------------------


def test_identity_morphism_passes():
    S = suites._cochain_dgla(dual_numbers())
    ident = LInftyMorphism(S, S, {1: lambda xs: xs[0]})
    assert check_morphism(ident, max_arity=3).ok


def test_doubled_first_component_fails_only_at_pairs():
    S = suites._cochain_dgla(dual_numbers())
    doubled = LInftyMorphism(S, S, {1: lambda xs: 2 * xs[0]})
    rep = check_morphism(doubled, max_arity=2)
    assert not rep.ok
    assert all(arity == 2 for _, arity, _ in rep.witnesses)


def test_symbol_to_operator_map_obstruction():
    # vector fields transport on the nose; pairs drawn from functions and
    # bivectors leave the bracket-compatibility gap of the symbol map,
    # and the checker must report exactly that gap
    gens = schouten_generators()
    lookup = dict(gens)
    Ss = suites._schouten_structure(gens)
    Spd = lf.dgla(lambda op: op.arity - 1, pd.delta, pd.bracket, [])
    f = LInftyMorphism(Ss, Spd, {1: lambda xs: ct.hkr(xs[0])})
    rep = check_morphism(f, max_arity=2)
    assert not rep.ok
    assert rep.witnesses
    for names, arity, res in rep.witnesses:
        assert arity == 2
        assert set(names) <= {"f", "pi", "rho"}
        a, b = lookup[names[0]], lookup[names[1]]
        gap = ct.hkr(ct.schouten(a, b)) - pd.bracket(ct.hkr(a), ct.hkr(b))
        assert res == gap

    # bivector pairs are among the reported failures
    assert any(set(names) == {"pi", "rho"} for names, _, _ in rep.witnesses)

    # vector fields against anything are exact
    X, Y, pi, rho = lookup["X"], lookup["Y"], lookup["pi"], lookup["rho"]
    for pair in [(X, pi), (X, rho), (X, Y), (Y, rho)]:
        r = morphism_residual(f, list(pair))
        assert r is None or r.is_zero()


# -- module morphisms -------------------------------------------------------------


def test_identity_module_morphism_passes():
    A = dual_numbers()
    S = suites._cochain_dgla(A)
    M = chains_module(A, S)
    ident = LInftyModuleMorphism(M, M, {0: lambda xs, m: m})
    rep = check_module_morphism(ident, max_arity=2)
    assert rep.ok


def test_scaled_module_morphism_passes():
    A = dual_numbers()
    S = suites._cochain_dgla(A)
    M = chains_module(A, S)
    half = LInftyModuleMorphism(M, M, {0: lambda xs, m: Fraction(1, 2) * m})
    assert check_module_morphism(half, max_arity=1).ok


def test_module_morphism_requires_shared_structure():
    A = dual_numbers()
    M1 = chains_module(A, suites._cochain_dgla(A))
    M2 = chains_module(A, suites._cochain_dgla(A))
    try:
        LInftyModuleMorphism(M1, M2, {})
    except ValueError:
        pass
    else:
        raise AssertionError("expected a ValueError")


def test_trace_map_audit_reports_transport_gap():
    # chains over the order-3 jet model vs differential forms: the trace
    # map connes_mu is a chain map (b |-> 0).  The checker must hand back
    # the exact discrepancy mu(L_D ch) - L_pi(mu ch), D = hkr(pi), rather
    # than a bare failure.  On cycles that discrepancy is a normalization,
    # not a failure to intertwine: cartan.hkr expands the pairing with no
    # 1/k! (ledger entry 11) while mu divides by n! (entry 6), so on a
    # cycle mu(L_D ch) = k! L_pi(mu ch), with k! = 2 for the bivector pi.
    model = FunctionModel(2, 3)
    A = model.as_structure_algebra()
    pi = mv(2, 2, {(0, 1): ONE2})
    S = suites._schouten_structure([("pi", pi)])

    def act_chain(xs, m):
        op = ct.hkr(xs[0])
        return hh.lie_action(from_polydiff(op, model, A), m)

    samples = []
    for tup in [(0,), (model.index[(1, 0)],),
                (0, model.index[(1, 0)]),
                (model.index[(1, 0)], model.index[(0, 1)]),
                (0, model.index[(1, 0)], model.index[(0, 1)])]:
        samples.append((f"ch{tup}", hh.Chain.elementary(A, tup)))

    M = lf.LInftyModule(S, lambda ch: -ch.n,
                        {0: lambda xs, m: hh.chain_b(m), 1: act_chain}, samples)
    N = lf.LInftyModule(S, lambda a: a.k,
                        {1: lambda xs, m: ct.lie_derivative(xs[0], m)})
    mu = LInftyModuleMorphism(M, N, {0: lambda xs, m: ct.connes_mu_chain(model, m)})

    for name, ch in samples:
        res = module_morphism_residual(mu, [pi], ch)
        direct = ct.connes_mu_chain(model, act_chain([pi], ch)) - ct.lie_derivative(
            pi, ct.connes_mu_chain(model, ch)
        )
        if res is None:
            assert direct.is_zero()
        else:
            assert res == direct

    # the gap is genuinely nonzero on a two-tensor chain
    ch = hh.Chain.elementary(A, (model.index[(1, 0)], model.index[(0, 1)]))
    res = module_morphism_residual(mu, [pi], ch)
    assert res is not None and not res.is_zero()

    # x (x) y is a cycle, b(x (x) y) = xy - yx = 0: with k! = 2 the two
    # transports agree on it and on the other cycle samples
    one, x, y = 0, model.index[(1, 0)], model.index[(0, 1)]
    for tup in [(x,), (one, x), (x, y), (y, x)]:
        ch = hh.Chain.elementary(A, tup)
        assert hh.chain_b(ch).is_zero()
        lhs = ct.connes_mu_chain(model, act_chain([pi], ch))
        mu_ch = ct.connes_mu_chain(model, ch)
        assert lhs == 2 * ct.lie_derivative(pi, mu_ch)
        if len(set(tup) - {one}) == 2:
            assert lhs != ct.lie_derivative(pi, mu_ch)


# -- flatness --------------------------------------------------------------------


def test_mc_residual_flat_and_curved():
    S2 = suites._schouten_structure()
    flat = lf.MCElement({1: mv(2, 2, {(0, 1): ONE2})}, 4)
    assert lf.mc_residual(S2, flat) == {}

    one3 = Poly.const(3, 1)
    x3 = Poly.var(3, 0)
    curved0 = mv(3, 2, {(0, 1): one3, (0, 2): x3})
    S3 = suites._schouten_structure()
    curved = lf.MCElement({1: curved0}, 4)
    res = lf.mc_residual(S3, curved)
    assert sorted(res) == [2]
    assert res[2] == ct.jacobiator(curved0)


def test_mc_element_validation():
    pi = mv(2, 2, {(0, 1): ONE2})
    try:
        lf.MCElement({0: pi}, 3)
    except ValueError:
        pass
    else:
        raise AssertionError("expected a ValueError")
    assert lf.MCElement({5: pi}, 3).is_zero()  # beyond the cap


# -- odd-parameter extension ------------------------------------------------------


def test_multivector_laws_plain_and_extended():
    gens = schouten_generators()
    plain = lf.GerstenhaberData(lambda a: a.k, *KERNELS, gens)
    assert lf.check_gerstenhaber(plain).ok

    E = lf.epsilon_extend(2, *RULES, gens)
    assert len(E.generators) == 2 * len(gens)
    rep = lf.check_gerstenhaber(E)
    assert rep.ok


def test_truncated_bracket_breaks_leibniz():
    def truncated(acc, a, b, sign):
        if a.k <= 1 and b.k <= 1:
            ct.schouten_into(acc, a, b, sign)

    bad = lf.GerstenhaberData(
        lambda a: a.k, ct.wedge_into, truncated, ct.MultiVector.maker(2),
        schouten_generators(),
    )
    rep = lf.check_gerstenhaber(bad)
    assert not rep.ok
    assert any(law == "bracket-leibniz" for law, _, _ in rep.witnesses)


def test_epsilon_derivative_squares_to_zero_and_extracts_tail():
    # e is the odd frame symbol of index 2; each generator g enters as g
    # and as e*g, and delta(e*g) = g
    E = lf.epsilon_extend(2, *RULES, [("g", ct.MultiVector.function(X2))])
    (_, e), (_, lifted) = E.generators
    d = E.delta(lifted)
    assert (d.nvars, d.k, d) == (3, e.k, e)
    assert all(2 not in frame for frame, _ in e.c)
    assert all(2 in frame for frame, _ in lifted.c)
    assert E.delta(e).is_zero()
    assert E.delta(E.delta(lifted)).is_zero()


def test_second_order_defect_of_delta_is_the_bracket():
    # on embedded (parameter-free) elements the defect of delta against
    # the Leibniz rule equals the bracket up to the recorded sign
    E = lf.epsilon_extend(
        2, *RULES, [("X", mv(2, 1, {(0,): Y2})), ("rho", mv(2, 2, {(0, 1): X2}))]
    )
    X, rho = E.generators[0][1], E.generators[2][1]
    nonzero = 0
    for x, y in [(X, rho), (rho, X), (X, X), (rho, rho)]:
        sgn = -1 if x.k % 2 else 1
        assert not E.delta_defect(x, y)
        # delta x = delta y = 0, so delta(xy), the e-part of xy, is sgn [x, y]
        xy, bracket = {}, {}
        E.mul_into(xy, x, y, 1)
        E.bracket_into(bracket, x, y, sgn)
        assert E.delta(E.element(x.k + y.k, xy)).c == bracket
        assert all(2 not in frame for frame, _ in bracket)
        nonzero += bool(bracket)
    assert nonzero


def test_dropped_or_flipped_twist_fails_only_the_delta_laws():
    # x * y = x ^ y + (-1)^|x| e ^ [x, y]: without the twist, or with its sign
    # flipped, the product is still graded commutative and associative and
    # the bracket still a Leibniz bracket of it; only the second-order
    # defect of delta, which no bracket can fail, sees the twist
    gens = [
        (f"v{k}{key}_{e}", mv(2, k, {key: Poly.monomial(2, e)}))
        for k in range(3)
        for key in combinations(range(2), k)
        for e in monomials_upto(2, 1)
    ]
    E = lf.epsilon_extend(2, *RULES, gens)
    twisted = E.mul_into

    def flipped(acc, x, y, sign):
        # x ^ y - (-1)^|x| e ^ [x, y] = 2 x ^ y - x * y
        ct.wedge_into(acc, x, y, 2 * sign)
        twisted(acc, x, y, -sign)

    assert lf.check_gerstenhaber(E).ok
    for mutant in (ct.wedge_into, flipped):
        E.mul_into = mutant
        rep = lf.check_gerstenhaber(E)
        assert rep.checked == 42396
        assert {law for law, _, _ in rep.witnesses} == {"second-order-delta"}
        assert len(rep.witnesses) == 87
