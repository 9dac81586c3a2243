"""The module identity as the generalized Jacobi identity of the semidirect
sum, against the two-family sum it replaced (``parent_module``).

Every tuple ``check_module`` visits is compared by value: the chains of the
dual numbers over their cochain DGLA up to arity 2, the forms of the plane
over the multivector bracket up to arity 3, and perturbations of both whose
residuals are nonzero.  The sweep's own witnesses are checked to be
exactly the reference's nonzero residuals.
"""

from itertools import combinations_with_replacement

from formality_lab import cartan as ct
from formality_lab import hochschild as hh
from formality_lab import linfty as lf
from formality_lab import suites
from formality_lab.algebras import dual_numbers
from formality_lab.poly import Poly

from parent_module import module_residual

ONE2 = Poly.const(2, 1)
X2 = Poly.var(2, 0)


def _zero(x):
    return x is None or x.is_zero()


def _compare(M, max_arity):
    """Compare the two residuals on every (tuple, sample) of the module
    sweep; return the number compared and the reference's nonzero
    residuals, keyed like the sweep's witnesses."""
    T = M.semidirect()
    compared = 0
    nonzero = {}
    for n in range(max_arity + 1):
        for tup in combinations_with_replacement(M.structure.generators, n):
            names = tuple(name for name, _ in tup)
            elems = [g for _, g in tup]
            for mname, m in M.samples:
                new = lf.linfty_residual(T, elems + [m])
                old = module_residual(M, elems, m)
                compared += 1
                if _zero(old):
                    assert _zero(new), (names, mname, new)
                else:
                    assert not _zero(new) and new == old, (names, mname, new, old)
                    nonzero[names + (mname,)] = old
    rep = lf.check_module(M, max_arity)
    assert rep.checked == compared
    assert {w[0]: w[2] for w in rep.witnesses} == nonzero
    assert all(arity == len(key) - 1 for key, arity, _ in rep.witnesses)
    return compared, len(nonzero)


def _lie(xs, m):
    return hh.lie_action(xs[0], m)


def _boundary(xs, m):
    return hh.chain_b(m)


def _lie_derivative(xs, m):
    return ct.lie_derivative(xs[0], m)


def _de_rham(xs, m):
    return ct.deRham_d(m)


def _chains(actions):
    A = dual_numbers()
    return lf.LInftyModule(
        suites._cochain_dgla(A), lambda ch: -ch.n, actions, suites._chain_samples(A)
    )


def _forms(actions):
    forms = [
        ("one", ct.Form.function(ONE2)),
        ("fx", ct.Form.function(X2)),
        ("dx", ct.Form(2, 1, {(0,): ONE2})),
        ("xdy", ct.Form(2, 1, {(1,): X2})),
        ("vol", ct.Form(2, 2, {(0, 1): ONE2})),
    ]
    S = suites._schouten_structure(suites._schouten_generators())
    return lf.LInftyModule(S, lambda a: a.k, actions, forms)


def test_chains_module_matches_the_reference():
    assert _compare(_chains({0: _boundary, 1: _lie}), 2) == (1274, 0)


def test_forms_module_matches_the_reference():
    assert _compare(_forms({0: _de_rham, 1: _lie_derivative}), 3) == (280, 0)
    assert _compare(_forms({1: _lie_derivative}), 3) == (280, 0)


def test_doubled_boundary_matches_the_reference():
    def doubled(xs, m):
        return 2 * hh.chain_b(m)

    assert _compare(_chains({0: doubled, 1: _lie}), 2) == (1274, 25)


def test_tripled_action_matches_the_reference():
    def tripled(xs, m):
        return 3 * hh.lie_action(xs[0], m)

    def tripled_lie_derivative(xs, m):
        return 3 * ct.lie_derivative(xs[0], m)

    assert _compare(_chains({0: _boundary, 1: tripled}), 2) == (1274, 258)
    assert _compare(_forms({0: _de_rham, 1: tripled_lie_derivative}), 3) == (280, 8)


def test_missing_differential_matches_the_reference():
    assert _compare(_chains({1: _lie}), 2) == (1274, 25)
