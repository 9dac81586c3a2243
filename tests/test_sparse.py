"""Every sparse container keeps no stored zeros, takes only exact scalars,
and does its vector-space arithmetic through the one ``core.basis.Sparse``.

One parameterized test per property, over the containers that
``core.basis.add_term`` maintains: a sum that cancels, and one product or
bracket that cancels, must leave an empty coefficient dict, and the truth
value must agree with ``is_zero()``.  A float, as a constructor
coefficient or as a scalar factor, raises ``TypeError``.

The ``Sparse`` containers (``Poly``, ``PolyDiffOperator``, ``Chain``,
``Cochain``, multivectors and forms, ``SeriesForm`` and ``MCElement``) are
compared against their own hand-written methods from before the base: on
seeded pairs, with cancelling sums, the scalars 0, 1, -1,
``Fraction(1, 1)`` and ``Fraction(-2, 3)``, zero forms of different
degrees, chains over different algebras and other space mismatches, every
``+``, ``-``, negation, scalar multiple, ``==``, truth value and
``is_zero`` must agree, or raise ``ValueError`` on both sides.  Six of
them run on those methods patched back from ``parent_vector_ops``, and must
give the same type, space, keys in the same order and values of the same
type.  ``Cochain`` runs against ``parent_cochain.Cochain``, its nested
table of vectors, and is compared by value: the same space and the same
value and scalar type per key, since a flat sum lists a new output of an
existing input last.

No class under ``src/`` but ``core.basis.Sparse`` writes ``+``, ``-``,
negation, ``==`` or ``_like``, and only ``Sparse`` containers write a
product with a scalar (an AST scan).  ``Sparse._like`` copies the ``_space``
slots, so every container's slots are its ``_space`` and ``c``, and on
every container ``_like`` keeps the type and the space objects and takes
its dict over.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from formality_lab import ahat
from formality_lab import cartan as ct
from formality_lab import hochschild as hh
from formality_lab import linfty as lf
from formality_lab import polydiff as pd
from formality_lab.algebras import StructureAlgebra, dual_numbers, trunc_poly_algebra
from formality_lab.cartan import Form, MultiVector
from formality_lab.core.basis import Sparse, common_denominator, rational, rescaled
from formality_lab.deformation import moyal
from formality_lab.hochschild import Chain, Cochain
from formality_lab.poly import Poly
from formality_lab.polydiff import PolyDiffOperator
from parent_cochain import Cochain as ParentCochain
from parent_cochain import flat, reference
from parent_vector_ops import parent_arithmetic
from shared_tools import leaves

X0, X1 = Poly.var(2, 0), Poly.var(2, 1)
ONE = Poly.const(2, 1)
FIELD = MultiVector(2, 1, {(0,): X0 * X1, (1,): ONE + X0})
A = dual_numbers()
T3 = trunc_poly_algebra(3)


def _poly():
    return Fraction(2, 3) * X0 * X0 + X1 - ONE


def _form():
    return Form(2, 1, {(0,): X1 * X1, (1,): X0 + X1})


def _chain():
    return Chain(T3, 2, {(0, 1, 2): 1, (1, 1, 1): Fraction(-1, 2), (2, 0, 1): 3})


def _cochain():
    return hh.basis_cochains(A, 1)[1] + 2 * hh.basis_cochains(A, 1)[2]


def _operator():
    return PolyDiffOperator(2, 1, {((1, 0),): X1, ((0, 2),): Fraction(1, 2)})


def _series_form():
    return ahat.SeriesForm(2, {(0, 0, 0): Form.function(X0 * X1), (1, -1, 1): _form()})


def _mc_element():
    return lf.MCElement({1: pd.PolyDiffOperator.multiplication(2), 2: _operator()}, 3)


# name -> (a nonzero element, a product or bracket of it that cancels to zero)
CONTAINERS = {
    "Poly": (_poly, lambda p: ct.poisson_bracket(MultiVector(2, 2, {(0, 1): ONE}), p, p)),
    "MultiVector": (lambda: FIELD, lambda X: ct.schouten(X, X)),
    "Form": (_form, lambda a: a.wedge(a)),
    "Chain": (_chain, lambda c: hh.chain_b(hh.chain_b(c))),
    "Cochain": (_cochain, lambda D: hh.delta(hh.delta(D))),
    "PolyDiffOperator": (_operator, lambda D: pd.delta(pd.delta(D))),
    "SeriesForm": (_series_form, lambda a: ahat.diff_d(None, ahat.diff_d(None, a))),
    "MCElement": (
        _mc_element,
        lambda m: lf.MCElement({k: pd.delta(pd.delta(v)) for k, v in m.c.items()}, m.nt),
    ),
}


def _assert_zero(z):
    assert not z.c
    assert not z and z.is_zero()


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_cancellation_leaves_no_stored_zeros(name):
    make, cancel = CONTAINERS[name]
    x = make()
    assert x.c
    assert x and not x.is_zero()
    _assert_zero(x + (-1) * x)
    _assert_zero(x - x)
    _assert_zero(cancel(x))


def test_epsilon_accumulator_keeps_no_stored_zeros():
    # the extended product and bracket add into one flat dict, e being the
    # odd frame symbol of index 2; a sum that cancels leaves it empty
    E = lf.epsilon_extend(
        2, ct._wedge_rule, ct._schouten_rule,
        [("X", FIELD), ("f", MultiVector.function(_poly())), ("Xf", _poly() * FIELD)],
    )
    (_, x), _, _, (_, tail), (_, xf), _ = E.generators
    for rule in (E.mul_rule, E.bracket_rule):
        for y in (x, tail):
            r = {}
            ct._monomial_pairs(r, x, y, rule, 1)
            ct._monomial_pairs(r, y, x, rule, 1)
            ct._monomial_pairs(r, x, y, rule, -1)
            ct._monomial_pairs(r, y, x, rule, -1)
            assert r == {}
    r = {}
    ct._monomial_pairs(r, x, x, E.bracket_rule, 1)  # [X, X] = 0 for a vector field
    assert r == {}
    ct._monomial_pairs(r, x, tail, E.mul_rule, 1)  # X (e f) = (-1)^|X| e (X f)
    assert r and all(2 in frame for frame, _ in r)
    assert E.delta(MultiVector.maker(3)(2, r)) == -xf


# every way a float can reach a container: constructors and scalar factors
FLOATS = {
    "Poly": lambda: Poly(1, {(1,): 0.5}),
    "Poly.const": lambda: Poly.const(1, 0.1),
    "Poly.monomial": lambda: Poly.monomial(1, (2,), 0.1),
    "0.5 * Poly": lambda: 0.5 * Poly.var(1, 0),
    "Poly * 0.5": lambda: Poly.var(1, 0) * 0.5,
    "MultiVector": lambda: MultiVector(2, 1, {(0,): 0.5}),
    "0.5 * MultiVector": lambda: 0.5 * FIELD,
    "Chain": lambda: Chain(A, 0, {(0,): 0.5}),
    "0.5 * Chain": lambda: 0.5 * Chain.elementary(A, (0,)),
    "Cochain": lambda: Cochain(A, 1, {(0,): {0: 0.5}}),
    "0.5 * Cochain": lambda: 0.5 * Cochain.multiplication(A),
    "PolyDiffOperator": lambda: PolyDiffOperator(2, 1, {((1, 0),): 0.5}),
    "0.5 * PolyDiffOperator": lambda: 0.5 * PolyDiffOperator.multiplication(2),
    "moyal": lambda: moyal([[0, 0.1], [-0.1, 0]], 1),
    "StructureAlgebra table": lambda: StructureAlgebra(["e"], {(0, 0): {0: 0.5}}),
}


@pytest.mark.parametrize("name", sorted(FLOATS))
def test_floats_are_rejected(name):
    with pytest.raises(TypeError):
        FLOATS[name]()


def test_poly_times_multivector_or_form_is_the_termwise_product():
    # Poly.__mul__ hands a container to the container's __rmul__
    p = Fraction(1, 2) * X0 - X1 + ONE
    for x, coeffs in (
        (FIELD, {(0,): X0 * X1, (1,): ONE + X0}),
        (_form(), {(0,): X1 * X1, (1,): X0 + X1}),
    ):
        want = type(x)(2, 1, {key: p * q for key, q in coeffs.items()})
        assert p * x == want == x.__rmul__(p)
    assert Poly.zero(2) * FIELD == MultiVector.zero(2, 1)


def test_rational_takes_only_exact_scalars():
    # int when integral, Fraction otherwise, never Fraction(n, 1)
    for v, want in ((3, 3), (Fraction(3), 3), (Fraction(-6, 2), -3), (True, 1)):
        assert rational(v) == want and type(rational(v)) is int
    assert rational(Fraction(1, 3)) == Fraction(1, 3)
    assert type(rational(Fraction(1, 3))) is Fraction
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            rational(bad)


# name -> an element with scalars whose denominators exceed 1
DENOMINATED = {
    "Poly": _poly,
    "PolyDiffOperator": _operator,
    "Cochain": lambda: (
        Fraction(1, 3) * hh.basis_cochains(A, 1)[1] + Fraction(3, 4) * hh.basis_cochains(A, 1)[2]
    ),
    "MultiVector": lambda: MultiVector(
        2, 1, {(0,): Fraction(1, 2) * X0 * X1, (1,): ONE + Fraction(2, 3) * X0}
    ),
    "MCElement": _mc_element,
}


@pytest.mark.parametrize("name", sorted(DENOMINATED))
def test_common_denominator_clears_and_rescales_back(name):
    x = DENOMINATED[name]()
    den = common_denominator(x)
    assert den > 1
    cleared = rescaled(x, den)
    assert type(cleared) is type(x) and cleared == den * x
    assert all(type(v) is int and v for v in leaves(cleared))
    assert common_denominator(cleared) == 1
    back = rescaled(cleared, Fraction(1, den))
    assert type(back) is type(x) and back == x
    # nonzero, and rational-normal: never Fraction(n, 1)
    assert all(v and rational(v) is v for v in leaves(back))
    with pytest.raises(TypeError):
        rescaled(x, 0.5)


def test_int_and_fraction_coefficients_are_one_value():
    p, q = Poly.const(2, 1), Poly.const(2, 1)
    q.c = {(0, 0): Fraction(1)}  # as a product like Fraction(1, 2) * 2 stores it
    assert p == q
    assert type(p.coeff((0, 0))) is int and type(q.coeff((0, 0))) is Fraction
    assert p.coeff((1, 0)) == 0 and type(p.coeff((1, 0))) is int


# -- the Sparse base against each container's own methods ----------------------

SCALARS = (0, 1, -1, Fraction(1, 1), Fraction(-2, 3))

OPS = {
    "x + y": lambda x, y: x + y,
    "x - y": lambda x, y: x - y,
    "y - x": lambda x, y: y - x,
    "-x": lambda x, y: -x,
    "x + (-1) * x": lambda x, y: x + (-1) * x,
    "x - x": lambda x, y: x - x,
    "x == y": lambda x, y: x == y,
    "y == x": lambda x, y: y == x,
    "x == -(-x)": lambda x, y: x == -(-x),
    "bool(x)": lambda x, y: bool(x),
    "y.is_zero()": lambda x, y: y.is_zero(),
    **{f"{s!r} * x": (lambda x, y, s=s: s * x) for s in SCALARS},
}


def _shape(v):
    """Type, space and (key, value) items in order, values by type and value."""
    if isinstance(v, Sparse):
        space = tuple(getattr(v, slot) for slot in v._space)
        return type(v), space, [(key, _shape(w)) for key, w in v.c.items()]
    return type(v), v


def _value(v):
    """A cochain, flat or reference, by value: its space and {flat key:
    (scalar type, value)}."""
    if isinstance(v, (Cochain, ParentCochain)):
        terms = flat(v) if isinstance(v, ParentCochain) else v.c
        return Cochain, (v.algebra, v.arity), {key: (type(w), w) for key, w in terms.items()}
    return type(v), v


def _outcomes(x, y, shape=_shape):
    out = {}
    for name, op in OPS.items():
        try:
            out[name] = shape(op(x, y))
        except ValueError:
            out[name] = ValueError
    return out


def _scalar(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def _rpoly(rng, n=2):
    return Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)): _scalar(rng) for _ in range(3)})


def _rform(rng, cls, n, k):
    frames = [f for f in ((0,), (1,), (0, 1), (), (1, 2), (0, 2)) if len(f) == k and max(f, default=0) < n]
    return cls(n, k, {f: _rpoly(rng, n) for f in rng.sample(frames, rng.randint(1, len(frames)))})


def _rmulti(rng):
    return tuple(rng.randint(0, 1) for _ in range(2))


def _roperator(rng, arity=2):
    return PolyDiffOperator(
        2, arity, {tuple(_rmulti(rng) for _ in range(arity)): _rpoly(rng) for _ in range(3)}
    )


# name -> (seeded element, seeded element of another space of the same type)
SEEDED = {
    "Poly": (_rpoly, lambda rng: _rpoly(rng, 3)),
    "PolyDiffOperator": (_roperator, lambda rng: _roperator(rng, 1)),
    "Chain": (
        lambda rng: Chain(
            T3, 2, {tuple(rng.randint(0, 2) for _ in range(3)): _scalar(rng) for _ in range(5)}
        ),
        lambda rng: Chain(T3, 1, {(0, 1): 1}),
    ),
    "MultiVector": (
        lambda rng: _rform(rng, MultiVector, 2, 1),
        lambda rng: _rform(rng, MultiVector, 2, 2),
    ),
    "Form": (lambda rng: _rform(rng, Form, 3, 2), lambda rng: _rform(rng, Form, 3, 1)),
    "SeriesForm": (
        lambda rng: ahat.SeriesForm(
            2, {(rng.randint(-1, 1), rng.randint(-1, 1), k): _rform(rng, Form, 2, k) for k in (0, 1, 1)}
        ),
        lambda rng: ahat.SeriesForm(2, {(0, 0, 1): _rform(rng, Form, 2, 1)}, twin=(-2, 2)),
    ),
    "MCElement": (
        lambda rng: lf.MCElement({k: _roperator(rng) for k in (1, rng.randint(1, 3))}, 3),
        lambda rng: lf.MCElement({1: _roperator(rng)}, 2),
    ),
    "Cochain": (
        lambda rng: Cochain(
            T3,
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): {
                    rng.randint(0, 3): _scalar(rng) for _ in range(2)
                }
                for _ in range(4)
            },
        ),
        lambda rng: rng.choice(
            (Cochain(T3, 1, {(0,): {1: 1}}), Cochain(A, 2, {(0, 1): {1: 1}}))
        ),
    ),
}


def _cancelling(rng, x, noise):
    """An element of x's space that cancels a random part of x: the
    negatives of some of x's terms, over the terms of ``noise``."""
    c = dict(noise.c)
    c.update({key: -v for key, v in x.c.items() if rng.random() < 0.6})
    return x._like(c)


def _pairs(name, seed):
    rng = random.Random(seed)
    make, other_space = SEEDED[name]
    x, y = make(rng), make(rng)
    pairs = [(x, y), (x, _cancelling(rng, x, y)), (x, (-1) * x), (x, other_space(rng))]
    pairs.append((x, x._like({})))
    return pairs


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_base_matches_each_containers_own_methods(name, seed):
    for x, y in _pairs(name, 1000 * seed + sorted(SEEDED).index(name)):
        if name == "Cochain":
            want = _outcomes(reference(x), reference(y), _value)
            assert _outcomes(x, y, _value) == want, (x, y)
            continue
        with parent_arithmetic():
            want = _outcomes(x, y)
        assert _outcomes(x, y) == want, (name, x, y)


def _space_cases():
    """(x, y, whether x + y must raise), named, for zeros of other degrees
    and for elements of two spaces."""
    rng = random.Random(17)
    f1 = _rform(rng, Form, 2, 1)
    other = trunc_poly_algebra(3)
    cases = [
        ("zero forms of degrees 0 and 1", Form.zero(2, 0), f1, False),
        ("a 1-form and a zero 2-form", f1, Form.zero(2, 2), False),
        ("zero forms of degrees 0 and 2", Form.zero(2, 0), Form.zero(2, 2), False),
        ("a 1-form and a 2-form", f1, Form(2, 2, {(0, 1): X0}), True),
        ("a multivector and a form", MultiVector(2, 1, {(0,): X0}), Form(2, 1, {(0,): X0}), True),
        ("forms in 2 and 3 variables", f1, Form(3, 1, {(0,): 1}), True),
        ("chains over two algebras", Chain(T3, 1, {(0, 1): 1}), Chain(other, 1, {(0, 1): 1}), True),
        ("zero chains over two algebras", Chain(T3, 1), Chain(other, 1), True),
        (
            "series forms with different t-windows",
            _series_form(),
            ahat.SeriesForm(2, {(0, 0, 0): Form.function(X0)}, twin=(-3, 3)),
            True,
        ),
    ]
    return [pytest.param(x, y, raises, id=name) for name, x, y, raises in cases]


@pytest.mark.parametrize("x, y, raises", _space_cases())
def test_zero_of_any_degree_and_space_mismatches_match_the_reference(x, y, raises):
    with parent_arithmetic():
        want = _outcomes(x, y)
    got = _outcomes(x, y)
    assert got == want
    assert (got["x + y"] is ValueError) == raises


# -- the one base: no other class writes vector-space arithmetic ---------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "formality_lab"


def _defined_names(node):
    """The names a class body defines, by ``def`` or by assignment."""
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (t.id for t in item.targets if isinstance(t, ast.Name))


def arithmetic_outside_the_base(package_dir):
    """``module:Class.method`` for each ``__add__``, ``__sub__``, ``__neg__``,
    ``__eq__`` or ``_like`` a class outside ``core/basis.py`` defines, and each
    ``__mul__`` or ``__rmul__`` of a class that is not a ``Sparse``
    container.  Subclassing is followed by name through the package."""
    classes = []
    for path in sorted(Path(package_dir).rglob("*.py")):
        module = path.relative_to(package_dir).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes += [(module, n) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    sparse = {"Sparse"}
    grown = True
    while grown:
        grown = False
        for _, node in classes:
            bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
            if node.name not in sparse and bases & sparse:
                sparse.add(node.name)
                grown = True
    found = []
    for module, node in classes:
        for name in _defined_names(node):
            vector_op = name in ("__add__", "__sub__", "__neg__", "__eq__", "_like")
            product = name in ("__mul__", "__rmul__")
            if (vector_op and module != "core/basis.py") or (product and node.name not in sparse):
                found.append(f"{module}:{node.name}.{name}")
    return found


def test_only_the_sparse_base_writes_vector_space_arithmetic():
    assert arithmetic_outside_the_base(PACKAGE) == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_seeded_containers_are_every_sparse_class():
    concrete = {
        cls
        for cls in _subclasses(Sparse)
        if cls.__module__.startswith("formality_lab.") and not cls.__subclasses__()
    }
    assert concrete == {type(make(random.Random(0))) for make, _ in SEEDED.values()}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_like_keeps_the_type_and_space_and_takes_the_dict_over(name):
    x = SEEDED[name][0](random.Random(sorted(SEEDED).index(name)))
    slots = {s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ())}
    assert slots == set(x._space) | {"c"}
    for c in ({}, dict(x.c)):
        y = x._like(c)
        assert type(y) is type(x)
        assert all(getattr(y, slot) is getattr(x, slot) for slot in x._space)
        assert y.c is c
