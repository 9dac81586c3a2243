"""The hand-written vector-space methods of the six sparse containers from
before ``core.basis.Sparse``, kept as the reference for it.

Each ``_<class>_<method>`` below is that class's own ``+``, ``-``,
negation, scalar multiple, ``==``, truth value and ``is_zero``, with the
helpers they called, verbatim apart from their names, two storage renames
(``PolyDiffOperator.terms`` and ``SeriesForm.parts`` / ``MCElement.parts``
are now ``c``) and ``SeriesForm``'s u-window, now a constant rather than a
slot.  ``MCElement`` had no negation or
difference; in the reference they are ``(-1) * x`` and ``x + (-1) * y``
through its own ``+`` and scalar multiple.

Inside ``parent_arithmetic()`` every container runs on these methods
(patched onto the classes, and removed again on exit), so a value that is
itself a container, such as an operator's ``Poly`` coefficient or a series
form's ``Form``, is combined by the reference too.
"""

from contextlib import contextmanager
from operator import add

from formality_lab.ahat import SeriesForm
from formality_lab.cartan import _Exterior, _make
from formality_lab.core.basis import add_term, rational
from formality_lab.hochschild import Chain
from formality_lab.linfty import MCElement
from formality_lab.poly import Poly
from formality_lab.polydiff import PolyDiffOperator


# -- Poly ----------------------------------------------------------------------

def _poly_bool(self):
    return bool(self.c)


def _poly_is_zero(self):
    return not self


def _poly_check(self, other):
    if self.n != other.n:
        raise ValueError("variable counts differ")


def _poly_add(self, other):
    self._check(other)
    p = Poly.zero(self.n)
    p.c = dict(self.c)
    for e, v in other.c.items():
        add_term(p.c, e, v)
    return p


def _poly_neg(self):
    p = Poly.zero(self.n)
    p.c = {e: -v for e, v in self.c.items()}
    return p


def _poly_sub(self, other):
    return self + (-other)


def _poly_rmul(self, scalar):
    v = rational(scalar)
    if v == -1:
        return -self
    p = Poly.zero(self.n)
    if v == 1:
        p.c = dict(self.c)
    elif v:
        p.c = {e: v * w for e, w in self.c.items()}
    return p


def _poly_eq(self, other):
    if not isinstance(other, Poly):
        return NotImplemented
    return self.n == other.n and self.c == other.c


# -- PolyDiffOperator ----------------------------------------------------------------

def _operator_check(self, other):
    if self.nvars != other.nvars or self.arity != other.arity:
        raise ValueError("operator shapes differ")


def _operator_add(self, other):
    self._check(other)
    out = PolyDiffOperator(self.nvars, self.arity)
    out.c = dict(self.c)
    for key, poly in other.c.items():
        add_term(out.c, key, poly)
    return out


def _operator_neg(self):
    out = PolyDiffOperator(self.nvars, self.arity)
    out.c = {k: -p for k, p in self.c.items()}
    return out


def _operator_sub(self, other):
    return self + (-other)


def _operator_rmul(self, scalar):
    scalar = rational(scalar)
    out = PolyDiffOperator(self.nvars, self.arity)
    if scalar:
        out.c = {k: scalar * p for k, p in self.c.items()}
    return out


def _operator_eq(self, other):
    if not isinstance(other, PolyDiffOperator):
        return NotImplemented
    return (
        self.nvars == other.nvars
        and self.arity == other.arity
        and self.c == other.c
    )


def _operator_bool(self):
    return bool(self.c)


def _operator_is_zero(self):
    return not self


# -- Chain -------------------------------------------------------------------------

def _chain_check(self, other):
    if self.algebra is not other.algebra or self.n != other.n:
        raise ValueError("chain shapes differ")


def _chain_add(self, other):
    self._check(other)
    out = Chain(self.algebra, self.n)
    out.c = dict(self.c)
    for t, v in other.c.items():
        add_term(out.c, t, v)
    return out


def _chain_neg(self):
    out = Chain(self.algebra, self.n)
    out.c = {t: -v for t, v in self.c.items()}
    return out


def _chain_sub(self, other):
    return self + (-other)


def _chain_rmul(self, scalar):
    scalar = rational(scalar)
    out = Chain(self.algebra, self.n)
    if scalar:
        out.c = {t: scalar * v for t, v in self.c.items()}
    return out


def _chain_eq(self, other):
    if not isinstance(other, Chain):
        return NotImplemented
    return self.algebra is other.algebra and self.n == other.n and self.c == other.c


def _chain_bool(self):
    return bool(self.c)


def _chain_is_zero(self):
    return not self


# -- _Exterior (MultiVector and Form) ------------------------------------------------

def _exterior_signed(self, k, c, s):
    """The degree-k element ``c + s * self``, one ``add_term`` per scalar.

    ``c`` is a flat dict the result takes over.  The scalars 1 and -1
    add and negate without a multiply.
    """
    items = self.c.items()
    if s == 1:
        for key, v in items:
            add_term(c, key, v)
    elif s == -1:
        for key, v in items:
            add_term(c, key, -v)
    else:
        for key, v in items:
            add_term(c, key, s * v)
    return _make(type(self), self.nvars, k, c)


def _exterior_sum_degree(self, other):
    """The degree of a sum: that of its nonzero arguments.  A zero of
    any degree (over-contracting gives degree 0) adds to anything."""
    if type(self) is not type(other) or self.nvars != other.nvars:
        raise ValueError("mismatched exterior elements")
    if not self.c:
        return other.k
    if other.c and other.k != self.k:
        raise ValueError("mismatched exterior elements")
    return self.k


def _exterior_add(self, other):
    return other._signed(self._sum_degree(other), dict(self.c), 1)


def _exterior_sub(self, other):
    return other._signed(self._sum_degree(other), dict(self.c), -1)


def _exterior_neg(self):
    return self._signed(self.k, {}, -1)


def _exterior_rmul(self, scalar):
    if isinstance(scalar, Poly):
        if scalar.n != self.nvars:
            raise ValueError("variable counts differ")
        c = {}
        for e1, v1 in scalar.c.items():
            for (key, e2), v2 in self.c.items():
                add_term(c, (key, tuple(map(add, e1, e2))), v1 * v2)
        return _make(type(self), self.nvars, self.k, c)
    return self._signed(self.k, {}, rational(scalar))


def _exterior_eq(self, other):
    if type(self) is not type(other):
        return NotImplemented
    return self.nvars == other.nvars and self.k == other.k and self.c == other.c


def _exterior_bool(self):
    return bool(self.c)


def _exterior_is_zero(self):
    return not self.c


# -- SeriesForm ----------------------------------------------------------------------

def _series_form_windows(self, other):
    if self.nvars != other.nvars or self.twin != other.twin:
        raise ValueError("mismatched series forms")


def _series_form_add(self, other):
    self._windows(other)
    out = SeriesForm.zero(self.nvars, self.twin)
    out.c = dict(self.c)
    for (kt, ku, _), form in other.c.items():
        out._add(kt, ku, form)
    return out


def _series_form_neg(self):
    out = SeriesForm.zero(self.nvars, self.twin)
    out.c = {key: -form for key, form in self.c.items()}
    return out


def _series_form_sub(self, other):
    return self + (-other)


def _series_form_rmul(self, scalar):
    out = SeriesForm.zero(self.nvars, self.twin)
    for key, form in self.c.items():
        s = scalar * form
        if s:
            out.c[key] = s
    return out


def _series_form_eq(self, other):
    if not isinstance(other, SeriesForm):
        return NotImplemented
    return (
        self.nvars == other.nvars
        and self.twin == other.twin
        and self.c == other.c
    )


def _series_form_bool(self):
    return bool(self.c)


def _series_form_is_zero(self):
    return not self


# -- MCElement -------------------------------------------------------------------------

def _mc_bool(self):
    return bool(self.c)


def _mc_is_zero(self):
    return not self


def _mc_eq(self, other):
    return (
        isinstance(other, MCElement)
        and self.nt == other.nt
        and self.c == other.c
    )


def _mc_add(self, other):
    if self.nt != other.nt:
        raise ValueError("order caps differ")
    out = dict(self.c)
    for k, v in other.c.items():
        add_term(out, k, v)
    return MCElement(out, self.nt)


def _mc_rmul(self, scalar):
    return MCElement({k: scalar * v for k, v in self.c.items()}, self.nt)


def _mc_neg(self):
    return (-1) * self


def _mc_sub(self, other):
    return self + (-1) * other


PARENT_METHODS = {
    Poly: {
        "_check": _poly_check, "__add__": _poly_add, "__neg__": _poly_neg,
        "__sub__": _poly_sub, "__rmul__": _poly_rmul, "__eq__": _poly_eq,
        "__bool__": _poly_bool, "is_zero": _poly_is_zero,
    },
    PolyDiffOperator: {
        "_check": _operator_check, "__add__": _operator_add, "__neg__": _operator_neg,
        "__sub__": _operator_sub, "__rmul__": _operator_rmul, "__eq__": _operator_eq,
        "__bool__": _operator_bool, "is_zero": _operator_is_zero,
    },
    Chain: {
        "_check": _chain_check, "__add__": _chain_add, "__neg__": _chain_neg,
        "__sub__": _chain_sub, "__rmul__": _chain_rmul, "__eq__": _chain_eq,
        "__bool__": _chain_bool, "is_zero": _chain_is_zero,
    },
    _Exterior: {
        "_signed": _exterior_signed, "_sum_degree": _exterior_sum_degree,
        "__add__": _exterior_add, "__sub__": _exterior_sub, "__neg__": _exterior_neg,
        "__rmul__": _exterior_rmul, "__eq__": _exterior_eq,
        "__bool__": _exterior_bool, "is_zero": _exterior_is_zero,
    },
    SeriesForm: {
        "_windows": _series_form_windows, "__add__": _series_form_add,
        "__neg__": _series_form_neg, "__sub__": _series_form_sub,
        "__rmul__": _series_form_rmul, "__eq__": _series_form_eq,
        "__bool__": _series_form_bool, "is_zero": _series_form_is_zero,
    },
    MCElement: {
        "__add__": _mc_add, "__neg__": _mc_neg, "__sub__": _mc_sub,
        "__rmul__": _mc_rmul, "__eq__": _mc_eq,
        "__bool__": _mc_bool, "is_zero": _mc_is_zero,
    },
}

_MISSING = object()


@contextmanager
def patched(methods):
    """Install ``{cls: {name: function}}`` on the classes; on exit, restore
    each class's own attribute, or delete the patch where it had none."""
    saved = [
        (cls, name, cls.__dict__.get(name, _MISSING))
        for cls, table in methods.items()
        for name in table
    ]
    for cls, table in methods.items():
        for name, fn in table.items():
            setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, old in saved:
            if old is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, old)


def parent_arithmetic():
    return patched(PARENT_METHODS)

