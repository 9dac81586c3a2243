"""Helpers that several test modules share: the scalars of a nested
``Sparse``, and the Schouten bracket as an L-infinity structure."""

from formality_lab import cartan as ct
from formality_lab import linfty as lf
from formality_lab.core.basis import Sparse


def leaves(x):
    """Every scalar of a nested ``Sparse``; each container on the way must
    hold a term."""
    assert x.c, "stored zero container"
    for v in x.c.values():
        if isinstance(v, Sparse):
            yield from leaves(v)
        else:
            yield v


def schouten_structure(gens=()):
    return lf.LInftyStructure(
        lambda v: v.k - 1, {2: lambda a: ct.schouten(a[0], a[1])}, gens
    )
