"""Helpers that several test modules share: the scalars of a nested
``Sparse``."""

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
