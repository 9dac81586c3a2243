"""Count the ``Fraction`` objects built while a block runs, arithmetic
results included.

Up to Python 3.11 every ``Fraction`` is built through ``Fraction.__new__``.
From 3.12 on, ``Fraction`` arithmetic builds its results through the
classmethod ``Fraction._from_coprime_ints``, which calls ``object.__new__``
and bypasses ``Fraction.__new__``; a counter that wraps only ``__new__``
then sees no arithmetic at all.  ``counting_fractions`` wraps both, the
second where it exists, and each construction goes through exactly one of
them.
"""

from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

_BUILDERS = ("__new__", "_from_coprime_ints")


@contextmanager
def counting_fractions():
    """Yield a counter whose ``built`` is the number of ``Fraction``s built
    so far inside the block; the builders are restored on exit."""
    counter = SimpleNamespace(built=0)
    saved = {name: Fraction.__dict__[name] for name in _BUILDERS if name in Fraction.__dict__}

    def counted(builder):
        def wrapper(cls, *args, **kwargs):
            counter.built += 1
            return builder(cls, *args, **kwargs)

        return wrapper

    # __new__ is a staticmethod and _from_coprime_ints a classmethod: wrap
    # each underlying function and re-wrap it the same way
    for name, attr in saved.items():
        setattr(Fraction, name, type(attr)(counted(attr.__func__)))
    try:
        yield counter
    finally:
        for name, attr in saved.items():
            setattr(Fraction, name, attr)
