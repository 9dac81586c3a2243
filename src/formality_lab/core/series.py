"""Formal series in a nilpotent parameter t and a window-bounded parameter u.

Coefficients are exact rationals.  Truncation semantics differ on purpose:

* powers of t beyond the cap are dropped silently -- truncation in t is a
  quotient by an ideal, so dropping is exact arithmetic in the quotient;
* powers of u outside the window raise ``WindowOverflow`` -- a two-sided
  window is not an ideal, so leaving it silently would corrupt later
  coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import Sparse, add_term, rational


class WindowOverflow(ValueError):
    """A u-exponent left the declared window with a nonzero coefficient."""


class FormalSeries(Sparse):
    """sum c[(kt,ku)] * t^kt * u^ku with kt in [0, nt], ku in [ulo, uhi]."""

    __slots__ = ("nt", "ulo", "uhi", "c")
    _space = ("nt", "ulo", "uhi")

    def __init__(self, coeffs=None, *, nt, u_window=(0, 0)):
        ulo, uhi = u_window
        if nt < 0 or ulo > uhi:
            raise ValueError("bad caps")
        self.nt = nt
        self.ulo = ulo
        self.uhi = uhi
        self.c = {}
        if coeffs:
            for (kt, ku), v in coeffs.items():
                v = rational(v)
                if not v:
                    continue
                if kt < 0:
                    raise ValueError("negative t-exponent")
                if kt > nt:
                    continue  # silent: t-truncation is an ideal
                if not (ulo <= ku <= uhi):
                    raise WindowOverflow(f"u^{ku} outside window [{ulo}, {uhi}]")
                add_term(self.c, (kt, ku), v)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nt, u_window=(0, 0)):
        return cls({}, nt=nt, u_window=u_window)

    @classmethod
    def scalar(cls, v, nt, u_window=(0, 0)):
        return cls({(0, 0): v}, nt=nt, u_window=u_window)

    @classmethod
    def monomial(cls, kt, ku, nt, u_window=(0, 0), coeff=1):
        return cls({(kt, ku): coeff}, nt=nt, u_window=u_window)

    def _like(self, c):
        s = object.__new__(FormalSeries)
        s.nt, s.ulo, s.uhi, s.c = self.nt, self.ulo, self.uhi, c
        return s

    def coeff(self, kt, ku):
        return self.c.get((kt, ku), Fraction(0))

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return self.__rmul__(other)
        return series_mul(self, other)

    def __hash__(self):
        return hash((self.nt, self.ulo, self.uhi, frozenset(self.c.items())))

    def __repr__(self):
        if not self.c:
            return "FormalSeries(0)"
        bits = []
        for (kt, ku) in sorted(self.c):
            bits.append(f"{self.c[(kt, ku)]}*t^{kt}*u^{ku}")
        return "FormalSeries(" + " + ".join(bits) + ")"


def series_mul(a, b):
    """Product of two series with identical caps.

    t-degrees above the cap are discarded silently; a nonzero coefficient
    landing outside the u-window raises WindowOverflow (coefficients that
    cancel to zero outside the window are not an error).
    """
    a._same(b)
    acc = {}
    for (ta, ua), va in a.c.items():
        for (tb, ub), vb in b.c.items():
            kt = ta + tb
            if kt > a.nt:
                continue
            add_term(acc, (kt, ua + ub), va * vb)
    for _, ku in acc:
        if not (a.ulo <= ku <= a.uhi):
            raise WindowOverflow(f"u^{ku} outside window [{a.ulo}, {a.uhi}]")
    return a._like(acc)
