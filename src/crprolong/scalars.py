"""Exact scalar arithmetic over Q and Q(i).

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  Gaussian rationals are immutable pairs of rationals with
field arithmetic; text form is ``(re)+(im)i`` with each part in the
rational text form ``p`` or ``p/q``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

Rational = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (q > 0 after reduction is guaranteed by Fraction)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def json_int(x) -> int:
    """An integer read from JSON: an int or its decimal text.  A JSON float or
    boolean is not an exact integer, so it raises TypeError."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"not an exact integer: {x!r}")
    return int(x)


_GAUSS_RE = _re.compile(r"^\((-?\d+(?:/\d+)?)\)\+\((-?\d+(?:/\d+)?)\)i$")


class GaussianRational:
    """An element of Q(i), held as exact real and imaginary rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # accept int, Fraction, GaussianRational (with im == 0 only)
        if isinstance(re, GaussianRational):
            if im:
                raise TypeError("cannot combine GaussianRational with extra imag part")
            object.__setattr__(self, "re", re.re)
            object.__setattr__(self, "im", re.im)
            return
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ---------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.im:
            return GaussianRational(self.re * o.re, self.im * o.re)
        if not self.im:
            return GaussianRational(self.re * o.re, self.re * o.im)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if not d:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparisons / hashing ----------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text ----------------------------------------------------------
    def __str__(self):
        return f"({self.re})+({self.im})i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        if not isinstance(text, str):
            raise ValueError(f"not a Gaussian rational: {text!r}")
        m = _GAUSS_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a Gaussian rational: {text!r}")
        return GaussianRational(parse_rational(m.group(1)), parse_rational(m.group(2)))


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
