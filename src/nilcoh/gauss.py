"""Exact Gaussian-rational arithmetic: numbers a + b*i with a, b rational.

Every quantity the engine touches is one of these (or a symbolic expression
whose evaluation yields one).  No floats, ever.
"""

from __future__ import annotations

from fractions import Fraction


class InternalError(AssertionError):
    """An exactness invariant failed: a bug in nilcoh, never a property of
    the input.  Raised explicitly, so it also fires under `python -O`."""


class GaussRat:
    """Immutable element of Q(i), stored as a pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- basic predicates ------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    def __bool__(self):
        return not self.is_zero()

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conj(self):
        return GaussRat(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2, an ordinary rational."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        """Canonical form: "0", "a/b", "c/d*i" (with "i"/"-i" for unit), "a/b+c/d*i"."""
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                im_s = "i"
            elif self.im == -1:
                im_s = "-i"
            else:
                im_s = f"{self.im}*i"
            if parts and not im_s.startswith("-"):
                parts.append("+" + im_s)
            else:
                parts.append(im_s)
        return "".join(parts)

    def __repr__(self):
        return f"GaussRat({self})"


def _coerce(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
