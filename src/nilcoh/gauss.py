"""Exact Gaussian-rational arithmetic: numbers a + b*i with a, b rational.

Every quantity the engine touches is one of these (or a symbolic expression
whose evaluation yields one).  No floats, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class InternalError(AssertionError):
    """An exactness invariant failed: a bug in nilcoh, never a property of
    the input.  Raised explicitly, so it also fires under `python -O`."""


class GaussRat:
    """Immutable element of Q(i), stored as integers (a + b*i)/q in normal
    form: q > 0 and gcd(a, b, q) = 1, so every value (zero included) has
    exactly one representation.  re and im are read as Fractions."""

    __slots__ = ("_a", "_b", "_q")

    def __init__(self, re=0, im=0):
        for x in (re, im):
            if not isinstance(x, _RATIONALS):
                raise TypeError(f"a part of a Q(i) number is an int or a Fraction, "
                                f"not {type(x).__name__}")
        re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        q = dr * di // gcd(dr, di)
        self._a = re.numerator * (q // dr)
        self._b = im.numerator * (q // di)
        self._q = q

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._q)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._q)

    # -- basic predicates ------------------------------------------------

    def is_zero(self):
        return not self._a and not self._b

    def __bool__(self):
        return self._a != 0 or self._b != 0

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussRat:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussRat(other)
        q, r = self._q, other._q
        if q == r:
            return _normal(self._a + other._a, self._b + other._b, q)
        return _normal(self._a * r + other._a * q, self._b * r + other._b * q, q * r)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussRat:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussRat(other)
        q, r = self._q, other._q
        if q == r:
            return _normal(self._a - other._a, self._b - other._b, q)
        return _normal(self._a * r - other._a * q, self._b * r - other._b * q, q * r)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        return GaussRat(other) - self

    def __neg__(self):
        return _normal(-self._a, -self._b, self._q)

    def __mul__(self, other):
        if other.__class__ is not GaussRat:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussRat(other)
        a, b, c, d = self._a, self._b, other._a, other._b
        return _normal(a * c - b * d, a * d + b * c, self._q * other._q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussRat:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussRat(other)
        a, b, c, d = self._a, self._b, other._a, other._b
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        r = other._q
        return _normal(r * (a * c + b * d), r * (b * c - a * d), self._q * n)

    def __rtruediv__(self, other):
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        return GaussRat(other) / self

    def conj(self):
        return _normal(self._a, -self._b, self._q)

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussRat:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussRat(other)
        return self._a == other._a and self._b == other._b and self._q == other._q

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if not self._b:
            return hash(self._a) if self._q == 1 else hash(self.re)
        return hash((self.re, self.im))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        """Canonical form: "0", "a/b", "c/d*i" (with "i"/"-i" for unit), "a/b+c/d*i"."""
        terms = []
        if self._a:
            terms.append((str(self.re), ""))
        if self._b:
            terms.append((str(self.im), "i"))
        return term_sum(terms)

    def __repr__(self):
        return f"GaussRat({self})"


def term_sum(terms):
    """The one printer of a signed sum of (coefficient, factor) texts, each
    coefficient wrapped by its caller where it needs it: no factor prints the
    coefficient alone, 1 and -1 before a factor are elided, no terms is "0"."""
    parts = []
    for cs, fs in terms:
        if not fs:
            term = cs
        elif cs == "1":
            term = fs
        elif cs == "-1":
            term = "-" + fs
        else:
            term = f"{cs}*{fs}"
        parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts) or "0"


_new = object.__new__


def _normal(a, b, q):
    """GaussRat (a + b*i)/q for q > 0, brought into normal form."""
    if q != 1:
        g = gcd(a, b, q)
        if g != 1:
            a, b, q = a // g, b // g, q // g
    z = _new(GaussRat)
    z._a, z._b, z._q = a, b, q
    return z


# the operands other than GaussRat that arithmetic and == take; for any
# other type they return NotImplemented, so a ScalarExpr answers GaussRat * t
# and a float raises TypeError
_RATIONALS = (int, Fraction)


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
