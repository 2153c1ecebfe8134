"""Bigraded exterior algebra on phi^1..phi^n, phi^1bar..phi^nbar.

A monomial has one spelling throughout nilcoh: the sorted tuple of its
generator tokens, (0, i) for phi^i and (1, i) for phi^ibar.  Tuple order is
the global generator order (holomorphic generators first, each kind by
ascending index), so f1^f3^F2 is ((0, 1), (0, 3), (1, 2)) and the empty
tuple is the unit.  All signs flow from counting transpositions against that
order.  Elements are sparse maps monomial -> ScalarExpr with zero
coefficients absent, so structural equality is exact equality of forms.
"""

from __future__ import annotations

from .gauss import term_sum
from .scalar import ScalarExpr, S_ONE, S_ZERO


def mono_bidegree(m):
    q = sum(b for b, _ in m)
    return (len(m) - q, q)


def mono_str(m):
    return "^".join(f"{'fF'[b]}{i}" for b, i in m) or "1"


def mono_wedge(a, b):
    """Wedge of monomials: (sign, monomial), or (0, None) on a repeated token."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the len(a)-i remaining tokens of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def mono_conj(m):
    """Conjugate monomial and the sign of re-sorting it: (-1)^(p*q)."""
    p, q = mono_bidegree(m)
    sign = -1 if (p * q) % 2 else 1
    return sign, tuple((1 - b, i) for b, i in m[p:] + m[:p])


class BigradedElement:
    """Sparse form: {monomial: ScalarExpr}, zero coefficients never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for m, c in coeffs.items():
                if not isinstance(c, ScalarExpr):
                    c = ScalarExpr.const(c)
                if not c.is_zero():
                    clean[m] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BigradedElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(): S_ONE})

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def bidegrees(self):
        return sorted({mono_bidegree(m) for m in self.coeffs})

    def coeff(self, m):
        return self.coeffs.get(m, S_ZERO)

    def params(self):
        names = set()
        for c in self.coeffs.values():
            names |= c.params()
        return names

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return BigradedElement(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BigradedElement({m: -c for m, c in self.coeffs.items()})

    def scale(self, scalar):
        if not isinstance(scalar, ScalarExpr):
            scalar = ScalarExpr.const(scalar)
        if scalar.is_zero():
            return BigradedElement.zero()
        return BigradedElement({m: c * scalar for m, c in self.coeffs.items()})

    def wedge(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                sign, m = mono_wedge(m1, m2)
                if sign == 0:
                    continue
                term = c1 * c2 if sign > 0 else -(c1 * c2)
                s = out.get(m)
                s = term if s is None else s + term
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return BigradedElement(out)

    def conj(self):
        out = {}
        for m, c in self.coeffs.items():
            sign, mc = mono_conj(m)
            out[mc] = c.conj() if sign > 0 else -c.conj()
        return BigradedElement(out)

    def project(self, p, q):
        """Bidegree-(p,q) component."""
        return BigradedElement(
            {m: c for m, c in self.coeffs.items() if mono_bidegree(m) == (p, q)}
        )

    def evaluate(self, assign):
        """Substitute parameters; may raise ScalarEvalError."""
        return BigradedElement(
            {m: ScalarExpr.const(c.evaluate(assign)) for m, c in self.coeffs.items()}
        )

    def wedge_power(self, k):
        out = BigradedElement.one()
        for _ in range(k):
            out = out.wedge(self)
        return out

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BigradedElement):
            return NotImplemented
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(self.coeffs[m] == other.coeffs[m] for m in self.coeffs)

    def __hash__(self):
        # a parametric coefficient is unhashable, and so is its form
        return hash(tuple((m, c) for m, c in self.items()))

    def __str__(self):
        terms = []
        for m, c in self.items():
            # a constant prints bare, so that a complex one is wrapped once
            cs = str(c.const_value() if c.is_const() else c)
            if m and (("+" in cs[1:]) or ("-" in cs[1:]) or "/" in cs):
                cs = f"({cs})"
            terms.append((cs, mono_str(m) if m else ""))
        return term_sum(terms)

    def __repr__(self):
        return f"<form {self}>"


def substitute(element, mapping):
    """Pull a form back along a generator map: replace each generator token
    by the 1-form mapping[token]."""
    out = BigradedElement.zero()
    for m, coeff in element.coeffs.items():
        term = BigradedElement.one().scale(coeff)
        for tok in m:
            term = term.wedge(mapping[tok])
            if term.is_zero():
                break
        out = out + term
    return out
