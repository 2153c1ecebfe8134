"""Exact Gaussian-rational arithmetic."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcoh.dsl import parse_gauss
from nilcoh.exterior import BigradedElement
from nilcoh.gauss import GaussRat, I, ONE, ZERO
from nilcoh.scalar import ScalarExpr
from reference import gen, norm2


def test_constructor_and_accessors():
    x = GaussRat(Fraction(3, 4), Fraction(-1, 2))
    assert x.re == Fraction(3, 4)
    assert x.im == Fraction(-1, 2)
    assert not x.is_zero()
    assert x.im != 0
    assert GaussRat(Fraction(5)).im == 0
    assert ZERO.is_zero() and not bool(ZERO) and bool(ONE)


def test_field_operations_exact():
    a = GaussRat(Fraction(1, 3), Fraction(1, 2))
    b = GaussRat(Fraction(-2), Fraction(1, 5))
    assert a + b == GaussRat(Fraction(-5, 3), Fraction(7, 10))
    assert a - b == GaussRat(Fraction(7, 3), Fraction(3, 10))
    # (1/3 + i/2)(-2 + i/5) = -2/3 - 1/10 + i(1/15 - 1)
    assert a * b == GaussRat(Fraction(-23, 30), Fraction(-14, 15))
    assert (a / b) * b == a
    assert -a + a == ZERO


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@pytest.mark.parametrize("inexact", [0.1, "1/3", Decimal("0.5"), 1j])
def test_constructor_refuses_inexact_parts(inexact):
    with pytest.raises(TypeError, match="an int or a Fraction"):
        GaussRat(inexact)
    with pytest.raises(TypeError):
        GaussRat(1, inexact)
    # nor does one reach a form through its coefficients or a scaling
    with pytest.raises(TypeError):
        ScalarExpr.const(inexact)
    with pytest.raises(TypeError):
        BigradedElement({((0, 1),): inexact})
    with pytest.raises(TypeError):
        gen(1).scale(inexact)


def test_conjugation_and_i():
    assert I * I == -ONE
    x = GaussRat(Fraction(2, 7), Fraction(-3))
    assert x.conj() == GaussRat(Fraction(2, 7), Fraction(3))
    assert (x * x.conj()).im == 0
    assert x * x.conj() == GaussRat(Fraction(4, 49) + Fraction(9))


def test_parse_gauss_goldens():
    assert parse_gauss("0") == ZERO
    assert parse_gauss("1/2") == GaussRat(Fraction(1, 2))
    assert parse_gauss("i") == I
    assert parse_gauss("i/2") == GaussRat(0, Fraction(1, 2))
    assert parse_gauss("2i") == GaussRat(0, 2)
    assert parse_gauss("-1/3") == GaussRat(Fraction(-1, 3))
    assert parse_gauss("(1+i)/3") == GaussRat(Fraction(1, 3), Fraction(1, 3))
    assert parse_gauss("1/2*i") == GaussRat(0, Fraction(1, 2))


def test_str_reparses_to_same_value():
    for s in ["0", "1", "-1", "1/2", "i", "-i", "2i", "(1+i)/3", "-2/7", "3/4*i"]:
        x = parse_gauss(s)
        assert parse_gauss(str(x)) == x


_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
_gauss = st.builds(GaussRat, _fracs, _fracs)


@given(_gauss, _gauss, _gauss)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(_gauss)
def test_field_inverse_and_conj_involution(a):
    assert a.conj().conj() == a
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@given(_gauss, _gauss)
def test_conj_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


# ---------------------------------------------------------------------------
# reference: a pair of Fractions, the representation GaussRat used to have


def _str_reference(re, im):
    if not re and not im:
        return "0"
    parts = [str(re)] if re else []
    if im:
        im_s = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
        parts.append("+" + im_s if parts and not im_s.startswith("-") else im_s)
    return "".join(parts)


def _normal_form(z):
    return z._q > 0 and gcd(z._a, z._b, z._q) == 1


_small = st.one_of(_fracs, st.integers(-3, 3).map(Fraction))


def test_equal_values_hash_equal_across_types():
    for value in (0, 3, -2, Fraction(1, 2), Fraction(-7, 3)):
        z = GaussRat(value)
        assert z == value and hash(z) == hash(value)
        assert len({z, value}) == 1 and hash(ScalarExpr.const(value)) == hash(value)
    assert len({ScalarExpr.const(3), 3}) == 1


@given(_small, _small, _small, _small)
def test_int_backed_scalar_matches_fraction_pair_reference(ar, ai, br, bi):
    a, b = GaussRat(ar, ai), GaussRat(br, bi)
    pair = lambda z: (z.re, z.im)  # noqa: E731
    assert type(a.re) is Fraction and type(a.im) is Fraction
    assert pair(a) == (ar, ai) and pair(b) == (br, bi)
    assert pair(a + b) == (ar + br, ai + bi)
    assert pair(a - b) == (ar - br, ai - bi)
    assert pair(-a) == (-ar, -ai)
    assert pair(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
    assert pair(a.conj()) == (ar, -ai)
    assert norm2(a) == ar * ar + ai * ai and type(norm2(a)) is Fraction
    n = br * br + bi * bi
    if n:
        assert pair(a / b) == ((ar * br + ai * bi) / n, (ai * br - ar * bi) / n)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert (a == b) == ((ar, ai) == (br, bi))
    # equal values hash equal, whether int, Fraction or GaussRat
    for other in (b, br, int(br)):
        assert hash(a) == hash(other) or a != other
    assert str(a) == _str_reference(ar, ai)
    assert bool(a) == (ar != 0 or ai != 0) == (not a.is_zero())
    # mixed with int and Fraction operands, on either side
    assert pair(a + 1) == pair(1 + a) == (ar + 1, ai)
    assert pair(2 * a) == pair(a * 2) == (2 * ar, 2 * ai)
    assert pair(br - a) == (br - ar, -ai)
    assert (a == ar) == (ai == 0)
    # normal form: q > 0, gcd(a, b, q) = 1, so zero has the single form 0/1
    for z in (a, b, a + b, a - b, a * b, a.conj(), -a, a - a, a * 0):
        assert _normal_form(z)
    assert (a - a)._a == (a - a)._b == 0 and (a - a)._q == 1
    if n:
        assert _normal_form(a / b)
