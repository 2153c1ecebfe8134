"""Rational expressions in parameters and their independent conjugates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh import scalar
from nilcoh.catalog import get
from nilcoh.dsl import parse_gauss
from nilcoh.gauss import GaussRat
from nilcoh.scalar import S_I, S_ONE, S_ZERO, ScalarEvalError, ScalarExpr


def _t():
    return ScalarExpr.param("t")


def test_constants_and_predicates():
    assert S_ZERO.is_zero()
    assert S_ONE.is_const() and S_ONE.const_value() == GaussRat(1)
    assert S_I * S_I == ScalarExpr.const(-1)
    assert not _t().is_const()
    assert _t().params() == {"t"}


def test_conjugate_symbol_is_independent():
    t = _t()
    tc = ScalarExpr.conj_param("t")
    assert t.conj() == tc
    assert tc.conj() == t
    assert not (t - tc).is_zero()
    # |t|^2 evaluates with the conjugate bound to the conjugated value
    norm = t * tc
    v = parse_gauss("(1+i)/3")
    assert norm.evaluate({"t": v}) == v * v.conj()


def test_arithmetic_and_equality_by_cross_multiplication():
    t = _t()
    one = S_ONE
    left = (one - t * t) / (one - t)  # == 1 + t away from t=1
    right = one + t
    assert left == right  # mathematical equality, not structural
    assert left - right == S_ZERO
    assert left / right == S_ONE


def test_evaluate_and_vanishing_denominator():
    t = _t()
    f = S_ONE / (S_ONE - t)
    assert f.evaluate({"t": parse_gauss("1/2")}) == GaussRat(2)
    with pytest.raises(ScalarEvalError):
        f.evaluate({"t": parse_gauss("1")})


def test_conj_distributes():
    t, u = _t(), ScalarExpr.param("u")
    expr = (t * u + S_I) / (S_ONE - t)
    ec = expr.conj()
    v = {"t": parse_gauss("1/3"), "u": parse_gauss("i/2")}
    assert ec.evaluate(v) == expr.evaluate(v).conj()


def test_str_is_parseable_scalar_syntax():
    t = _t()
    shown = str((ScalarExpr.const(2) * t * t.conj() - S_I) / (S_ONE - t))
    # frozen surface form: numerator (constant term first), then denominator
    assert shown == "(-i+2*t*conj(t))/(1-t)"


def test_str_golden_forms():
    t = _t()
    assert str(S_ZERO) == "0"
    assert str(S_ONE) == "1"
    assert str(-S_ONE) == "-1"
    assert str(t * t) == "t^2"
    assert str(ScalarExpr.const(GaussRat(0, Fraction(1, 2))) * t) == "1/2*i*t"


_vals = st.sampled_from([parse_gauss(s) for s in
                         ["0", "1", "-1", "1/2", "i", "-i/3", "(1+i)/3", "2"]])


@st.composite
def _exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return ScalarExpr.const(draw(_vals))
        if kind == 1:
            return ScalarExpr.param(draw(st.sampled_from("tuv")))
        return ScalarExpr.conj_param(draw(st.sampled_from("tuv")))
    a = draw(_exprs(depth=depth + 1))
    b = draw(_exprs(depth=depth + 1))
    op = draw(st.integers(0, 2))
    return a + b if op == 0 else a - b if op == 1 else a * b


@settings(max_examples=60)
@given(_exprs(), _exprs())
def test_evaluation_is_a_homomorphism(a, b):
    assign = {"t": parse_gauss("1/3"), "u": parse_gauss("i/2"),
              "v": parse_gauss("-2")}
    assert (a + b).evaluate(assign) == a.evaluate(assign) + b.evaluate(assign)
    assert (a * b).evaluate(assign) == a.evaluate(assign) * b.evaluate(assign)
    assert a.conj().evaluate(assign) == a.evaluate(assign).conj()


@settings(max_examples=60)
@given(_exprs())
def test_conj_is_an_involution(a):
    assert a.conj().conj() == a


# -- straight-line programs against the expanded fraction ------------------


def _expanded(e):
    """The same fraction without its recorded program: evaluate() then
    reads the expanded num/den, as it does for node-less expressions."""
    return ScalarExpr(e.num, e.den)


def _outcome(e, assign):
    try:
        return e.evaluate(assign)
    except ScalarEvalError as err:
        return f"ScalarEvalError: {err}"


_small = st.sampled_from([parse_gauss(s) for s in ["0", "1", "-1", "1/2", "i", "-i", "1+i"]])


@st.composite
def _rational_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return ScalarExpr.const(draw(_small))
        if kind == 1:
            return ScalarExpr.param("t")
        if kind == 2:
            return ScalarExpr.conj_param("t")
        return ScalarExpr.param("s")
    a = draw(_rational_exprs(depth=depth + 1))
    op = draw(st.integers(0, 4))
    if op == 4:
        return a.conj()
    b = draw(_rational_exprs(depth=depth + 1))
    if op == 3:
        return a / b if not b.is_zero() else a
    return a + b if op == 0 else a - b if op == 1 else a * b


@settings(max_examples=300, deadline=None)
@given(_rational_exprs(), _small, _small, st.booleans())
def test_program_agrees_with_expanded_fraction(e, t, s, s_assigned):
    assign = {"t": t, "s": s} if s_assigned else {"t": t}
    assert _outcome(e, assign) == _outcome(_expanded(e), assign)


def test_program_failure_falls_back_to_expanded_fraction():
    a, x = ScalarExpr.param("a"), ScalarExpr.param("X")
    e = a / (S_ONE / x)  # expands to a*X/1, defined at X = 0
    assign = {"a": parse_gauss("3"), "X": parse_gauss("0")}
    assert e.evaluate(assign) == GaussRat(0)
    # a parameter that cancels need not be assigned
    assert (x - x + a).evaluate({"a": parse_gauss("2")}) == GaussRat(2)
    with pytest.raises(ScalarEvalError, match="^unassigned parameter 'a'$"):
        (a * x).evaluate({"X": parse_gauss("1")})


@pytest.mark.parametrize("value", ["1/2", "1/2*i"])
def test_sigma_samples_skipped_by_validate_fail_the_same_way(value):
    coeffs = [c for _, c in get("iwasawa_sigma_family").spec.d_phi[2].items()]
    assign = {p: parse_gauss(value) for p in ("t11", "t12", "t21", "t22")}
    outcomes = [_outcome(c, assign) for c in coeffs]
    assert outcomes == [_outcome(_expanded(c), assign) for c in coeffs]
    assert any(isinstance(o, str) and "vanishes at the assignment" in o for o in outcomes)


def test_sigma_evaluation_expands_no_polynomial(monkeypatch):
    spec = get("iwasawa_sigma_family").spec
    sizes = []
    orig = scalar._p_eval

    def counting(poly, assign):
        sizes.append(len(poly))
        return orig(poly, assign)

    monkeypatch.setattr(scalar, "_p_eval", counting)
    assign = {"t11": parse_gauss("1/3"), "t12": parse_gauss("i/4"),
              "t21": parse_gauss("-1/5+1/6*i"), "t22": parse_gauss("1/6")}
    concrete = spec.evaluate(assign)
    assert sizes and max(sizes) <= 1
    monkeypatch.undo()
    for (mono, c) in spec.d_phi[2].items():
        assert concrete.d_phi[2].coeff(mono).const_value() == _expanded(c).evaluate(assign)
