"""Rational expressions in parameters and their independent conjugates."""

import hashlib
import operator
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh import dsl, scalar
from nilcoh.catalog import get
from nilcoh.dsl import parse_gauss
from nilcoh.exterior import BigradedElement
from nilcoh.gauss import GaussRat, InternalError
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
    tc = ScalarExpr.param("t").conj()
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
        return ScalarExpr.param(draw(st.sampled_from("tuv"))).conj()
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


@st.composite
def _polynomials(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        return ScalarExpr.const(draw(_vals)) if kind == 0 else ScalarExpr.param("ts"[kind - 1])
    a = draw(_polynomials(depth=depth + 1))
    b = draw(_polynomials(depth=depth + 1))
    op = draw(st.integers(0, 2))
    return a + b if op == 0 else a - b if op == 1 else a * b


@settings(max_examples=100, deadline=None)
@given(_polynomials(), _vals, _vals)
def test_at_specialises_a_polynomial(e, z, w):
    # the node-less specialisation against the program of e
    at_t = e.at("t", z)
    assert at_t.node is None
    assert at_t.evaluate({"s": w}) == e.evaluate({"t": z, "s": w})
    point = at_t.at("s", w)
    assert point.is_const() and point.const_value() == e.evaluate({"t": z, "s": w})


def test_at_refuses_a_fraction():
    with pytest.raises(InternalError):
        (S_ONE / _t()).at("t", 1)


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
            return ScalarExpr.param("t").conj()
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


def _hash_or_none(e):
    try:
        return hash(e)
    except TypeError:
        return None


def _assert_hash_agrees(a, b):
    """Equal scalars hash equal, unless one of them is unhashable."""
    if a == b:
        ha, hb = _hash_or_none(a), _hash_or_none(b)
        assert ha is None or hb is None or ha == hb, (str(a), str(b))


@settings(max_examples=200, deadline=None)
@given(_rational_exprs(), _rational_exprs())
def test_equal_scalars_hash_equal_or_are_unhashable(a, b):
    _assert_hash_agrees(a, b)
    _assert_hash_agrees(a, a + b - b)
    if not b.is_zero():
        _assert_hash_agrees(a, a * b / b)
        _assert_hash_agrees(b / b, S_ONE)


def test_fractions_equal_in_other_shapes_are_not_hashed_apart():
    t = _t()
    pairs = [(t / t, S_ONE), ((S_ONE - t * t) / (S_ONE - t), S_ONE + t)]
    for a, b in pairs:
        assert a == b
        _assert_hash_agrees(a, b)
    with pytest.raises(TypeError):
        {pairs[1][0], pairs[1][1]}
    with pytest.raises(TypeError):
        {BigradedElement.gen(1, coeff=pairs[1][0]), BigradedElement.gen(1, coeff=pairs[1][1])}
    # constants keep their hash, that of the GaussRat they equal
    assert hash(ScalarExpr.const(GaussRat(Fraction(1, 2)))) == hash(GaussRat(Fraction(1, 2)))


def test_fraction_operands_are_accepted_as_by_gauss_rat():
    # == and arithmetic take the same operand types as GaussRat does
    half = Fraction(1, 2)
    assert ScalarExpr.const(half) == half and half == ScalarExpr.const(half)
    assert ScalarExpr.const(half) != Fraction(1, 3)
    assert ScalarExpr.const(GaussRat(half)) == GaussRat(half) == half
    t = _t()
    assert t + half == t + ScalarExpr.const(half) == half + t
    assert (t * half - half / t).evaluate({"t": GaussRat(2)}) == Fraction(3, 4)
    assert not t == half and t != half
    for foreign in (0.5, "1/2"):
        assert not ScalarExpr.const(half) == foreign
        with pytest.raises(TypeError):
            t + foreign
    # a GaussRat operand on either side of + - * / leaves the answer to ScalarExpr
    two, three = GaussRat(2), GaussRat(3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(two, t).evaluate({"t": three}) == op(two, three)
        assert op(t, two).evaluate({"t": three}) == op(three, two)
        for pair in ((two, 0.5), (0.5, two)):
            with pytest.raises(TypeError):
                op(*pair)


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


# -- the packed polynomial kernel against the tuple-monomial reference ------
#
# The reference is the product this kernel replaced: a monomial is a sorted
# tuple of ((name, barred), exponent) pairs, () the constant, and every term
# product is one GaussRat multiply and add.


def _ref_m_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for sym, e in m2:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items()))


def _ref_p_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = _ref_m_mul(k1, k2)
            s = out.get(k)
            s = v1 * v2 if s is None else s + v1 * v2
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _ref_p_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out[k] + v if k in out else v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _ref_fraction(num, den):
    """num/den scaled as ScalarExpr scales it: the lead of den is 1."""
    if not num:
        return {}, {(): GaussRat(1)}
    inv = GaussRat(1) / den[min(den)]
    return {k: v * inv for k, v in num.items()}, {k: v * inv for k, v in den.items()}


def _ref_p_str(a):
    if not a:
        return "0"
    parts = []
    for k in sorted(a):
        cs = str(a[k])
        syms = [(f"conj({n})" if bar else n) + (f"^{e}" if e > 1 else "")
                for (n, bar), e in k]
        if syms and cs == "1":
            term = "*".join(syms)
        elif syms and cs == "-1":
            term = "-" + "*".join(syms)
        else:
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            term = "*".join([cs] + syms)
        parts.append(term)
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


def _ref_str(num, den):
    ns = _ref_p_str(num)
    if den == {(): GaussRat(1)}:
        return ns
    if len(num) > 1 or ns.startswith("-"):
        ns = f"({ns})"
    return f"{ns}/({_ref_p_str(den)})"


def _ref_conj(a):
    return {tuple(sorted(((n, 1 - bar), e) for (n, bar), e in k)): v.conj()
            for k, v in a.items()}


def _ref_eval(a, assign):
    total = GaussRat(0)
    for k, v in a.items():
        for (n, bar), e in k:
            z = assign[n].conj() if bar else assign[n]
            for _ in range(e):
                v = v * z
        total = total + v
    return total


def _packed(a):
    """A reference polynomial with its monomials packed."""
    out = {}
    for k, v in a.items():
        m = 0
        for (n, bar), e in k:
            m += scalar._m_symbol(n, bar) * e
        out[m] = v
    return out


def _unpacked(a):
    return {scalar._decode(k): v for k, v in a.items()}


_coeffs = st.builds(
    lambda a, b, q: GaussRat(Fraction(a, q), Fraction(b, q)),
    st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1, 2, 3, 6]),
).filter(lambda c: not c.is_zero())
_monos = st.dictionaries(
    st.tuples(st.sampled_from(["t", "s", "zz"]), st.integers(0, 1)),
    st.integers(1, 3), max_size=3,
).map(lambda d: tuple(sorted(d.items())))
_polys = st.dictionaries(_monos, _coeffs, max_size=5)


@st.composite
def _factor_pairs(draw):
    """Two reference polynomials; half the time (p + q) and (p - q), whose
    cross terms cancel."""
    p, q = draw(_polys), draw(_polys)
    if draw(st.booleans()):
        return p, q
    return _ref_p_add(p, q), _ref_p_add(p, {k: -v for k, v in q.items()})


@settings(max_examples=300, deadline=None)
@given(_factor_pairs(), _polys, _coeffs, _coeffs, _coeffs)
def test_packed_product_agrees_with_tuple_reference(pair, c, t, s, zz):
    a, b = pair
    ref = _ref_p_mul(a, b)
    assert _unpacked(scalar._p_mul(_packed(a), _packed(b))) == ref
    assert _unpacked(scalar._p_mul(_packed(b), _packed(a))) == ref

    # the ScalarExpr (a*b)/c, read through every public reader
    e = ScalarExpr(_packed(a)) * ScalarExpr(_packed(b))
    if c:
        e = e / ScalarExpr(_packed(c))
    num, den = _ref_fraction(ref, c or {(): GaussRat(1)})
    assert (_unpacked(e.num), _unpacked(e.den)) == (num, den)
    assert str(e) == _ref_str(num, den)
    assert e.params() == {n for k in list(num) + list(den) for (n, _), _ in k}
    conj_num, conj_den = _ref_fraction(_ref_conj(num), _ref_conj(den))
    assert (_unpacked(e.conj().num), _unpacked(e.conj().den)) == (conj_num, conj_den)
    assign = {"t": t, "s": s, "zz": zz}
    d = _ref_eval(den, assign)
    if d:
        assert ScalarExpr(e.num, e.den).evaluate(assign) == _ref_eval(num, assign) / d
    # == cross-multiplies: e equals the fraction rebuilt from the reference
    # product, and differs from it plus one
    f = ScalarExpr(_packed(num), _packed(den))
    assert e == f and not e == f + S_ONE


def test_sigma_family_text_is_pinned():
    spec = get("iwasawa_sigma_family").spec
    text = dsl.pretty(spec).encode()
    assert len(text) == 86749
    assert hashlib.sha256(text).hexdigest() == (
        "8e747a720bfbdda5956739c734755b20c06957b35927db4cdfb3b08800e7d6f8"
    )
    assert [(len(c.num), len(c.den)) for _, c in spec.d_phi[2].items()] == [
        (758, 798), (8, 22), (18, 40), (8, 22), (8, 22)
    ]


_PRINT_CATALOG = """
import sys
from nilcoh import catalog, dsl
from nilcoh.scalar import ScalarExpr
if sys.argv[1] == "reordered":
    for name in ("zz", "t22", "t", "t21", "s"):
        ScalarExpr.param(name).conj()
    ScalarExpr.param("t12").conj() * ScalarExpr.param("t11")
for entry in catalog.catalog():
    print(dsl.pretty(entry.spec))
"""


def test_printed_catalog_does_not_depend_on_symbol_order():
    outs = [
        subprocess.run([sys.executable, "-c", _PRINT_CATALOG, order],
                       capture_output=True, text=True, check=True).stdout
        for order in ("plain", "reordered")
    ]
    assert outs[0] == outs[1] and "t11" in outs[0]


def test_exponent_overflow_raises_under_O():
    script = (
        "from nilcoh.scalar import ScalarExpr\n"
        "from nilcoh.gauss import InternalError\n"
        "t = ScalarExpr.param('t')\n"
        "for _ in range(30):\n"
        "    t = t * t\n"
        "print(str(t))\n"
        "for big in (t, t + 1):  # one term, and the accumulating product\n"
        "    try:\n"
        "        big * big\n"
        "    except InternalError as e:\n"
        "        print(e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"t^{2 ** 30}", *["the exponent of t overflows its 32-bit slot"] * 2
    ]
