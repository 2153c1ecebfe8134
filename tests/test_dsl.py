"""Structure-equation language: parsing, canonical printing, errors."""

import contextlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh import cli, dsl
from nilcoh.catalog import catalog
from nilcoh.dsl import DslError, FLAG_NAME, parse, parse_form, parse_gauss, parse_scalar, pretty
from nilcoh.scalar import S_I, ScalarExpr
from reference import gen, mono

BASIC = """\
algebra "demo" dim 4
param t
flag invariant_cohomology_is_manifold_cohomology true

# two non-trivial equations
d f3 = f1^F1
d f4 = (1/(1-t*conj(t))) * f1^f2 - (t/(1-t*conj(t))) * f1^F2
"""


def test_parse_basic():
    spec = parse(BASIC)
    assert spec.name == "demo"
    assert spec.n == 4
    assert spec.params == ("t",)
    assert spec.flag_invariant_ok is True
    assert spec.d_gen(1, False).is_zero() and spec.d_gen(2, False).is_zero()
    assert not spec.d_gen(3, False).is_zero()
    c = spec.d_gen(4, False).coeff(mono((1, 2), ()))
    assert c.evaluate({"t": parse_gauss("1/2")}) == parse_gauss("4/3")


def test_flag_name_constant():
    assert FLAG_NAME == "invariant_cohomology_is_manifold_cohomology"
    spec = parse('algebra "x" dim 2\nflag invariant_cohomology_is_manifold_cohomology false')
    assert spec.flag_invariant_ok is False
    spec2 = parse('algebra "x" dim 2')
    assert spec2.flag_invariant_ok is None


def test_unicode_minus_accepted():
    spec = parse('algebra "x" dim 2\nd f2 = −1/2 * f1^F1')
    assert spec.d_gen(2, False).coeff(mono((1,), (1,))).const_value() == parse_gauss("-1/2")


def test_pretty_is_canonical_fixed_point():
    spec = parse(BASIC)
    once = pretty(spec)
    assert pretty(parse(once)) == once


def test_pretty_round_trips_every_catalog_entry():
    for entry in catalog():
        text = pretty(entry.spec)
        reparsed = parse(text)
        assert pretty(reparsed) == text
        assert reparsed.name == entry.spec.name
        assert reparsed.params == entry.spec.params
        assert reparsed.flag_invariant_ok == entry.spec.flag_invariant_ok
        for j in range(1, entry.spec.n + 1):
            assert (reparsed.d_gen(j, False) - entry.spec.d_gen(j, False)).is_zero()


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("param t", "header line must come first"),
        ('algebra "x" dim 0', "dim must be at least 1"),
        ('algebra "x" dim 2\nd f3 = f1^f2', "unknown generator 'f3' (dim is 2)"),
        ('algebra "x" dim 2\nd f1 = f1^f2\nd f1 = f1^f2', "duplicate equation for f1"),
        ('algebra "x" dim 2\nd F1 = f1^f2', "structure equations are given on f1..fn"),
        ('algebra "x" dim 2\nflag invariant_cohomology_is_manifold_cohomology maybe',
         "flag value must be true or false"),
        ('algebra "x" dim 2\nd f1 = t*f1^f2', "undeclared parameter 't'"),
        ('algebra "x" dim 3\nd f1 = f1^f2^f3',
         "each term must be a wedge of exactly two generators, got 3"),
        ('algebra "x" dim 2\nd f1 = f2',
         "each term must be a wedge of exactly two generators, got 1"),
        ('algebra "x" dim 2\nparam conj', "line 2, col 7: parameter name 'conj' is reserved"),
        ('algebra "x" dim 2\nparam f1', "line 2, col 7: parameter name 'f1' is reserved"),
        ('algebra "x" dim 2\nparam t\nparam t', "line 3, col 7: duplicate parameter 't'"),
        ('algebra "x" dim 2\nflag other true', "line 2, col 6: unknown flag 'other'"),
        ('algebra "x" dim 2\nalgebra "y" dim 2', "line 2, col 1: duplicate header"),
        ('algebra "x" dim 2\nd x = f1^f2',
         "line 2, col 3: expected a generator after 'd', got 'x'"),
        ('algebra "x" dim 2\nd f2 = f1^F1 +', "line 2, col 15: expected a term"),
        ('algebra "x" dim 2\nparam t\nd f2 = f1^t',
         "line 3, col 11: expected a generator, got 't'"),
        ('algebra "x" dimension 2', "line 1, col 13: expected 'dim', got 'dimension'"),
    ],
)
def test_errors_carry_position_and_reason(source, fragment):
    with pytest.raises(DslError) as exc:
        parse(source)
    msg = str(exc.value)
    assert fragment in msg
    assert msg.startswith("line ")


def test_a_wedge_with_a_repeated_generator_is_zero():
    spec = parse('algebra "x" dim 3\nd f2 = f1^f1\nd f3 = f1^f1 + 2*F2^F2 - f1^f2\n')
    assert [str(e) for e in spec.d_phi] == ["0", "0", "-f1^f2"]


def test_parse_gauss_rejects_parameters():
    with pytest.raises(DslError):
        parse_gauss("t")
    with pytest.raises(DslError):
        parse_gauss("")


def test_parse_scalar_and_parse_form_read_one_line():
    t = ScalarExpr.param("t")
    assert parse_scalar("-i*t", ("t",)) == -(S_I * t)
    assert parse_scalar("1/(1-t*conj(t))", ("t",)) == 1 / (1 - t * t.conj())
    f1, f2, g1 = (gen(1), gen(2),
                  gen(1, barred=True))
    assert parse_form("f1^f2 - 2i * f2^F1", 2) == f1.wedge(f2) - f2.wedge(g1).scale(2 * S_I)
    assert parse_form("0", 2).is_zero()


@pytest.mark.parametrize("parser, text, arg, message", [
    (parse_scalar, "-i*s", ("t",), "line 1, col 4: undeclared parameter 's'"),
    (parse_scalar, "1/(1-t*conj(s))", ("t",), "line 1, col 13: undeclared parameter 's'"),
    (parse_scalar, "", ("t",), "line 1, col 1: empty value"),
    (parse_form, "f1^f2 + t*f1^f3", 4, "line 1, col 9: undeclared parameter 't'"),
    (parse_form, "f1^f2 + f1^F5", 4, "line 1, col 12: unknown generator 'F5' (dim is 4)"),
    (parse_form, "f1^f2 + f3", 4,
     "line 1, col 9: each term must be a wedge of exactly two generators, got 1"),
    (parse_form, "f1^f2^f3", 4,
     "line 1, col 7: each term must be a wedge of exactly two generators, got 3"),
])
def test_parse_scalar_and_parse_form_errors_are_positioned(parser, text, arg, message):
    with pytest.raises(DslError) as exc:
        parser(text, arg)
    assert str(exc.value) == message


def test_comments_and_blank_lines_ignored():
    spec = parse('algebra "x" dim 2\n\n# comment only\nd f2 = f1^F1  # trailing\n')
    assert not spec.d_gen(2, False).is_zero()


def test_a_comment_starts_at_a_hash_outside_a_string():
    # a string is read whole, so a '#' inside it is text; past a comment's
    # '#', quotes and stray characters are comment text too
    spec = parse('algebra "a#b" dim 3  # x "y\nd f3 = f1^f2 # "unterminated $ \u00e9\n')
    assert spec.name == "a#b"
    assert spec.d_gen(3, False) == parse('algebra "c" dim 3\nd f3 = f1^f2').d_gen(3, False)
    with pytest.raises(DslError, match="^line 1, col 9: unexpected character '\"'$"):
        parse('algebra "a # dim 3')
    with pytest.raises(DslError, match="^line 2, col 14: unexpected character '\\$'$"):
        parse('algebra "a" dim 3\nd f3 = f1^f2 $ # y')


_HEADER = 'algebra "x" dim 3\nparam t\n'
_TOKENS = [
    "algebra", '"x"', "dim", "0", "1", "2", "3", "12", "2i", "i", "param", "t",
    "s", "flag", FLAG_NAME, "true", "false", "d", "f1", "f2", "f3", "F1", "F2",
    "f0", "conj", "let", "=", "^", "+", "-", "−", "*", "/", "(", ")", "#", '"', "$",
]
_soup = st.lists(
    st.tuples(st.sampled_from(_TOKENS), st.sampled_from(["", " ", "\n", "\t"])),
    max_size=25,
).map(lambda parts: "".join(tok + sep for tok, sep in parts))
_raw = st.text(alphabet=st.sampled_from('adfFimnpt0123ij"=^+-*/()# \n\t.,−é'), max_size=40)


def _parses_or_points_at_the_error(fn, text):
    try:
        fn(text)
    except DslError as e:
        assert e.line >= 1 and e.col >= 1, str(e)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["", _HEADER]), st.one_of(_soup, _raw))
def test_parser_fuzz_raises_only_positioned_dsl_errors(header, body):
    _parses_or_points_at_the_error(parse, header + body)
    _parses_or_points_at_the_error(parse_gauss, body)


def test_deep_nesting_is_a_dsl_error_not_a_crash():
    assert parse_gauss("(" * 100 + "1/2" + ")" * 100) == parse_gauss("1/2")
    with pytest.raises(DslError, match="^line 1, col 101: parentheses nested deeper than 100$"):
        parse_gauss("(" * 101 + "1" + ")" * 101)
    assert parse_gauss("-" * 3001 + "i") == parse_gauss("-i")


def test_exponents_are_bounded_and_squared():
    # past the bound is a positioned error; the parser never multiplies it out
    with pytest.raises(DslError, match="^line 1, col 3: exponent 101 exceeds 100$"):
        parse_gauss("2^101")
    with pytest.raises(DslError, match="^line 1, col 6: exponent 110 exceeds 100$"):
        parse_gauss("2^10^11")  # a chain counts as the product of its exponents
    t0 = time.perf_counter()
    with pytest.raises(DslError, match="^line 1, col 7: exponent 1000000000 exceeds 100$"):
        parse_gauss("(1+i)^1000000000")
    assert time.perf_counter() - t0 < 1
    with pytest.raises(DslError, match="^line 1, col 1: number longer than 4300 digits$"):
        parse_gauss("9" * 4301)
    assert parse_gauss("(1+i)^100") == parse_gauss("-1125899906842624")
    assert parse_gauss("2^10^10") == parse_gauss(str(2 ** 100))
    assert parse_gauss("(1/2+i)^0") == parse_gauss("1")
    assert parse_gauss("2^0^99999") == parse_gauss("1")
    powered = parse('algebra "p" dim 3\nparam t\nd f3 = (1+t)^5*f1^f2\n')
    expanded = parse('algebra "p" dim 3\nparam t\nd f3 = (1+t)*(1+t)*(1+t)*(1+t)*(1+t)*f1^f2\n')
    assert powered.d_gen(3, False) == expanded.d_gen(3, False)


def test_conj_takes_any_parenthesized_scalar():
    t = ScalarExpr.param("t")
    assert parse_scalar("conj(1/(1+t))", ("t",)) == (1 / (1 + t)).conj()
    assert parse_scalar("conj(conj(t))", ("t",)) == t
    assert parse_scalar("conj(2i - t)^2", ("t",)) == (-2 * S_I - t.conj()) * (-2 * S_I - t.conj())
    assert parse_gauss("conj((1+2i)/3)") == parse_gauss("(1-2i)/3")
    assert parse_scalar("conj(" * 100 + "t" + ")" * 100, ("t",)) == t
    # the parenthesis of conj( counts against the nesting bound like any other
    with pytest.raises(DslError, match="^line 1, col 505: parentheses nested deeper than 100$"):
        parse_scalar("conj(" * 101 + "t" + ")" * 101, ("t",))
    with pytest.raises(DslError, match="^line 1, col 6: expected '\\(', got 't'$"):
        parse_scalar("conj t", ("t",))


LET = """\
algebra "let" dim 3
param t
let r = 1/(1-t*conj(t))
let s = conj(r*t) + r
d f3 = r * f1^f2 + s * f1^F2 - r * f2^F1
"""


def test_let_names_a_scalar_for_the_lines_below():
    d3 = parse(LET).d_gen(3, False)
    t = ScalarExpr.param("t")
    r = 1 / (1 - t * t.conj())
    assert d3.coeff(mono((1, 2), ())) == r
    assert d3.coeff(mono((1,), (2,))) == (r * t).conj() + r
    assert d3.coeff(mono((2,), (1,))) == -r


def test_parameters_literals_and_let_names_are_shared_within_a_parse():
    # a coefficient is the scalar written, not a product with the wedge's
    # sign, and each name or literal is one object: one program node
    d3 = parse('algebra "s" dim 3\nparam t\nlet r = 2*t\n'
               "d f3 = t * f1^f2 + t * f1^F1 + r * f2^F1 + r * f2^F2\n").d_gen(3, False)
    assert d3.coeff(mono((1, 2), ())) is d3.coeff(mono((1,), (1,)))
    assert d3.coeff(mono((2,), (1,))) is d3.coeff(mono((2,), (2,)))
    d3 = parse('algebra "s" dim 3\nd f3 = 2 * f1^f2 + 2 * f1^F1\n').d_gen(3, False)
    assert d3.coeff(mono((1, 2), ())) is d3.coeff(mono((1,), (1,)))


@pytest.mark.parametrize("source, message", [
    ("let a = 1", "line 1, col 1: the header line must come first"),
    ('algebra "x" dim 2\nlet a = 1\nlet a = 2', "line 3, col 5: duplicate let 'a'"),
    ('algebra "x" dim 2\nparam t\nlet t = 1',
     "line 3, col 5: duplicate let 't'"),
    ('algebra "x" dim 2\nlet t = 1\nparam t',
     "line 3, col 7: duplicate parameter 't'"),
    ('algebra "x" dim 2\nlet conj = 1', "line 2, col 5: let name 'conj' is reserved"),
    ('algebra "x" dim 2\nlet i = 1', "line 2, col 5: let name 'i' is reserved"),
    ('algebra "x" dim 2\nlet f1 = 1', "line 2, col 5: let name 'f1' is reserved"),
    ('algebra "x" dim 2\nlet let = 1', "line 2, col 5: let name 'let' is reserved"),
    ('algebra "x" dim 2\nparam let', "line 2, col 7: parameter name 'let' is reserved"),
    ('algebra "x" dim 2\nparam t\nlet a = t + s', "line 3, col 13: undeclared parameter 's'"),
    ('algebra "x" dim 2\nlet a = a', "line 2, col 9: undeclared parameter 'a'"),
    ('algebra "x" dim 2\nlet a = 1 * f1^f2', "line 2, col 11: unexpected '*'"),
    ('algebra "x" dim 2\nlet a 1', "line 2, col 7: expected '=', got '1'"),
])
def test_let_errors_are_positioned(source, message):
    with pytest.raises(DslError) as exc:
        parse(source)
    assert str(exc.value) == message


def _cli_rc_err_seconds(argv):
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue(), time.perf_counter() - t0


def _squarings(first, count=40):
    lines = ['algebra "sq" dim 3', "param t", f"let a0 = {first}"]
    lines += [f"let a{k} = a{k - 1}*a{k - 1}" for k in range(1, count + 1)]
    return "\n".join(lines + [f"d f3 = a{count} * f1^f2", ""])


@pytest.mark.parametrize("argv, text, message", [
    (["deform", "@example31", "--samples", "t=((((2^100)^100)^100)^100)^100"], None,
     "line 1, col 17: operands of '*' too large: the step costs 391877, more than 262144"),
    (["validate"], 'algebra "big" dim 3\nparam t\nd f3 = (((1+t+conj(t))^100)^100) * f1^f2\n',
     "line 3, col 24: operands of '*' too large: the step costs 314722, more than 262144"),
    (["validate"], _squarings("1+t+conj(t)"),
     "line 9, col 12: operands of '*' too large: the step costs 314722, more than 262144"),
    (["validate"], _squarings("2^100"),
     "line 13, col 13: operands of '*' too large: the step costs 641602, more than 262144"),
    # t^(2^40) overflows an exponent slot, t^(2^20) evaluates for many seconds:
    # each squaring costs little, so the exponent bound refuses the step
    (["validate"], _squarings("t"), "line 10, col 12: exponent 128 of t exceeds 100"),
    (["validate"], _squarings("t", 20), "line 10, col 12: exponent 128 of t exceeds 100"),
])
def test_oversized_input_exits_2_before_the_work(tmp_path, argv, text, message):
    # nested powers and squaring through let names multiply past any one
    # exponent bound; each step is refused before its cost is paid
    if text is not None:
        path = tmp_path / "big.txt"
        path.write_text(text)
        argv = [*argv, str(path)]
    rc, err, seconds = _cli_rc_err_seconds(argv)
    assert rc == 2
    assert message in err
    assert seconds < 1


def test_work_bound_admits_the_catalog_and_its_printed_form(monkeypatch):
    # the costliest step of any catalog row, or of parsing its printed form
    costs = []
    apply = dsl._Parser._apply

    def recording(self, op, a, b):
        costs.append(a.work(op[1], b))
        return apply(self, op, a, b)

    monkeypatch.setattr(dsl._Parser, "_apply", recording)
    for entry in catalog():
        parse(pretty(entry.spec))
    assert max(costs) == 10734 < dsl._MAX_WORK // 16
