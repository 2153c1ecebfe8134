"""Bigraded exterior algebra on the invariant coframe."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh.dsl import parse_gauss
from nilcoh.exterior import BigradedElement, mono_bidegree, mono_conj, mono_str, mono_wedge
from nilcoh.scalar import S_ONE, ScalarExpr
from reference import mono


def g(i):
    return BigradedElement.gen(i)


def gb(i):
    return BigradedElement.gen(i, barred=True)


def test_monomial_helpers():
    m = mono((1, 3), (2,))
    assert mono_bidegree(m) == (2, 1)
    assert mono_str(m) == "f1^f3^F2"
    assert mono_conj(mono((1, 2), ())) == (1, mono((), (1, 2)))
    assert mono_conj(mono((1,), (2,))) == (-1, mono((2,), (1,)))
    # reordering a swapped pair costs a sign
    assert mono_wedge(mono((2,), ()), mono((1,), ())) == (-1, mono((1, 2), ()))
    assert mono_wedge(mono((1,), ()), mono((1,), ())) == (0, None)


def test_wedge_anticommutativity_and_squares():
    a, b = g(1), g(2)
    assert (a.wedge(b) + b.wedge(a)).is_zero()
    assert a.wedge(a).is_zero()
    two_form = a.wedge(b)
    assert (two_form.wedge(two_form)).is_zero()  # f1^f2^f1^f2 = 0


def test_even_degree_elements_commute():
    x = g(1).wedge(g(2)) + g(3).wedge(gb(1))
    y = g(1).wedge(g(3)) + g(2).wedge(gb(2))
    assert (x.wedge(y) - y.wedge(x)).is_zero()


def test_conjugation_sign_convention():
    # conj carries the (-1)^{pq} re-sorting sign, so it distributes over wedge:
    # conj(f1^F2) = F1^f2 = -f2^F1
    el = g(1).wedge(gb(2))
    c = el.conj()
    assert (c - gb(1).wedge(g(2))).is_zero()
    assert str(c) == "-f2^F1"
    # (2,0) conjugates without sign
    el20 = g(1).wedge(g(2))
    assert (el20.conj() - gb(1).wedge(gb(2))).is_zero()
    # conj is conjugate-linear and an involution
    mixed = el + el20.scale(ScalarExpr.const(parse_gauss("i/2")))
    assert (mixed.conj().conj() - mixed).is_zero()


def test_wedge_power_and_unit():
    assert not BigradedElement.one().is_zero()
    omega = g(1).wedge(g(2)) + g(3).wedge(g(4))
    assert (omega.wedge_power(0) - BigradedElement.one()).is_zero()
    sq = omega.wedge_power(2)
    # (f12 + f34)^2 = 2 f1234
    coeff = sq.coeff(mono((1, 2, 3, 4), ()))
    assert coeff.const_value() == parse_gauss("2")
    assert len(list(sq.items())) == 1


def test_project_and_bidegrees():
    el = g(1).wedge(g(2)) + g(1).wedge(gb(1)) + gb(1).wedge(gb(2))
    assert el.bidegrees() == [(0, 2), (1, 1), (2, 0)]
    p20 = el.project(2, 0)
    assert p20.bidegrees() == [(2, 0)]
    assert (el - (el.project(2, 0) + el.project(1, 1) + el.project(0, 2))).is_zero()


def test_wedge_builds_canonical_monomials():
    # generators wedge into ascending holo-then-anti monomials with the
    # transposition sign tracked
    el = g(3).wedge(g(1))
    assert (el - BigradedElement({mono((1, 3), ()): ScalarExpr.const(-1)})).is_zero()
    el2 = gb(2).wedge(g(1))
    assert (el2 - BigradedElement({mono((1,), (2,)): ScalarExpr.const(-1)})).is_zero()


def test_coefficients_print_in_one_pair_of_parentheses():
    t = ScalarExpr.param("t")
    form = g(2).wedge(gb(1))
    cases = [
        (ScalarExpr.const(parse_gauss("-1/2-i/3")), "(-1/2-1/3*i)*f2^F1"),
        (ScalarExpr.const(parse_gauss("1/2")), "(1/2)*f2^F1"),
        (1 - t, "(1-t)*f2^F1"),
        (t * ScalarExpr.const(parse_gauss("1+i")), "((1+i)*t)*f2^F1"),
        # a quotient starts and ends with a parenthesis but is two groups
        ((t + 1) / (t - 1), "((-1-t)/(1-t))*f2^F1"),
        (ScalarExpr.const(parse_gauss("2*i")), "2*i*f2^F1"),
    ]
    for coeff, text in cases:
        assert str(form.scale(coeff)) == text


_COEFFS = [parse_gauss(s) for s in ["1", "-1", "1/2", "i", "-i/3", "2"]]


@st.composite
def _elements(draw, n=3):
    el = BigradedElement.zero()
    for _ in range(draw(st.integers(1, 3))):
        holo = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=2))))
        anti = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=2))))
        c = ScalarExpr.const(draw(st.sampled_from(_COEFFS)))
        el = el + BigradedElement({mono(holo, anti): c})
    return el


@settings(max_examples=50)
@given(_elements(), _elements(), _elements())
def test_wedge_is_associative_and_bilinear(x, y, z):
    assert (x.wedge(y.wedge(z)) - x.wedge(y).wedge(z)).is_zero()
    assert (x.wedge(y + z) - (x.wedge(y) + x.wedge(z))).is_zero()


@settings(max_examples=50)
@given(_elements(), _elements())
def test_conj_is_wedge_antihomomorphism_up_to_grading(x, y):
    # conj(x ^ y) == conj(x) ^ conj(y) follows from the (-1)^{pq} convention
    assert (x.wedge(y).conj() - x.conj().wedge(y.conj())).is_zero()
