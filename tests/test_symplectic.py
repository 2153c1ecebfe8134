"""Existence decisions for closed non-degenerate (2,0)-forms."""

import contextlib
import hashlib
import io
import json

import pytest

from nilcoh import cli, cohomology, symplectic
from nilcoh.algebra import DEFAULT_SAMPLES
from nilcoh.catalog import catalog
from nilcoh.cohomology import betti, bott_chern
from nilcoh.dsl import parse
from nilcoh.exterior import BigradedElement
from nilcoh.gauss import GaussRat
from nilcoh.linalg import InternalError, OperatorCache
from nilcoh.scalar import S_I
from nilcoh.symplectic import (
    SymplecticError,
    betti_bounds,
    closed_20_elements,
    closed_20_space,
    find_symplectic,
    theorem61_suite,
)
from conftest import n6_ops_for
from reference import class_is_trivial, grid_walk, real_pair
from test_frolicher import _stdout


def g(i):
    return BigradedElement.gen(i)


def _witness_is_valid(cache, rep):
    w = rep.witness
    assert cache.spec.d(w).is_zero()
    top = w.wedge_power(cache.n // 2)
    assert not top.is_zero()


def test_example31_base_has_structure(ops):
    cache = ops("example31")
    rep = find_symplectic(cache)
    d = rep.as_dict()
    assert d["verdict"] == "exists"
    assert d["closed_20_dim"] == 4
    assert d["nondegeneracy_polynomial"] == "-2*a2*a4"
    assert d["witness"] == "f1^f3+f2^f4"
    assert d["witness_coefficients"] == ["0", "1", "0", "1"]
    assert d["statement"] == (
        "complex symplectic structure exists on the compact quotient"
    )
    _witness_is_valid(cache, rep)


@pytest.mark.parametrize("t", ["1/2", "i/2", "-1/3"])
def test_example31_deformed_has_none(ops, t):
    d = find_symplectic(ops("example31", t=t)).as_dict()
    assert d["verdict"] == "none"
    assert d["closed_20_dim"] == 3
    assert d["nondegeneracy_polynomial"] == "0"
    assert d["grid_certificate"] == {"grid": "{0..2}^3", "points_checked": 27}
    assert d["statement"] == (
        "no complex symplectic structure on the compact quotient "
        "(non-existence transfers under the declared flag)"
    )
    assert "witness" not in d


THEOREM51_CASES = [
    ("0", "none", None, "0"),
    ("1/2", "exists", "f1^f3+(-1/2*i)*f2^f4", "i*a2^2"),
    ("i/2", "exists", "f1^f3+(1/2)*f2^f4", "-a2^2"),
]


@pytest.mark.parametrize("t,verdict,witness,poly", THEOREM51_CASES)
def test_theorem51_family_split(ops, t, verdict, witness, poly):
    cache = ops("theorem51_family", t=t)
    rep = find_symplectic(cache)
    d = rep.as_dict()
    assert d["verdict"] == verdict
    assert d["closed_20_dim"] == 3
    assert d["nondegeneracy_polynomial"] == poly
    if verdict == "exists":
        assert d["witness"] == witness
        _witness_is_valid(cache, rep)
    else:
        assert d["grid_certificate"]["points_checked"] == 27


CORNER_CASES = [
    ({"t11": "0", "t22": "0"}, "exists", 5, "-2*a2*a5+2*a3*a4", "f1^f4+f2^f3",
     ["f1^f2", "f1^f3", "f1^f4", "f2^f3", "f2^f4"]),
    ({"t11": "0", "t22": "1/2"}, "exists", 4, "-2*a2*a4", "f1^f3+f2^f4",
     ["f1^f2", "f1^f3", "f1^f4", "f2^f4"]),
    ({"t11": "1/2", "t22": "0"}, "exists", 4, "2*a2*a3", "f1^f4+f2^f3",
     ["f1^f2", "f1^f4", "f2^f3", "f2^f4"]),
    ({"t11": "1/2", "t22": "1/2"}, "none", 3, "0", None,
     ["f1^f2", "f1^f4", "f2^f4"]),
]


@pytest.mark.parametrize("assign,verdict,dim,poly,witness,basis", CORNER_CASES)
def test_iwasawa_x_torus_corners(ops, assign, verdict, dim, poly, witness, basis):
    cache = ops("iwasawa_x_torus", **assign)
    d = find_symplectic(cache).as_dict()
    assert d["verdict"] == verdict
    assert d["closed_20_dim"] == dim
    assert d["nondegeneracy_polynomial"] == poly
    assert [str(e) for e in closed_20_elements(cache)] == basis
    if witness is not None:
        assert d["witness"] == witness
    else:
        assert d["grid_certificate"] == {"grid": "{0..2}^3", "points_checked": 27}


def test_odd_complex_dimension(ops):
    d = find_symplectic(ops("iwasawa")).as_dict()
    assert d["verdict"] == "odd_dimension"
    assert d["nondegeneracy_polynomial"] is None
    assert d["statement"] == (
        "odd complex dimension admits no non-degenerate (2,0)-form"
    )
    assert "witness" not in d and "grid_certificate" not in d


def test_statement_without_upgrade_flag(ops):
    d = find_symplectic(ops("nakamura_x_torus", t="0")).as_dict()
    assert d["verdict"] == "exists"
    assert d["statement"] == "invariant complex symplectic structure exists"
    assert d["scope"].startswith("invariant (Lie-algebra level)")


def test_grid_decision_matches_symbolic_polynomial(ops):
    """Evaluating P over the grid {0..m}^s must reproduce the verdict:
    degree <= m per variable makes the grid a zero-test set."""
    cases = [
        ("example31", {}),
        ("example31", {"t": "1/2"}),
        ("theorem51_family", {"t": "0"}),
        ("theorem51_family", {"t": "1/2"}),
        ("iwasawa_x_torus", {"t11": "1/2", "t22": "1/2"}),
        ("torus2", {}),
    ]
    from itertools import product

    for name, assign in cases:
        cache = ops(name, **assign)
        poly = find_symplectic(cache).poly
        s = len(closed_20_elements(cache))
        m = cache.n // 2
        values = [
            poly.evaluate({f"a{j + 1}": GaussRat(p[j]) for j in range(s)})
            for p in product(range(m + 1), repeat=s)
        ]
        grid_all_zero = all(not v for v in values)
        assert grid_all_zero == poly.is_zero(), (name, assign)
        verdict = find_symplectic(cache).as_dict()["verdict"]
        assert verdict == ("none" if grid_all_zero else "exists")


_EVEN = [e for e in catalog() if e.spec.n % 2 == 0]
_DECIDED = ([(e.name, {}) for e in _EVEN if not e.spec.params]
            + [(e.name, dict.fromkeys((e.family or e.spec).params, str(v)))
               for e in _EVEN if (e.family or e.spec).params for v in DEFAULT_SAMPLES])


@pytest.mark.parametrize("name, assign", _DECIDED)
def test_descent_reports_what_the_grid_walk_finds(ops, name, assign):
    # every parameter-free entry and every family at its default samples:
    # the descent's witness is the walk's first non-degenerate point, and a
    # `none` verdict certifies exactly the points the walk checks
    cache = ops(name, **assign)
    coeffs, witness, checked = grid_walk(cache)
    d = find_symplectic(cache).as_dict()
    if witness is None:
        assert d["verdict"] == "none"
        assert d["grid_certificate"]["points_checked"] == checked
    else:
        assert d["verdict"] == "exists"
        assert d["witness_coefficients"] == [str(c) for c in coeffs]
        assert d["witness"] == str(witness)


@pytest.mark.parametrize("assign", [{}, {"t": "1/2"}])
def test_the_one_point_check_fails_closed(ops, monkeypatch, assign):
    # with the numeric wedge power negated, the witness of t = 0 is
    # degenerate and the all-ones point of the P = 0 sample t = 1/2 is not
    cache = ops("example31", **assign)
    nondegenerate = symplectic.is_nondegenerate
    monkeypatch.setattr(symplectic, "is_nondegenerate", lambda form, n: not nondegenerate(form, n))
    with pytest.raises(InternalError):
        find_symplectic(cache)


def test_report_converts_the_closed_basis_to_forms_once(monkeypatch):
    # P and the witness read one list; the descent reads only P
    calls = []
    to_element = OperatorCache.to_element

    def counting(self, *args):
        calls.append(args)
        return to_element(self, *args)

    monkeypatch.setattr(OperatorCache, "to_element", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["symplectic", "@example31"]) == 0
    assert len(calls) == json.loads(out.getvalue())["results"]["symplectic"]["closed_20_dim"] == 4


@pytest.mark.parametrize("target, verdict", [
    ("torus6", "exists"), ("example31 at t = 1/2", "none")])
def test_report_expands_the_wedge_power_twice(ops, monkeypatch, target, verdict):
    # once for P and once for the one-point check: the descent reads every
    # specialisation off P
    cache = n6_ops_for("data/torus6.txt") if target == "torus6" else ops("example31", t="1/2")
    calls = []
    wedge_power = BigradedElement.wedge_power

    def counting(self, k):
        calls.append(k)
        return wedge_power(self, k)

    monkeypatch.setattr(BigradedElement, "wedge_power", counting)
    assert find_symplectic(cache).verdict == verdict
    assert len(calls) == 2


# sha256 of the `symplectic` stdout on the structure files in tests/data,
# run from the tests directory; T^8 and T^10 have s = 28 and 45 closed
# (2,0)-forms, so the descent specialises P in 28 and 45 variables
_SYMPLECTIC_SHA256 = {
    "symplectic data/torus8.txt":
        "09ebca072d4528c7fd007f9964babe674f20ab6e0a0eb788bb03b7d98b52ca92",
    "symplectic data/torus10.txt":
        "6c63606036bdac3819a60f5fb9e9ce4abd15e888c2b9dd8ec8862dd6101391ed",
    "symplectic data/torus6.txt --suite61 --betti-bounds":
        "b6a1dc0a1764d762cf3e3650cda004d05cdf221c246141a848ab3e57cf3ef4a2",
    "symplectic data/iwasawa_x_iwasawa.txt --suite61 --betti-bounds":
        "b8d90a647bbf70d1595af3310c59650dfe149c90c695b73ba0ed7dd18b264a02",
}


@pytest.mark.parametrize("command", list(_SYMPLECTIC_SHA256))
def test_symplectic_report_goldens(command):
    rc, out = _stdout(*command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SYMPLECTIC_SHA256[command]


def test_wedge_class_suite_example31(ops):
    cache = ops("example31")
    w = g(1).wedge(g(3)) + g(2).wedge(g(4))
    suite = theorem61_suite(cache, w)
    assert suite["witness"] == "f1^f3+f2^f4"
    assert suite["all_nontrivial"] is True
    assert sorted(suite["cells"]) == sorted(
        f"({k},{m})" for k in range(3) for m in range(3)
    )
    for row in suite["cells"].values():
        assert row == {
            "de_rham": "nontrivial",
            "dolbeault": "nontrivial",
            "del": "nontrivial",
            "bott_chern": "nontrivial",
            "aeppli": "nontrivial",
        }


def _reference_cells(cache, witness):
    """The wedge-class cells decided by solving for a primitive."""
    half, wbar = cache.n // 2, witness.conj()
    cells = {}
    for k in range(half + 1):
        for m in range(half + 1):
            form = witness.wedge_power(k).wedge(wbar.wedge_power(m))
            cells[f"({k},{m})"] = {
                t: "TRIVIAL" if class_is_trivial(cache, t, form)[0] else "nontrivial"
                for t in cohomology.THEORIES}
    return cells


_WITNESSED = ([(e.name, {}) for e in catalog() if not e.spec.params
               and e.name not in ("torus3", "iwasawa", "theorem51_family")]
              + [("theorem51_family", {"t": "1/3"}), ("example45", {"t": "1/2"}),
                 ("section42_example", {"t": "1/2"}),
                 ("iwasawa_x_torus", {"t11": "1/2", "t22": "0"})])


@pytest.mark.parametrize("name, assign", _WITNESSED)
def test_wedge_class_suite_agrees_with_the_primitive_solve(ops, name, assign):
    # the suite reads the memoised groups; the reference solves a block
    # system for a primitive: the two routes decide every cell alike
    cache = ops(name, **assign)
    rep = find_symplectic(cache)
    assert rep.verdict == "exists"
    suite = theorem61_suite(cache, rep.witness)
    assert suite["cells"] == _reference_cells(cache, rep.witness)
    assert suite["all_nontrivial"] is True


def test_wedge_class_suite_reports_a_class_in_the_denominator(ops, monkeypatch):
    # a Bott-Chern group at (2,0) whose denominator is its whole numerator:
    # the witness cell (1,0) is reported TRIVIAL there and nowhere else
    cache = ops("example31")
    group = cohomology.group

    def padded(ops, theory, degree):
        g = group(ops, theory, degree)
        if (theory, degree) == ("bott_chern", (2, 0)):
            g.denominator = g.numerator
        return g

    monkeypatch.setattr(cohomology, "group", padded)
    suite = theorem61_suite(cache, find_symplectic(cache).witness)
    assert suite["all_nontrivial"] is False
    trivial = [(cell, t) for cell, row in suite["cells"].items()
               for t, verdict in row.items() if verdict == "TRIVIAL"]
    assert trivial == [("(1,0)", "bott_chern")]


def test_wedge_class_suite_rejects_bad_witnesses(ops):
    cache = ops("example31")
    with pytest.raises(SymplecticError, match="degenerate"):
        theorem61_suite(cache, g(1).wedge(g(2)))  # closed but top power vanishes
    with pytest.raises(SymplecticError, match="not d-closed"):
        theorem61_suite(cache, g(3).wedge(g(4)))
    with pytest.raises(SymplecticError, match=r"\(2,0\)-form"):
        theorem61_suite(cache, g(1).wedge(BigradedElement.gen(1, barred=True)))
    with pytest.raises(SymplecticError, match="odd complex dimension"):
        theorem61_suite(ops("iwasawa"), g(1).wedge(g(2)))


def test_betti_bounds_hold_on_symplectic_examples(ops):
    for name, rows in [
        ("example31", [(2, 15, 2), (4, 32, 3), (6, 15, 2)]),
        ("torus4", [(2, 28, 2), (4, 70, 3), (6, 28, 2)]),
    ]:
        out = betti_bounds(ops(name))
        assert out["real_dimension"] == 8
        assert [
            (r["degree"], r["betti"], r["bound"]) for r in out["bounds"]
        ] == rows
        assert all(r["holds"] for r in out["bounds"])
        assert out["all_hold"] is True
        assert out["obstruction_fires"] is False


OBSTRUCTED_SRC = """\
algebra "obstructed" dim 2
d f1 = (i/2)*f1^f2 + (i/2)*f1^F2
d f2 = (-1/2)*f1^F1
"""


def test_betti_bound_obstruction_fires_in_dim_two():
    spec = parse(OBSTRUCTED_SRC)
    assert spec.validate().ok
    cache = OperatorCache(spec)
    assert {k: betti(cache, k) for k in range(5)} == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    out = betti_bounds(cache)
    assert out["bounds"] == [
        {"degree": 2, "betti": 0, "bound": 2, "holds": False}
    ]
    assert out["obstruction_fires"] is True
    rep = find_symplectic(cache).as_dict()
    assert rep["verdict"] == "none"
    assert rep["closed_20_dim"] == 0


def test_betti_bounds_need_real_dimension_multiple_of_four(ops):
    with pytest.raises(SymplecticError, match="divisible by 4"):
        betti_bounds(ops("iwasawa"))


def test_real_pair_torus2():
    from nilcoh.catalog import get

    spec = get("torus2").spec
    pair = real_pair(spec, g(1).wedge(g(2)))
    assert pair == {
        "re": {"e1^e3": "1", "e2^e4": "-1"},
        "im": {"e1^e4": "1", "e2^e3": "1"},
        "compatibility_verified": True,
    }
    scaled = real_pair(spec, g(1).wedge(g(2)).scale(S_I))
    # multiplying by i swaps the pair up to sign
    assert scaled["re"] == {"e1^e4": "-1", "e2^e3": "-1"}
    assert scaled["im"] == {"e1^e3": "1", "e2^e4": "-1"}
    assert scaled["compatibility_verified"] is True
    with pytest.raises(SymplecticError, match=r"\(2,0\)-forms"):
        real_pair(spec, g(1).wedge(BigradedElement.gen(2, barred=True)))


def test_closed_20_space_is_the_bott_chern_numerator(ops):
    cache = ops("example31")
    assert bott_chern(cache, 2, 0).numerator is closed_20_space(cache)
