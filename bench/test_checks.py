"""Each benchmark check passes real reports and rejects a hand-corrupted one.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads
from workloads import Op

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

HALF = (Fraction(1, 2), Fraction(0))
ZERO = workloads.ZERO
SIGMA_PRODUCT = {"t11": (Fraction(1, 3), Fraction(0)), "t12": ZERO, "t21": ZERO,
                 "t22": (Fraction(0), Fraction(-1, 4))}
SIGMA_GENERIC = {"t11": (Fraction(1, 4), Fraction(0)), "t12": (Fraction(0), Fraction(1, 5)),
                 "t21": (Fraction(-1, 6), Fraction(0)), "t22": (Fraction(1, 5), Fraction(1, 5))}
PRODUCT = {"t11": SIGMA_PRODUCT["t11"], "t22": SIGMA_PRODUCT["t22"]}


def _deform(key, family, assigns, tasks, kind="deform"):
    argv = [kind, f"@{family}", "--samples", workloads.samples_arg(assigns)]
    if kind == "deform":
        argv += ["--tasks", tasks]
    return Op(key, kind, argv, samples=len(assigns), family=family, assigns=assigns)


OPS = [
    Op("symplectic31", "symplectic",
       ["symplectic", "@example31", "--suite61", "--betti-bounds"],
       family="example31", t=ZERO),
    Op("cohomology_iwasawa", "cohomology", ["cohomology", "@iwasawa"]),
    Op("frolicher_iwasawa", "frolicher", ["frolicher", "@iwasawa"],
       tables="cohomology_iwasawa"),
    Op("symplectic45", "symplectic", ["symplectic", "@example45", "--assign", "t=1/2"],
       family="example45", t=HALF),
    _deform("deform:example31", "example31", [{"t": ZERO}, {"t": HALF}],
            workloads.SWEEP_TASKS),
    _deform("hypotheses:example31", "example31", [{"t": ZERO}, {"t": HALF}], None,
            kind="hypotheses"),
    _deform("deform:iwasawa_sigma_family", "iwasawa_sigma_family",
            [SIGMA_PRODUCT, SIGMA_GENERIC], workloads.SIGMA_TASKS),
    _deform("deform:iwasawa_x_torus", "iwasawa_x_torus", [PRODUCT],
            workloads.PRODUCT_TASKS),
]


@pytest.fixture(scope="module")
def reports():
    from nilcoh import cli

    out = []
    for op in OPS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        assert rc == 0, op.key
        out.append(json.loads(buf.getvalue()))
    return out


def _errors(reports, key=None, mutate=None):
    reports = copy.deepcopy(reports)
    if mutate is not None:
        mutate(reports[[op.key for op in OPS].index(key)]["results"])
    return checks.round_errors(OPS, reports)


def test_real_reports_pass(reports):
    assert _errors(reports) == []


def _set_group(i, theory, degree, delta):
    def mutate(res):
        for g in res["samples"][i]["result"]["cohomology"]:
            if g["theory"] == theory and g["degree"] == degree:
                g["dim"] += delta
                reps = g["representatives"] + ["f1"] * max(delta, 0)
                g["representatives"] = reps[:g["dim"]]
    return mutate


def _bump(table, cell, delta=1):
    def mutate(res):
        res[table][cell] += delta
    return mutate


def _zero_degree(tables, k):
    def mutate(res):
        for th in tables:
            for cell in res[th]:
                if sum(int(x) for x in cell.split(",")) == k:
                    res[th][cell] = 0
    return mutate


def _set(path, value):
    def mutate(res):
        node = res
        for p in path[:-1]:
            node = node[p]
        node[path[-1]] = value
    return mutate


def _copy_symplectic(src, dst):
    """Give sample row dst the symplectic report of row src."""
    def mutate(res):
        rows = res["samples"]
        rows[dst]["result"]["symplectic"] = copy.deepcopy(rows[src]["result"]["symplectic"])
    return mutate


CORRUPTIONS = [
    # cohomology tables
    ("cohomology_iwasawa", _bump("bott_chern", "1,0"), "h_BC^1,0"),
    ("cohomology_iwasawa", _bump("dolbeault", "2,1"), "h_dbar^2,1"),
    ("cohomology_iwasawa", _bump("aeppli", "3,3"), "h_A^3,3"),
    ("cohomology_iwasawa", _zero_degree(("dolbeault", "del"), 1), "Frolicher inequality"),
    ("cohomology_iwasawa", _zero_degree(("bott_chern", "aeppli"), 3), "Angella-Tomassini"),
    # Betti numbers
    ("cohomology_iwasawa", _bump("de_rham", "1"), "b_5"),
    ("cohomology_iwasawa", _bump("de_rham", "3", 2), "Euler characteristic"),
    ("frolicher_iwasawa", _set(("betti", "0"), 2), "b_0"),
    # Frolicher spectral sequence
    ("frolicher_iwasawa", _bump("e_infinity", "(1,1)"), "E_infinity totals"),
    ("frolicher_iwasawa", _set(("pages", "2", "(1,0)"), 4), "grows"),
    ("frolicher_iwasawa", _set(("pages", "1", "(0,0)"), 2), "page 1 differs"),
    # symplectic witnesses, re-checked on the parsed form
    ("symplectic45", _set(("symplectic", "witness"), "f1^f2"), "top wedge power"),
    ("symplectic45", _set(("symplectic", "witness"), "f1^f2+f3^f4"), "not d-closed"),
    ("symplectic45", _set(("symplectic", "witness"), "f1^F2+f3^f4"), "not a nonzero (2,0)"),
    ("symplectic31", _set(("symplectic", "witness"), "f1^f3+2*i*f2^f4+f3^f4"), "not d-closed"),
    ("symplectic31", _set(("wedge_class_suite", "all_nontrivial"), False), "trivial"),
    ("symplectic31", _set(("betti_bounds", "all_hold"), False), "even-Betti bounds"),
    # the paper's verdicts and constant de Rham numbers along a family
    ("deform:example31", _copy_symplectic(0, 1), "the paper says none"),
    ("deform:example31", _set_group(1, "bott_chern", [2, 0], 1), "h_BC^2,0 = 4"),
    ("deform:example31", _set_group(1, "de_rham", 2, 1), "b_2 varies"),
    ("deform:example31", _set(("samples", 0, "result", "symplectic", "witness"), "f1^f2"),
     "top wedge power"),
    ("deform:example31", _set(("samples", 1, "result", "purefull", 0, "full"), True), "full ="),
    ("deform:example31", _set(("samples", 1, "assign", "t"), "1/3"), "sample rows"),
    ("hypotheses:example31", _set(("samples", 1, "h20_bott_chern"), 4), "h20 differs"),
    ("hypotheses:example31", _set(("h20_bott_chern_constant",), True), "constancy"),
    # sigma against @iwasawa and, by Kunneth, against Iwasawa x torus
    ("deform:iwasawa_sigma_family", _set_group(1, "de_rham", 1, 1), "@iwasawa has"),
    ("deform:iwasawa_sigma_family", _set_group(0, "bott_chern", [1, 1], 1), "Kunneth"),
    ("deform:iwasawa_x_torus", _set_group(0, "de_rham", 2, -1), "Kunneth"),
    ("deform:iwasawa_sigma_family", _set(("samples", 1, "result", "validate", "ok"), False),
     "validation fails"),
]


@pytest.mark.parametrize("key,mutate,expected", CORRUPTIONS,
                         ids=[f"{k}-{e}" for k, _, e in CORRUPTIONS])
def test_corrupted_report_is_rejected(reports, key, mutate, expected):
    errors = _errors(reports, key, mutate)
    assert any(expected in e for e in errors), errors


def test_coefficients_and_forms_parse_as_nilcoh_prints_them():
    assert checks.parse_coeff("((1/2+3/4*i))") == checks.G(Fraction(1, 2), Fraction(3, 4))
    assert checks.parse_coeff("-i") == checks.G(0, -1)
    assert checks.parse_coeff("2*i") == checks.G(0, 2)
    assert checks.parse_coeff("1/2-1/3*i") == checks.G(Fraction(1, 2), Fraction(-1, 3))
    form = checks.parse_form("f2^f3+(-3/4)*f4^F1-2*i*F2^F4")
    assert form == checks.add(
        checks.add(checks.wedge(checks.gen(2), checks.gen(3)),
                   checks.scale(checks.wedge(checks.gen(4), checks.gen(1, 1)),
                                checks.G(Fraction(-3, 4)))),
        checks.scale(checks.wedge(checks.gen(2, 1), checks.gen(4, 1)), checks.G(0, -2)))
