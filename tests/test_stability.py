"""Stability hypothesis checks along the catalog's deformation families."""

import pytest

from nilcoh.algebra import SymplecticError
from nilcoh.catalog import get
from nilcoh.deform import DeformationFamily, frame_change, sweep
from nilcoh.dsl import parse_gauss
from nilcoh.exterior import BigradedElement
from nilcoh.gauss import InternalError
from nilcoh.linalg import OperatorCache
from nilcoh.scalar import S_ZERO, ScalarExpr
from nilcoh.stability import check_stability_hypotheses


def _samples(*texts):
    return [{"t": parse_gauss(s)} for s in texts]


def _no_task(ops):
    """The per-sample task of the `hypotheses` command: nothing."""


def test_section42_rows(ops):
    fam = get("section42_example").family
    d = check_stability_hypotheses(fam, _samples("0", "1/2"), _no_task)["hypotheses"]
    assert d["family"] == "section42_example"
    assert d["omega"] == "f1^f4+f2^f3"
    assert d["omega_closed_at_zero"] is True
    assert d["omega_nondegenerate_at_zero"] is True
    assert d["h20_bott_chern_constant"] is True
    assert d["scope"].startswith("invariant computation")
    r0, r1 = d["samples"]
    for r in (r0, r1):
        assert r["h20_bott_chern"] == 4
        assert r["del_delbar_zero_on_one_zero_forms"] is True
        assert r["full_at_stage_2"] is True
        assert r["correction_system"]["feasible"] is True
        assert r["correction_system"]["gamma"] == "0"
        assert r["correction_system"]["alpha_20"] == "f1^f4+f2^f3"
        assert r["correction_system"]["alpha_02"] == "0"
        surr = r["degree2_decomposition_surrogate"]
        assert surr["label"] == "necessary-style check"
        assert surr["dimension_identity"] is False
        assert surr["passed"] is False
    assert r0["correction_system"]["alpha_11"] == "0"
    # at t=1/2 the correction shifts into the mixed type
    assert r1["correction_system"]["alpha_11"] == "(-1/2)*f2^F1"
    assert r0["degree2_decomposition_surrogate"]["pure_and_full_at_stage_2"] is True
    assert r1["degree2_decomposition_surrogate"]["pure_and_full_at_stage_2"] is False


def test_example31_family_loses_feasibility(ops):
    fam = get("example31").family
    d = check_stability_hypotheses(fam, _samples("0", "1/2"), _no_task)["hypotheses"]
    assert d["omega"] == "f1^f2+f1^f3+f1^f4+f2^f4"
    assert [r["h20_bott_chern"] for r in d["samples"]] == [4, 3]
    assert d["h20_bott_chern_constant"] is False
    r0, r1 = d["samples"]
    assert r0["correction_system"] == {
        "feasible": True,
        "gamma": "f4",
        "alpha_20": "f1^f3+f1^f4+f2^f4",
        "alpha_11": "0",
        "alpha_02": "0",
    }
    assert r1["correction_system"] == {"feasible": False}
    assert r1["full_at_stage_2"] is False


def test_example45_h20_constant_but_correction_breaks(ops):
    fam = get("example45").family
    d = check_stability_hypotheses(fam, _samples("0", "1/2", "-1/2"), _no_task)["hypotheses"]
    assert [r["h20_bott_chern"] for r in d["samples"]] == [4, 4, 4]
    assert d["h20_bott_chern_constant"] is True
    feas = [r["correction_system"]["feasible"] for r in d["samples"]]
    assert feas == [True, False, False]
    assert d["samples"][0]["correction_system"]["gamma"] == "f4"
    assert d["samples"][0]["correction_system"]["alpha_20"] == "f1^f3+f1^f4+f2^f4"


def test_singular_sample_becomes_error_row(ops):
    fam = get("example31").family
    d = check_stability_hypotheses(fam, _samples("0", "1"), _no_task)["hypotheses"]
    assert d["samples"][1] == {
        "assign": {"t": "1"},
        "error": "frame matrix is singular at t=1",
    }
    assert d["h20_bott_chern_constant"] is True  # only the good row counts
    all_bad = check_stability_hypotheses(fam, _samples("1"), _no_task)["hypotheses"]
    assert all_bad["h20_bott_chern_constant"] is None


def test_invalid_deformed_structure_becomes_the_sweep_error_row():
    # example31's base and form moved by eta^1 = phi^1 + t phi^{2bar}: for
    # t != 0 the deformed structure is not integrable
    fam = get("example31").family
    B = [[S_ZERO] * fam.base.n for _ in range(fam.base.n)]
    B[0][1] = ScalarExpr.param("t")
    probe = DeformationFamily("probe", fam.base, ("t",), B, omega=fam.omega)
    samples = _samples("0", "1/2")
    out = check_stability_hypotheses(probe, samples, lambda ops: ops.n)
    d = out["hypotheses"]
    swept = sweep(samples, lambda a: OperatorCache(frame_change(probe, a)).n)
    # the task rows are the rows of a plain sweep, error row included
    assert out["samples"] == swept
    assert "result" in swept[0] and "h20_bott_chern" in d["samples"][0]
    assert d["samples"][1] == swept[1] == {
        "assign": {"t": "1/2"},
        "error": "structure 'probe at t=1/2' is not integrable: "
                 "d f3 has the (0,2) part (1/2)*F1^F2",
    }
    assert d["h20_bott_chern_constant"] is True


def _with_form(fam, omega):
    """The family with another distinguished form."""
    return DeformationFamily(fam.name, fam.base, fam.params, fam.B, omega=omega)


def test_missing_or_bad_distinguished_form():
    bare = get("theorem51_family").family
    with pytest.raises(SymplecticError, match="no distinguished"):
        check_stability_hypotheses(bare, _samples("0"), _no_task)
    # a parametric or mixed-type form never reaches the checks: the family
    # refuses it
    fam = get("example31").family
    g1, g2 = BigradedElement.gen(1), BigradedElement.gen(2)
    for omega in (g1.wedge(g2).scale(ScalarExpr.param("t")),
                  g1.wedge(BigradedElement.gen(1, barred=True))):
        with pytest.raises(InternalError, match=r"parameter-free \(2,0\)-form"):
            _with_form(fam, omega)


def test_override_form_is_used(ops):
    fam = get("section42_example").family
    omega = BigradedElement.gen(1).wedge(BigradedElement.gen(2))
    d = check_stability_hypotheses(_with_form(fam, omega), _samples("0"), _no_task)["hypotheses"]
    assert d["omega"] == "f1^f2"
    # closed but degenerate: (f1^f2)^2 = 0
    assert d["omega_closed_at_zero"] is True
    assert d["omega_nondegenerate_at_zero"] is False
