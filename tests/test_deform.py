"""Deformation frames: exact change of coframe and parameter sweeps."""

import pytest

from nilcoh.catalog import catalog, get
from nilcoh.deform import DeformationError, concretize, frame_change, sweep
from nilcoh.dsl import parse_gauss
from reference import mono


def _eqs(spec):
    return [str(spec.d_gen(j, False)) for j in range(1, spec.n + 1)]


def test_identity_frame_returns_base_verbatim():
    for entry in catalog():
        if entry.family is None:
            continue
        zero = {p: parse_gauss("0") for p in entry.family.params}
        assert _eqs(frame_change(entry.family, zero)) == _eqs(entry.spec)


def test_example31_frame_golden_at_half():
    spec = frame_change(get("example31").family, {"t": parse_gauss("1/2")})
    assert _eqs(spec) == [
        "0",
        "0",
        "f1^F1",
        "(4/3)*f1^f2+(-2/3)*f1^F2",
    ]


def test_theorem51_frame_golden_at_half():
    spec = frame_change(get("theorem51_family").family, {"t": parse_gauss("1/2")})
    d3 = spec.d_gen(3, False)
    assert str(d3.coeff(mono((1, 2), ()))) == "4/3"
    assert str(d3.coeff(mono((2,), (1,)))) == "2/3"     # (4/3) * t at t=1/2
    assert str(d3.coeff(mono((2,), (2,)))) == "-2/3*i"  # (4/3) * (-i t)
    assert d3.coeff(mono((1,), (1,))).is_zero()


def test_nakamura_frame_golden_at_i_half():
    t = parse_gauss("i/2")
    spec = frame_change(get("nakamura_x_torus").family, {"t": t})
    d3 = spec.d_gen(3, False)
    # d eta^3 = -t eta^{3 ^ bar1}
    assert len(list(d3.items())) == 1
    assert d3.coeff(mono((3,), (1,))).const_value() == -t


def test_singular_frame_raises():
    with pytest.raises(DeformationError, match="singular at t=1"):
        frame_change(get("example31").family, {"t": parse_gauss("1")})


def test_sweep_rows_ordered_and_errors_recorded():
    fam = get("example31").family
    samples = [{"t": parse_gauss(s)} for s in ["0", "1", "1/2"]]
    rows = sweep(samples, lambda a: _eqs(frame_change(fam, a)))
    assert [r["assign"] for r in rows] == [{"t": "0"}, {"t": "1"}, {"t": "1/2"}]
    assert "result" in rows[0] and "result" in rows[2]
    assert rows[1]["error"] == "frame matrix is singular at t=1"


def test_sweep_on_parametric_structure():
    spec = get("iwasawa_x_torus").spec
    grid = [
        {"t11": parse_gauss(a), "t22": parse_gauss(b)}
        for a in ("0", "1/2")
        for b in ("0", "1/2")
    ]
    rows = sweep(grid, lambda a: str(concretize(spec, a).d_gen(3, False).coeff(mono((1, 2), ()))))
    assert [r["result"] for r in rows] == ["-1", "-4/3", "-4/3", "-5/3"]


def test_sweep_on_parameter_free_structure_repeats_base():
    spec = get("torus4").spec
    rows = sweep([{"x": parse_gauss("0")}, {"x": parse_gauss("5")}],
                 lambda a: _eqs(concretize(spec, a)))
    assert rows[0]["result"] == rows[1]["result"] == ["0", "0", "0", "0"]


def test_sweep_result_identical_across_reruns():
    fam = get("example31").family
    samples = [{"t": parse_gauss(s)} for s in ["0", "1/2", "i/2", "1"]]
    outs = [sweep(samples, lambda a: _eqs(frame_change(fam, a))) for _ in range(2)]
    assert outs[0] == outs[1]
