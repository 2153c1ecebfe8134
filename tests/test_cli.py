"""End-to-end command-line checks through real subprocesses, and a fuzz of
the parameter, task, degree and stage options through cli.main in process."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcoh import algebra, cli, dsl, linalg, symplectic

BASE = [sys.executable, "-m", "nilcoh"]


def run(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


def run_json(*args, rc=0, env_extra=None):
    proc = run(*args, env_extra=env_extra)
    assert proc.returncode == rc, proc.stderr
    return json.loads(proc.stdout)


def test_validate_ok_envelope():
    d = run_json("validate", "@example31", "--assign", "t=0")
    assert sorted(d) == ["command", "input", "results", "version"]
    assert d["command"] == "validate"
    assert d["version"] == "0.1.0"
    assert d["input"]["name"] == "@example31"
    assert d["input"]["assignment"] == {"t": "0"}
    assert len(d["input"]["digest"]) == 64
    assert d["results"]["ok"] is True


def test_validate_singular_frame_is_runtime_failure():
    d = run_json("validate", "@example31", "--assign", "t=1", rc=1)
    assert d["results"] == {
        "ok": False,
        "error": "frame matrix is singular at t=1",
    }


@pytest.mark.parametrize("argv", [
    ["cohomology"], ["frolicher"], ["symplectic"], ["purefull", "--stage", "2"]])
def test_singular_frame_exits_one_through_main(argv):
    rc, err = _exit_code([argv[0], "@example31", "--assign", "t=1", *argv[1:]])
    assert (rc, err) == (1, "nilcoh: frame matrix is singular at t=1\n")


@pytest.mark.parametrize("module, error, rc", [
    ("deform", "DeformationError", 1), ("symplectic", "SymplecticError", 2)])
def test_main_maps_the_theory_module_errors(monkeypatch, module, error, rc):
    # the modules re-export the classes main catches, so raising either
    # module's class reaches main's mapping and not the exit-3 catch-all
    cls = getattr(importlib.import_module(f"nilcoh.{module}"), error)
    assert cls is getattr(algebra, error)

    def raising(args):
        raise cls("refused")

    monkeypatch.setattr(cli, "_cmd_validate", raising)
    assert _exit_code(["validate", "@torus2"]) == (rc, "nilcoh: refused\n")


_MODULES_LOADED = """
import contextlib, io, json, sys
from nilcoh import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(sys.modules)]))
"""


def _modules_loaded(argv):
    """(exit code, names in sys.modules) after one cli.main call in a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_LOADED, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    return rc, set(loaded)


_THEORY_MODULES = {"cohomology", "frolicher", "symplectic", "stability", "deform"}


@pytest.mark.parametrize("argv, absent", [
    (["validate", "@torus2"], _THEORY_MODULES),
    (["cohomology", "@iwasawa"], {"frolicher", "stability", "deform"}),
    (["deform", "@example31", "--samples", "t=0; t=1/2",
      "--tasks", "validate; symplectic; cohomology=bc:2,0; purefull=2"],
     {"stability", "frolicher"}),
])
def test_a_command_imports_only_the_modules_it_runs(argv, absent):
    rc, loaded = _modules_loaded(argv)
    assert rc == 0
    assert {m.removeprefix("nilcoh.") for m in loaded if m.startswith("nilcoh.")} & absent == set()


@pytest.mark.parametrize("argv", [
    ["validate", "@torus2"],
    ["cohomology", "@iwasawa"],
    ["frolicher", "@iwasawa"],
    ["symplectic", "@torus4"],
    ["deform", "@example31", "--samples", "t=0", "--tasks", "validate"],
    ["purefull", "@iwasawa", "--stage", "2"],
    ["hypotheses", "@section42_example", "--samples", "t=0"],
    ["catalog"],
], ids=lambda argv: argv[0])
def test_no_command_loads_openssl(argv):
    # the digest uses CPython's built-in SHA-256; hashlib's OpenSSL backend
    # would add about 3.5 MiB to every process
    rc, loaded = _modules_loaded(argv)
    assert rc == 0
    assert "_hashlib" not in loaded


@pytest.mark.parametrize("name, pairs", [
    ("@iwasawa_sigma_family", ["t11=1/2", "t12=i", "t21=0", "t22=-1/3"]),
    ("@example31", ["t=1/2+i/3"]),
])
def test_digest_is_the_sha256_of_its_input(monkeypatch, name, pairs):
    spec, target = cli._load_target(name)
    assign = cli._parse_assignment("--assign", pairs)
    digest = cli._digest(spec, target, assign)
    monkeypatch.setattr(cli, "sha256", hashlib.sha256)
    assert cli._digest(spec, target, assign) == digest


_WITHOUT_BUILTIN_SHA256 = """
import contextlib, io, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from nilcoh import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, out.getvalue(), "hashlib" in sys.modules]))
"""


def test_digest_falls_back_to_hashlib_with_the_same_report():
    argv = ["validate", "@example31", "--assign", "t=1/2+i/3"]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_BUILTIN_SHA256, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, report, fell_back = json.loads(proc.stdout)
    assert fell_back and "hashlib" not in _modules_loaded(argv)[1]
    normal = run(*argv)
    assert (rc, report) == (normal.returncode, normal.stdout) and rc == 0


def test_bad_dsl_file_is_usage_error(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text('algebra "bad" dim 2\nd f1 = f3^f1\n')
    proc = run("validate", str(p))
    assert proc.returncode == 2
    assert "line 2, col 8: unknown generator 'f3' (dim is 2)" in proc.stderr
    assert proc.stdout == ""


def test_non_integrable_structure_is_rejected(tmp_path):
    p = tmp_path / "bad3.alg"
    p.write_text('algebra "bad3" dim 3\nd f3 = F1^F2\n')
    proc = run("cohomology", str(p))
    assert proc.returncode == 1
    assert proc.stderr == (
        "nilcoh: structure 'bad3' is not integrable: d f3 has the (0,2) part F1^F2\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_d_squared_nonzero_is_rejected(tmp_path, flags):
    p = tmp_path / "d2bad.alg"
    p.write_text('algebra "d2bad" dim 3\nd f2 = f1^F1\nd f3 = f2^F2\n')
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "nilcoh", "cohomology", str(p),
         "--theory", "dr", "--degree", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        "nilcoh: structure 'd2bad' has d^2 != 0: d(d f3) = -f1^f2^F1+f1^F1^F2\n"
    )
    assert proc.stdout == ""


def test_validate_lists_every_d_squared_failure_with_complex_coefficients(tmp_path):
    p = tmp_path / "d2cx.alg"
    p.write_text('algebra "d2cx" dim 3\nd f2 = f1^F1\nd f3 = i*f2^F2\n')
    d = run_json("validate", str(p), rc=1)
    assert d["results"]["d2_failures"] == [
        {"d2": "-i*f1^f2^F1+i*f1^F1^F2", "generator": "f3", "where": ""},
        {"d2": "-i*f1^f2^F1+i*f1^F1^F2", "generator": "F3", "where": ""},
    ]


def test_unknown_catalog_name_lists_entries():
    proc = run("cohomology", "@nope")
    assert proc.returncode == 2
    assert proc.stderr.startswith("nilcoh: no catalog entry named 'nope'")
    assert "iwasawa_sigma_family" in proc.stderr


def test_missing_parameter_assignment():
    proc = run("cohomology", "@iwasawa_x_torus", "--assign", "t11=0")
    assert proc.returncode == 2
    assert "t22" in proc.stderr


def test_cohomology_single_group():
    d = run_json("cohomology", "@torus4", "--theory", "bc", "--degree", "2,0")
    g = d["results"]["groups"]
    assert g == [
        {
            "theory": "bott_chern",
            "degree": [2, 0],
            "dim": 6,
            "representatives": [
                "f1^f2", "f1^f3", "f1^f4", "f2^f3", "f2^f4", "f3^f4",
            ],
        }
    ]
    assert d["results"]["scope"].startswith("invariant computation")


def test_cohomology_all_tables():
    d = run_json("cohomology", "@iwasawa")
    r = d["results"]
    assert sorted(r) == [
        "aeppli", "bott_chern", "de_rham", "del", "dolbeault", "scope",
    ]
    assert r["de_rham"] == {
        "0": 1, "1": 4, "2": 8, "3": 10, "4": 8, "5": 4, "6": 1,
    }
    assert r["bott_chern"]["2,2"] == 8
    assert r["aeppli"]["1,1"] == 8


def test_frolicher_pages_and_degeneration():
    d = run_json("frolicher", "@frolicher_example")
    r = d["results"]
    assert r["degeneration_page"] == 3
    tower = {rr: page["(0,2)"] for rr, page in r["pages"].items()}
    assert tower == {"1": 6, "2": 4, "3": 3}
    assert r["e_infinity"]["(0,2)"] == 3
    assert r["betti"]["2"] == 7


def test_symplectic_exists_with_extras():
    d = run_json("symplectic", "@example31", "--suite61", "--betti-bounds")
    r = d["results"]
    assert sorted(r) == ["betti_bounds", "symplectic", "wedge_class_suite"]
    assert r["symplectic"]["verdict"] == "exists"
    assert r["symplectic"]["witness"] == "f1^f3+f2^f4"
    assert r["wedge_class_suite"]["all_nontrivial"] is True
    assert len(r["wedge_class_suite"]["cells"]) == 9
    assert r["betti_bounds"]["all_hold"] is True


def test_symplectic_none_exits_one():
    d = run_json("symplectic", "@example31", "--assign", "t=1/2", rc=1)
    r = d["results"]["symplectic"]
    assert r["verdict"] == "none"
    assert r["grid_certificate"] == {"grid": "{0..2}^3", "points_checked": 27}


def test_deform_sweep_goldens():
    d = run_json(
        "deform", "@example31",
        "--samples", "t=0; t=1/2; t=i/2",
        "--tasks", "symplectic",
    )
    rows = d["results"]["samples"]
    seen = [
        (
            row["assign"],
            row["result"]["symplectic"]["verdict"],
            row["result"]["symplectic"]["closed_20_dim"],
        )
        for row in rows
    ]
    assert seen == [
        ({"t": "0"}, "exists", 4),
        ({"t": "1/2"}, "none", 3),
        ({"t": "1/2*i"}, "none", 3),
    ]


def test_deform_grid_over_parametric_entry():
    d = run_json(
        "deform", "@iwasawa_x_torus",
        "--grid", "t11=0|1/2; t22=0|1/2",
        "--tasks", "symplectic",
    )
    rows = d["results"]["samples"]
    verdicts = [r["result"]["symplectic"]["verdict"] for r in rows]
    assert [r["assign"] for r in rows] == [
        {"t11": "0", "t22": "0"},
        {"t11": "0", "t22": "1/2"},
        {"t11": "1/2", "t22": "0"},
        {"t11": "1/2", "t22": "1/2"},
    ]
    assert verdicts == ["exists", "exists", "exists", "none"]


def test_deform_parameter_free_target():
    out = run_json("deform", "@torus4", "--tasks", "symplectic")
    rows = out["results"]["samples"]
    assert len(rows) == 1 and rows[0]["assign"] == {}
    assert rows[0]["result"]["symplectic"]["verdict"] == "exists"
    # a sample naming a parameter the structure lacks is refused, as --assign is
    proc = run("deform", "@torus4", "--samples", "t=0; t=1/2", "--tasks", "symplectic")
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        2, "nilcoh: sample {t=0} has unknown parameters: t\n", "")


def test_deform_singular_sample_is_error_row_not_crash():
    d = run_json(
        "deform", "@example31", "--samples", "t=0; t=1", "--tasks", "validate"
    )
    rows = d["results"]["samples"]
    assert "result" in rows[0]
    assert rows[1] == {
        "assign": {"t": "1"},
        "error": "frame matrix is singular at t=1",
    }


def test_hypotheses_command():
    d = run_json("hypotheses", "@section42_example", "--samples", "t=0; t=1/2; t=1/2+i/3")
    r = d["results"]
    assert r["family"] == "section42_example"
    assert r["h20_bott_chern_constant"] is True
    assert [s["h20_bott_chern"] for s in r["samples"]] == [4, 4, 4]
    # a complex coefficient prints in one pair of parentheses
    assert [s["correction_system"]["alpha_11"] for s in r["samples"]] == [
        "0", "(-1/2)*f2^F1", "(-1/2-1/3*i)*f2^F1"]


def test_purefull_command():
    d = run_json(
        "purefull", "@example31", "--assign", "t=1/2", "--stage", "2"
    )
    r = d["results"]
    assert sorted(r) == ["scope", "stages"]
    s = r["stages"][0]
    assert s["stage"] == 2
    assert s["betti"] == 15
    assert s["sum_dim"] == 11
    assert s["full"] is False


def test_catalog_listing():
    d = run_json("catalog")
    assert sorted(d) == ["command", "results", "version"]
    names = [e["name"] for e in d["results"]["entries"]]
    assert len(names) == 12
    assert names[0] == "torus2" and names[-1] == "iwasawa_sigma_family"


def test_catalog_takes_no_list_option():
    # listing is what the command does; an option that changes nothing is refused
    proc = run("catalog", "--list")
    assert proc.returncode == 2
    assert "unrecognized arguments: --list" in proc.stderr


def test_table_format():
    proc = run("catalog", "--format", "table")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert all(" = " in line for line in lines if line)
    assert any(line.startswith("results.entries[0].name = torus2") for line in lines)


# Nothing in nilcoh reads NILCOH_THREADS, but bench/run.py still sets it: the
# report must not depend on it.
@pytest.mark.parametrize("threads", ["1", "8"])
def test_byte_determinism_across_thread_caps(threads):
    args = (
        "deform", "@example31",
        "--samples", "t=0; t=1/2; t=i/2",
        "--tasks", "validate; symplectic",
    )
    a = run(*args, env_extra={"NILCOH_THREADS": threads})
    b = run(*args, env_extra={"NILCOH_THREADS": "3"})
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


# Two processes with different hash seeds give the same bytes: no report
# depends on set or dict order of hashed keys.  nilcoh reads no
# NILCOH_THREADS; bench/run.py sets it, so the two runs differ there too.
def test_byte_determinism_across_processes():
    for args in (
        ("deform", "@iwasawa_sigma_family",
         "--samples", "t11=1/3, t12=1/4, t21=i/5, t22=-1/3",
         "--tasks", "validate; cohomology=dr:2; cohomology=bc:1,1"),
        ("symplectic", str(Path(__file__).parent / "data" / "iwasawa_x_iwasawa.txt"),
         "--suite61"),
    ):
        a = run(*args, env_extra={"PYTHONHASHSEED": "0", "NILCOH_THREADS": "1"})
        b = run(*args, env_extra={"PYTHONHASHSEED": "1", "NILCOH_THREADS": "8"})
        assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")


# ---------------------------------------------------------------------------
# the process entry: `python -m nilcoh` flushes the report, then os._exit

_ROOT = Path(__file__).resolve().parents[1]
_WRITE_FAILED = "nilcoh: cannot write the report: "


def _env(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("module, argv", [
    ("nilcoh", ["validate", "@torus2"]),  # fits in the stdout buffer
    ("nilcoh", ["cohomology", "@torus4", "--theory", "bc"]),  # outgrows it
    ("nilcoh.cli", ["validate", "@torus2"]),
])
def test_a_report_that_cannot_be_written_exits_1(module, argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", module, *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_env(unbuffered))
    assert (proc.returncode, proc.stderr) == (
        1, _WRITE_FAILED + "[Errno 28] No space left on device\n")


def test_a_closed_stdout_exits_1():
    proc = subprocess.run(BASE + ["validate", "@torus2"], stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (1, _WRITE_FAILED + "stdout is closed\n")


@pytest.mark.parametrize("argv, rc", [
    (["cohomology", "@torus4", "--theory", "bc"], 0),
    (["frolicher", "@frolicher_example", "--max-page", "6"], 0),
    (["catalog"], 0),
    (["symplectic", "@theorem51_family"], 1),
    (["validate", "@no_such_entry"], 2),
])
def test_the_process_delivers_every_byte_of_the_in_process_run(argv, rc):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == rc
    proc = subprocess.run(BASE + argv, capture_output=True, env=_env(unbuffered=False))
    assert proc.returncode == rc
    assert proc.stdout == out.getvalue().encode()
    assert proc.stderr == err.getvalue().encode()
    if argv[0] == "cohomology":  # the report outgrows the stdout buffer
        assert len(proc.stdout) > io.DEFAULT_BUFFER_SIZE


def test_the_installed_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    # `pip show nilcoh` finds what `pip install .` installed
    assert project["name"] == "nilcoh"
    module, _, attr = project["scripts"]["nilcoh"].partition(":")
    assert module == "nilcoh.__main__"
    entry = importlib.import_module(module)
    assert callable(getattr(entry, attr))
    # `python -m nilcoh` runs the module as __main__, whose guard calls the same name
    guard = ast.parse(Path(entry.__file__).read_text()).body[-1]
    assert ast.unparse(guard) == f"if __name__ == '__main__':\n    {attr}()"


# ---------------------------------------------------------------------------
# fuzz: --assign, --samples and --grid text through cli.main in process

_VALUE_TOKENS = [
    "0", "1", "2", "12", "1/2", "i", "2i", "i/3", "t", "t11", "conj(t)", "(", ")",
    "+", "-", "*", "/", "^", "100", "101", "1000000000", "9" * 4300, "1/0",
    "=", ";", "|", ",", " ", ".", "#", "é",
]
_value = st.lists(st.sampled_from(_VALUE_TOKENS), max_size=10).map("".join)
_name = st.sampled_from(["t", "t11", "t22", "s", "", "i", "t=t", " t "])


def _exit_code(argv):
    """(exit code, stderr) of one cli.main call; argparse errors exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(_name, _value, _name, _value, st.sampled_from([";", "; ", "|", ""]))
@example("t", "9" * 4300 + "*" + "9" * 4300, "t", "0", ";")  # 8600 digits to print
@example("t", "12^100^100", "t", "1/2", ";")  # a chain of exponents
def test_cli_fuzz_parameter_text_exits_0_1_or_2(name, value, name2, value2, sep):
    argvs = [
        ["validate", "@example31", f"--assign={name}={value}"],
        ["cohomology", "@example31", f"--assign={name}={value}",
         "--theory", "bc", "--degree", "2,0"],
        ["deform", "@example31", f"--samples={name}={value}{sep}{name2}={value2}",
         "--tasks", "validate"],
        ["deform", "@iwasawa_x_torus", f"--grid={name}={value}|{value2}{sep}{name2}={value2}",
         "--tasks", "validate"],
    ]
    for argv in argvs:
        rc, err = _exit_code(argv)
        assert rc in (0, 1, 2), (argv, rc, err)
        assert "Traceback" not in err, err


# ---------------------------------------------------------------------------
# fuzz: --tasks, --degree and --stage text through cli.main in process

_TASK_TOKENS = [
    "validate", "cohomology", "symplectic", "purefull", "hypotheses", "bc", "dr",
    "dolbeault", "del", "aeppli", "x", "=", ":", ";", ",", " ", "0", "1", "2", "-1",
    "9" * 30, "9" * 4400, "é",
]
_task_text = st.lists(st.sampled_from(_TASK_TOKENS), max_size=8).map("".join)
_small_int_text = st.sampled_from(["0", "1", "2", "3", "-1", "-7", "8", "9" * 30, "9" * 4400,
                                   "1.5", "", " 2", "x", "2,0", ","])


@settings(max_examples=60, deadline=None)
@given(_task_text, _small_int_text, _small_int_text,
       st.sampled_from(["dr", "dolbeault", "del", "bc", "aeppli", "all"]))
@example("purefull=99999999999", "99999", "2", "dr")
@example("cohomology=bc:99999999999,-3", "-99999,99999", "-5", "bc")
def test_cli_fuzz_task_degree_stage_text_exits_0_1_or_2(tasks, first, second, theory):
    argvs = [
        ["deform", "@example31", "--samples", "t=0", "--tasks", tasks],
        ["cohomology", "@iwasawa", "--theory", theory, "--degree", f"{first},{second}"],
        ["cohomology", "@iwasawa", "--theory", theory, "--degree", first],
        ["purefull", "@iwasawa", "--stage", first, "--stage", second],
    ]
    for argv in argvs:
        rc, err = _exit_code(argv)
        assert rc in (0, 1, 2), (argv, rc, err)
        assert "Traceback" not in err, err


# ---------------------------------------------------------------------------
# bounded work at the input edges


def test_sample_names_are_checked_alike_for_deform_and_hypotheses():
    rc, err = _exit_code(
        ["deform", "@example31", "--samples", "t=0,zz=1", "--tasks", "validate"])
    assert (rc, err) == (2, "nilcoh: sample {t=0, zz=1} has unknown parameters: zz\n")
    rc, err = _exit_code(["hypotheses", "@example31", "--samples", "s=0"])
    assert (rc, err) == (2, "nilcoh: sample {s=0} misses parameters: t\n")
    rc, err = _exit_code(["hypotheses", "@example31", "--samples", "t=0, t=1/2"])
    assert (rc, err) == (2, "nilcoh: --samples assigns t twice in 't=0, t=1/2'\n")
    # --assign goes through the same parser and the same check
    out, padded = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["validate", "@example31", "--assign", "t=1/2"]) == 0
    with contextlib.redirect_stdout(padded):
        assert cli.main(["validate", "@example31", "--assign", " t=1/2"]) == 0
    assert padded.getvalue() == out.getvalue()
    for argv, reason in [
        (["cohomology", "@iwasawa_x_torus"], "--assign misses parameters: t11, t22"),
        (["cohomology", "@iwasawa_x_torus", "--assign", "t11=0"],
         "--assign misses parameters: t22"),
        (["symplectic", "@example31", "--assign", "s=0"], "--assign misses parameters: t"),
        (["validate", "@example31", "--assign", "t=0", "--assign", "s=0"],
         "--assign has unknown parameters: s"),
        (["validate", "@torus2", "--assign", "t=0"], "--assign has unknown parameters: t"),
        (["deform", "@example31", "--samples", "t=0", "--tasks", "symplectic; symplectic"],
         "--tasks repeats the task symplectic"),
        (["deform", "@example31", "--samples", "t=0",
          "--tasks", "cohomology=dr:2; cohomology=bc:2,0; cohomology = bc:2, 0"],
         "--tasks repeats the task cohomology = bc:2, 0"),
    ]:
        assert _exit_code(argv) == (2, f"nilcoh: {reason}\n"), argv
    # a repeated grid axis would double the sweep per repeat
    with pytest.raises(cli.UsageError, match="repeats the axis t"):
        cli._parse_grid("; ".join(["t=0|1/2"] * 12))
    rc, err = _exit_code(
        ["deform", "@example31", "--grid", "t=0|1/2; t=0", "--tasks", "validate"])
    assert (rc, err) == (2, "nilcoh: --grid repeats the axis t\n")


def test_empty_option_text_is_refused():
    # an option is absent only when it is not passed: empty text is no
    # request for the default
    for argv, reason in [
        (["deform", "@example31", "--samples", ""], "--samples is empty"),
        (["deform", "@example31", "--grid", ""], "--grid is empty"),
        (["deform", "@example31", "--tasks", ""], "--tasks is empty"),
        (["hypotheses", "@example31", "--samples", ""], "--samples is empty"),
        (["deform", "@example31", "--samples", "", "--grid", "t=0"],
         "pass --samples or --grid, not both"),
    ]:
        assert _exit_code(argv) == (2, f"nilcoh: {reason}\n"), argv


def test_unreadable_and_unparsable_files_exit_2(tmp_path):
    missing = tmp_path / "missing.txt"
    rc, err = _exit_code(["validate", str(missing)])
    assert rc == 2 and err.startswith(f"nilcoh: cannot read {missing}: "), err
    bad = tmp_path / "div0.txt"
    bad.write_text('algebra "z" dim 3\nd f3 = (1/0) * f1^f2\n')
    assert _exit_code(["validate", str(bad)]) == (
        2, f"nilcoh: {bad}: line 2, col 10: division by zero\n")


@pytest.mark.parametrize("tasks, reason", [
    ("cohomology", "cohomology task wants cohomology=<theory>:<degree>"),
    ("cohomology=xx:2", "cohomology task wants <theory>:<degree> with theory in "
                        "dr, dolbeault, del, bc, aeppli; got 'xx:2'"),
    ("purefull=x", "purefull stage must be an integer, got 'x'"),
    ("symplectic=1", "task symplectic takes no argument"),
])
def test_malformed_tasks_are_refused(tasks, reason):
    argv = ["deform", "@example31", "--samples", "t=0", "--tasks", tasks]
    assert _exit_code(argv) == (2, f"nilcoh: {reason}\n")


def test_hypotheses_refuses_a_target_without_a_distinguished_form(tmp_path):
    path = tmp_path / "iwasawa.txt"
    path.write_text('algebra "iwasawa" dim 3\nd f3 = f1^f2\n')
    for argv, reason in [
        (["hypotheses", str(path)],
         "hypotheses needs a catalog entry with a deformation family"),
        (["hypotheses", "@nakamura_x_torus"],
         "family 'nakamura_x_torus' carries no distinguished (2,0)-form"),
    ]:
        assert _exit_code(argv) == (2, f"nilcoh: {reason}\n"), argv


def test_de_rham_without_a_degree_reports_every_degree():
    groups = _main_json(["cohomology", "@iwasawa", "--theory", "dr"])["results"]["groups"]
    assert [(g["theory"], g["degree"]) for g in groups] == [("de_rham", k) for k in range(7)]
    assert [g["dim"] for g in groups] == [1, 4, 8, 10, 8, 4, 1]


def test_symplectic_extras_on_an_odd_dimension_report_why_they_are_empty():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["symplectic", "@iwasawa", "--suite61", "--betti-bounds"])
    results = json.loads(out.getvalue())["results"]
    assert rc == 1
    assert results["symplectic"]["verdict"] == "odd_dimension"
    assert results["wedge_class_suite"] == {
        "skipped": "no witness available (verdict odd_dimension)"}
    assert results["betti_bounds"] == {"error": "real dimension is not divisible by 4"}


@pytest.mark.parametrize("error, message", [
    (linalg.InternalError("pivot lost"), "internal inconsistency: pivot lost"),
    (RuntimeError("boom"), "unexpected error: RuntimeError: boom"),
])
def test_main_maps_bugs_to_exit_3(monkeypatch, error, message):
    def raising(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_validate", raising)
    assert _exit_code(["validate", "@torus2"]) == (3, f"nilcoh: {message}\n")


@pytest.mark.parametrize("name", ["torus6.txt", "iwasawa_x_iwasawa.txt"])
def test_symplectic_decides_the_six_dimensional_files(monkeypatch, name):
    # 15 and 10 closed (2,0)-forms: grids of 4^15 and 4^10 points that no
    # walk visits.  The witness passes nilcoh's own check and the exterior
    # algebra of bench/checks.py, which shares no code with nilcoh
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    checks = importlib.import_module("checks")
    path = _ROOT / "tests" / "data" / name
    spec = dsl.parse(path.read_text())
    res = run_json("symplectic", str(path), "--suite61", "--betti-bounds")["results"]
    sym = res["symplectic"]
    assert sym["verdict"] == "exists"
    symplectic._check_witness(linalg.OperatorCache(spec), dsl.parse_form(sym["witness"], spec.n))
    structure = checks.Structure(spec.n, [str(f) for f in spec.d_phi])
    assert checks.witness_errors(name, sym["witness"], structure) == []
    assert res["wedge_class_suite"]["all_nontrivial"] is True
    assert res["betti_bounds"]["all_hold"] is True
    rows = run_json("deform", str(path), "--tasks", "symplectic")["results"]["samples"]
    assert [row["result"]["symplectic"] for row in rows] == [sym]


def test_frolicher_max_page_is_bounded():
    rc, err = _exit_code(["frolicher", "@iwasawa", "--max-page", "17"])
    assert (rc, err) == (
        2, "nilcoh: --max-page 17 is above 16; every page past n+1 equals page n+1\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["frolicher", "@iwasawa", "--max-page", "16"]) == 0
    pages = json.loads(out.getvalue())["results"]["pages"]
    assert sorted(pages, key=int) == [str(r) for r in range(1, 17)]
    assert all(pages[str(r)] == pages["4"] for r in range(5, 17))


def test_frolicher_max_page_below_one_is_refused():
    for page in ("0", "-3"):
        rc, err = _exit_code(["frolicher", "@frolicher_example", "--max-page", page])
        assert (rc, err) == (2, f"nilcoh: --max-page {page} is below 1\n")
    # the pages through the degeneration page are printed whatever N is
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["frolicher", "@frolicher_example", "--max-page", "1"]) == 0
    assert sorted(json.loads(out.getvalue())["results"]["pages"]) == ["1", "2", "3"]


def test_out_of_range_degrees_and_stages_are_refused(monkeypatch):
    # k and the stage lie in 0..2n, p and q in 0..n; the command form and
    # the task form refuse alike
    for argv, reason in [
        (["purefull", "@torus2", "--stage", "-1"], "--stage -1: k = -1 is outside 0..4"),
        (["purefull", "@torus2", "--stage", "2", "--stage", "5"],
         "--stage 5: k = 5 is outside 0..4"),
        (["cohomology", "@torus2", "--theory", "bc", "--degree", "7,-2"],
         "--degree 7,-2: p = 7 is outside 0..2"),
        (["cohomology", "@torus2", "--theory", "del", "--degree", "1,-2"],
         "--degree 1,-2: q = -2 is outside 0..2"),
        (["cohomology", "@torus2", "--theory", "dr", "--degree", "5"],
         "--degree 5: k = 5 is outside 0..4"),
    ]:
        assert _exit_code(argv) == (2, f"nilcoh: {reason}\n"), argv
    # deform refuses before it builds a structure of any sample
    built = []
    monkeypatch.setattr(linalg.OperatorCache, "__init__",
                        lambda self, spec: built.append(spec.name))
    for tasks, reason in [
        ("validate; cohomology=bc:5,0", "task cohomology: p = 5 is outside 0..4"),
        ("cohomology=aeppli:0,-1", "task cohomology: q = -1 is outside 0..4"),
        ("cohomology=dr:-1", "task cohomology: k = -1 is outside 0..8"),
        ("symplectic; purefull=9", "task purefull: k = 9 is outside 0..8"),
    ]:
        argv = ["deform", "@example31", "--samples", "t=0; t=1/2", "--tasks", tasks]
        assert _exit_code(argv) == (2, f"nilcoh: {reason}\n"), argv
    assert built == []
    monkeypatch.undo()
    # the ends of each range are accepted
    for argv in (["purefull", "@torus2", "--stage", "0", "--stage", "4"],
                 ["cohomology", "@torus2", "--theory", "bc", "--degree", "2,2"],
                 ["cohomology", "@torus2", "--theory", "dr", "--degree", "0"],
                 ["deform", "@example31", "--samples", "t=0",
                  "--tasks", "cohomology=dr:8; cohomology=bc:4,0; purefull=0"]):
        assert _exit_code(argv) == (0, ""), argv


def test_assign_refuses_a_repeated_name():
    rc, err = _exit_code(["validate", "@example31", "--assign", "t=0", "--assign", "t=1/2"])
    assert (rc, err) == (2, "nilcoh: --assign assigns t twice\n")


@pytest.fixture
def validation_calls(monkeypatch):
    """Validation reports built, d^2 checks and AlgebraSpec.d calls,
    counted."""
    calls = {"reports": 0, "d2_checks": 0, "d": 0}
    validate, check_d2 = algebra.AlgebraSpec._validate, algebra.AlgebraSpec._check_d2
    d = algebra.AlgebraSpec.d

    def counting_validate(self):
        calls["reports"] += 1
        return validate(self)

    def counting_check_d2(self, report, label):
        calls["d2_checks"] += 1
        check_d2(self, report, label)

    def counting_d(self, element):
        calls["d"] += 1
        return d(self, element)

    monkeypatch.setattr(algebra.AlgebraSpec, "_validate", counting_validate)
    monkeypatch.setattr(algebra.AlgebraSpec, "_check_d2", counting_check_d2)
    monkeypatch.setattr(algebra.AlgebraSpec, "d", counting_d)
    return calls


def test_each_concrete_structure_is_validated_once(validation_calls):
    # the validate task and the operator cache share one report per sample,
    # and its d^2 check squares the assembled matrices: no symbolic d
    rc, _ = _exit_code(["deform", "@example31", "--samples", "t=0; t=1/2; t=i/2",
                        "--tasks", "validate; symplectic"])
    assert rc == 0
    assert validation_calls == {"reports": 3, "d2_checks": 3, "d": 0}


def test_deform_refuses_hypotheses_before_sweeping(monkeypatch):
    built = []
    init = linalg.OperatorCache.__init__

    def counting_init(self, spec):
        built.append(spec.name)
        init(self, spec)

    monkeypatch.setattr(linalg.OperatorCache, "__init__", counting_init)
    refusals = [
        (["deform", "@nakamura_x_torus", "--samples", "t=0; t=1/2; t=i/3",
          "--tasks", "cohomology=dr:2; symplectic; hypotheses"],
         "nilcoh: family 'nakamura_x_torus' carries no distinguished (2,0)-form\n"),
        (["deform", "@iwasawa", "--tasks", "validate; symplectic; hypotheses"],
         "nilcoh: the hypotheses task needs a catalog entry with a deformation family\n"),
    ]
    for argv, reason in refusals:
        assert _exit_code(argv) == (2, reason), argv
    assert built == []


def test_deform_with_hypotheses_builds_one_cache_per_sample(monkeypatch):
    built = []
    init = linalg.OperatorCache.__init__

    def counting_init(self, spec):
        built.append(spec.name)
        init(self, spec)

    monkeypatch.setattr(linalg.OperatorCache, "__init__", counting_init)
    argv = ["deform", "@example31", "--samples", "t=0; t=1/2; t=i/3",
            "--tasks", "symplectic; hypotheses"]
    assert _exit_code(argv)[0] == 0
    # one per sample, and one of the undeformed base that checks omega
    assert built[0] == "example31"
    assert len(built) == 4 and len(set(built)) == 4


def _main_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("name, singular_at_one", [
    ("example31", True), ("example45", True), ("section42_example", False)])
def test_hypotheses_equals_the_hypotheses_task_of_deform(name, singular_at_one):
    # both commands run the criteria through the same sweep, error rows included
    samples = ["--samples", "t=0; t=1; t=1/2"]
    alone = _main_json(["hypotheses", f"@{name}", *samples])["results"]
    task = _main_json(["deform", f"@{name}", *samples, "--tasks", "hypotheses"])
    assert alone == task["results"]["hypotheses"]
    singular = {"assign": {"t": "1"}, "error": "frame matrix is singular at t=1"}
    assert (alone["samples"][1] == singular) == singular_at_one


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_prints_its_comments():
    block = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.partition("# ")[2].strip()
            for line in block.splitlines() if line.startswith("print(")]
    assert want == ["4", "f1^f3+f2^f4", "3"]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want


def test_readme_quick_start_runs():
    block = README.read_text(encoding="utf-8").split("## Quick start\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("nilcoh ")]
    assert lines
    for line in lines:
        _, _, comment = line.partition("# exit ")
        want = int(comment.split(":")[0]) if comment else 0
        rc, err = _exit_code(shlex.split(line, comments=True)[1:])
        assert rc == want, (line, err)


def test_readme_structure_file_example_parses_and_validates(tmp_path):
    block = README.read_text(encoding="utf-8").split("## Structure-equation files\n", 1)[1]
    block = block.split("```\n", 1)[1].split("```", 1)[0]
    assert any(line.startswith("let ") for line in block.splitlines())
    spec = dsl.parse(block)
    assert spec.params == ("t",)
    path = tmp_path / "example.txt"
    path.write_text(block)
    assert _exit_code(["validate", str(path)]) == (0, "")
    # at t = 1/2, r = 4/3: t*r = 2/3 on f1^F2, and conj(conj(t)*r) is its value too
    half = {"t": dsl.parse_gauss("1/2")}
    assert str(spec.d_gen(3, False).evaluate(half)) == "(-5/3)*f1^f2+(2/3)*f1^F2+(-2/3)*f2^F1"
