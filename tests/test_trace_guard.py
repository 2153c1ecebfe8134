"""The traced benchmark pass wraps nilcoh functions and methods by name.

bench/trace.py patches them with `vars(cls)[name]` and module attributes, so
renaming or deleting a wrapped name breaks `bench/run.py --trace 1`, and a
hook that reads a wrapped function's arguments breaks when a caller passes
them differently.  This installs the wrappers in a fresh interpreter and
runs commands through them, to catch both in the suite; the T^6 command
runs pages past its degeneration page at n = 6 (from the repository root).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# bench/trace.py is loaded under another name: `trace` is a stdlib module
SCRIPT = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("bench_trace", sys.argv[2])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
mod.install(mod.Tracer())
from nilcoh import cli
for argv in (["frolicher", "@frolicher_example", "--max-page", "5"],
             ["symplectic", "@example31", "--suite61", "--betti-bounds"],
             ["hypotheses", "@example31"],
             ["cohomology", "@example31"]):
    rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc} under the wrappers")
"""


def test_trace_wrappers_install_on_the_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "bench" / "trace.py")],
        capture_output=True, text=True, env=env, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
