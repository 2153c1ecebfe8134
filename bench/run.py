"""nilcoh benchmark: end-to-end CLI timings, or a traced per-layer pass.

Run from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

With --trace 0 every command of the workload runs as its own fresh
`python -m nilcoh ...` process, one after another, and the end-to-end metrics
are measured.  With --trace 1 the workload runs once untraced and once traced
inside a single process (bench/trace.py), which gives the per-layer metrics
and the tracing overhead.  Every report is checked for mathematical
correctness either way.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_REPEATS = 5
# the sweep worker cap the CLI runs with: pinned, and never above the core count
THREADS = min(2, os.cpu_count() or 1)


def run_cli(argv, env):
    """(returncode, stdout bytes, stderr text, wall seconds) of one CLI process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nilcoh", *argv],
                          capture_output=True, env=env, cwd=ROOT)
    wall = time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"), wall


def parse_report(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(env):
    walls = []
    for _ in range(SETUP_REPEATS):
        rc, out, err, wall = run_cli(workloads.SETUP_ARGV, env)
        report = parse_report(out)
        if rc != 0 or report is None or not report["results"]["ok"]:
            die(f"the set-up command {' '.join(workloads.SETUP_ARGV)} failed: {err.strip()}")
        walls.append(wall)
    return walls


def run_round(ops, env):
    """One pass over the command list: per command (stdout, report or None, wall)."""
    out = []
    for op in ops:
        rc, stdout, err, wall = run_cli(op.argv, env)
        report = parse_report(stdout)
        if not op.accepts(rc, report):
            print(f"bench: {op.key} failed with exit {rc}: {err.strip()}", file=sys.stderr)
            report = None
        out.append((stdout, report, wall))
    return out


def end_to_end(workload, seed, seconds):
    ops = workloads.build(workload, seed)
    env = dict(os.environ, PYTHONPATH=str(SRC), NILCOH_THREADS=str(THREADS))
    start = time.perf_counter()
    setup = measure_setup(env)
    rounds = []
    attempted = failed = completed_samples = 0
    errors = []
    while True:
        done = run_round(ops, env)
        rounds.append(done)
        for op, (stdout, report, _) in zip(ops, done):
            attempted += 1 + op.samples
            if report is None:
                failed += 1
            else:
                failed += op.failed_samples(report)
                completed_samples += op.samples - op.failed_samples(report)
        if len(rounds) == 1:
            errors += checks.round_errors(ops, [r for _, r, _ in done])
        elif [s for s, _, _ in done] != [s for s, _, _ in rounds[0]]:
            errors.append("a report changed between two rounds of the same inputs")
        round_wall = sum(w for _, _, w in done)
        if time.perf_counter() - start + round_wall > seconds:
            break

    round_walls = [sum(w for _, _, w in done) for done in rounds]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(round_walls), "s"),
        "samples_per_s": (completed_samples / sum(round_walls), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
    }
    record = {
        "workload": workload, "seed": seed, "threads": THREADS,
        "setup_walls": setup,
        "rounds": [[[op.key, w] for op, (_, _, w) in zip(ops, done)] for done in rounds],
        "errors": errors,
    }
    return not errors, attempted, failed, metrics, record


def traced(workload, seed):
    """The per-layer pass runs in a child with a fixed hash seed and one worker."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", NILCOH_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("trace.py")),
         "--workload", workload, "--seed", str(seed), "--out", str(RESULTS)],
        capture_output=True, text=True, env=env, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die(f"the traced pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: tuple(v) for k, v in result.pop("metrics").items()}
    return result["correct"], result["attempted"], result["failed"], metrics, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nilcoh" / "__init__.py").is_file():
        die(f"no nilcoh sources under {SRC}; run from the repository root")
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        correct, attempted, failed, metrics, record = traced(args.workload, args.seed)
    else:
        correct, attempted, failed, metrics, record = end_to_end(
            args.workload, args.seed, args.seconds)
        for e in record["errors"]:
            print(f"bench: check failed: {e}", file=sys.stderr)
        name = f"run-{args.workload}-{args.seed}.json"
        (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
