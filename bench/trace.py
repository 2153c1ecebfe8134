"""Traced in-process pass over one workload: the per-layer metrics.

Run by bench/run.py with --trace 1, in a child process with PYTHONHASHSEED=0
and NILCOH_THREADS=1 so that every count repeats exactly between passes.
The commands of one round run through nilcoh.cli.main inside this process:
first untraced, then with the wrappers below installed.  nilcoh itself has
no tracing; every span and counter is recorded here, around the calls into
each module's public functions, and in every module that binds the
function (kernel_basis, for example, is bound in cohomology as well as in
linalg).  Spans (name, start, end, parent) stay in memory and are written as
JSON when the pass ends.

A metric named <layer>.<fn>_s is the inclusive time of the outermost calls
of that function; the JSON file also holds each span name's self time, its
duration minus the time of its child spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import workloads


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []  # open span indices
        self.child_time = []  # per open span: time covered by its children
        self.depth = Counter()
        self.counts = Counter()
        self.inclusive = defaultdict(float)  # outermost calls only
        self.self_time = defaultdict(float)
        self.distinct_kernels = set()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args) and after(result) may add counts."""
        tracer = self

        def wrapper(*args, **kw):
            if before is not None:
                before(args)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            tracer.child_time.append(0.0)
            tracer.depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                end = time.perf_counter()
                dur = end - start
                tracer.stack.pop()
                tracer.self_time[name] += dur - tracer.child_time.pop()
                if tracer.child_time:
                    tracer.child_time[-1] += dur
                tracer.depth[name] -= 1
                if not tracer.depth[name]:
                    tracer.inclusive[name] += dur
                tracer.counts[f"{name}.calls"] += 1
                tracer.spans[idx] = (name, start - tracer.t0, end - tracer.t0, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return wrapper


def rebind(orig, new):
    """Replace a function in every nilcoh module that binds it."""
    for modname, mod in list(sys.modules.items()):
        if modname == "nilcoh" or modname.startswith("nilcoh."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def patch_method(cls, name, make):
    """Replace a method under every name the class binds it (__mul__ and __rmul__)."""
    orig = vars(cls)[name]
    new = make(orig)
    for attr, value in list(vars(cls).items()):
        if value is orig:
            setattr(cls, attr, new)


def install(tr):
    """Wrap the public functions of each layer; returns nothing, patches nilcoh."""
    from nilcoh import (algebra, catalog, cli, cohomology, deform, dsl, exterior,
                        frolicher, gauss, linalg, scalar, stability, symplectic)

    c = tr.counts

    def fn(module, attr, name, before=None, after=None):
        orig = getattr(module, attr)
        rebind(orig, tr.span(name, orig, before, after))

    def method(cls, attr, name, before=None, after=None):
        patch_method(cls, attr, lambda f: tr.span(name, f, before, after))

    # catalog and parser
    fn(catalog, "catalog", "catalog.load")
    patch_method(catalog.CatalogEntry, "__init__",
                 lambda f: tr.counter("catalog.entries_built", f))
    fn(dsl, "parse", "dsl.parse")
    fn(dsl, "parse_gauss", "dsl.parse")

    # scalars
    patch_method(gauss.GaussRat, "__mul__", lambda f: tr.counter("gauss.mul_calls", f))
    for attr in ("__add__", "__sub__"):  # __radd__ is __add__; __rsub__ calls __sub__
        patch_method(gauss.GaussRat, attr, lambda f: tr.counter("gauss.add_calls", f))

    def terms(args):
        c["scalar.terms_evaluated"] += len(args[0].num) + len(args[0].den)

    method(scalar.ScalarExpr, "evaluate", "scalar.evaluate", before=terms)

    # forms
    method(algebra.AlgebraSpec, "d", "algebra.d")
    method(exterior.BigradedElement, "wedge_power", "exterior.wedge_power")

    # deformations
    fn(deform, "frame_change", "deform.frame_change")
    fn(deform, "sweep", "deform.sweep")

    # operator assembly: _matrix runs only on a cache miss
    def assembled(rows):
        c["linalg.matrix_entries"] += len(rows) * (len(rows[0]) if rows else 0)
        c["linalg.matrix_nonzeros"] += sum(1 for r in rows for x in r if x)

    method(linalg.OperatorCache, "_matrix", "linalg.assembly", after=assembled)
    for attr in ("d_total", "del_pq", "delbar_pq", "deldelbar_pq"):
        patch_method(linalg.OperatorCache, attr,
                     lambda f: tr.counter("linalg.assembly_requests", f))

    # elimination
    def shape(args):
        rows = args[0]
        c["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        c["linalg.rref_nonzeros"] += sum(1 for r in rows for x in r if x)

    def operator(args):
        rows, ncols = args
        tr.distinct_kernels.add(hash((ncols, tuple(tuple(r) for r in rows))))

    fn(linalg, "rref", "linalg.rref", before=shape)
    fn(linalg, "kernel_basis", "linalg.kernel", before=operator)
    method(linalg.Subspace, "intersect", "linalg.intersect")
    fn(linalg, "quotient_representatives", "linalg.quotient_reps")

    # theories
    def reps(group):
        c["cohomology.reps_computed"] += len(group.reps)

    for attr in ("de_rham", "dolbeault", "del_cohomology", "bott_chern", "aeppli"):
        fn(cohomology, attr, "cohomology.group", after=reps)
    fn(cohomology, "pure_full", "cohomology.pure_full")
    fn(frolicher, "spectral_page", "frolicher.spectral_page")
    fn(frolicher, "e_infinity", "frolicher.e_infinity")

    def grid(report):
        c["symplectic.grid_points"] += report.grid_points_checked or 0

    fn(symplectic, "find_symplectic", "symplectic.find", after=grid)
    fn(stability, "check_stability_hypotheses", "stability.check")

    # reports
    fn(cli, "_emit", "cli.emit")


def run_pass(ops):
    """Run one round through cli.main: [(exit code, stdout text)] and the
    wall time of each command."""
    from nilcoh import cli

    out, walls = [], []
    for op in ops:
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        walls.append(time.perf_counter() - t0)
        if rc != 0:
            print(f"trace: {op.key} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
        out.append((rc, buf.getvalue()))
    return out, walls


def count_reported(report):
    """(cohomology representatives, spectral pages) printed in one report."""
    reps = pages = 0
    stack = [report]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if isinstance(node.get("representatives"), list):
                reps += len(node["representatives"])
            if report.get("command") == "frolicher" and node is report["results"]:
                pages += len(node["pages"])
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return reps, pages


UNITS = {"_s": "s", "_bytes": "bytes"}


COMMAND_KINDS = ("cohomology", "frolicher", "symplectic", "deform", "hypotheses")


def layer_metrics(tr, ops, traced_out, plain_walls, traced_walls):
    c, t = tr.counts, tr.inclusive
    untraced_s, traced_s = sum(plain_walls), sum(traced_walls)
    reports = [json.loads(text) for _, text in traced_out if text]
    reported = [count_reported(r) for r in reports]
    values = {
        "catalog.load_s": t["catalog.load"],
        "catalog.entries_built": c["catalog.entries_built"],
        "dsl.parse_s": t["dsl.parse"],
        "gauss.mul_calls": c["gauss.mul_calls"],
        "gauss.add_calls": c["gauss.add_calls"],
        "scalar.evaluate_calls": c["scalar.evaluate.calls"],
        "scalar.evaluate_s": t["scalar.evaluate"],
        "scalar.terms_evaluated": c["scalar.terms_evaluated"],
        "algebra.d_calls": c["algebra.d.calls"],
        "algebra.d_s": t["algebra.d"],
        "exterior.wedge_power_calls": c["exterior.wedge_power.calls"],
        "exterior.wedge_power_s": t["exterior.wedge_power"],
        "deform.frame_change_calls": c["deform.frame_change.calls"],
        "deform.frame_change_s": t["deform.frame_change"],
        "deform.sweep_s": t["deform.sweep"],
        "linalg.assembly_misses": c["linalg.assembly.calls"],
        "linalg.assembly_hits": c["linalg.assembly_requests"] - c["linalg.assembly.calls"],
        "linalg.assembly_s": t["linalg.assembly"],
        "linalg.matrix_entries": c["linalg.matrix_entries"],
        "linalg.matrix_nonzeros": c["linalg.matrix_nonzeros"],
        "linalg.rref_calls": c["linalg.rref.calls"],
        "linalg.rref_s": t["linalg.rref"],
        "linalg.rref_cells": c["linalg.rref_cells"],
        "linalg.rref_nonzeros": c["linalg.rref_nonzeros"],
        "linalg.kernel_calls": c["linalg.kernel.calls"],
        "linalg.kernel_distinct": len(tr.distinct_kernels),
        "linalg.intersect_calls": c["linalg.intersect.calls"],
        "linalg.intersect_s": t["linalg.intersect"],
        "linalg.quotient_reps_calls": c["linalg.quotient_reps.calls"],
        "linalg.quotient_reps_s": t["linalg.quotient_reps"],
        "cohomology.group_calls": c["cohomology.group.calls"],
        "cohomology.group_s": t["cohomology.group"],
        "cohomology.reps_computed": c["cohomology.reps_computed"],
        "cohomology.reps_reported": sum(r for r, _ in reported),
        "cohomology.pure_full_s": t["cohomology.pure_full"],
        "frolicher.pages_computed": c["frolicher.spectral_page.calls"],
        "frolicher.pages_reported": sum(p for _, p in reported),
        "frolicher.spectral_page_s": t["frolicher.spectral_page"],
        "frolicher.e_infinity_s": t["frolicher.e_infinity"],
        "symplectic.find_calls": c["symplectic.find.calls"],
        "symplectic.find_s": t["symplectic.find"],
        "symplectic.grid_points": c["symplectic.grid_points"],
        "stability.check_s": t["stability.check"],
        "cli.emit_s": t["cli.emit"],
        "cli.report_bytes": sum(len(text.encode()) for _, text in traced_out),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tr.spans),
    }
    for kind in COMMAND_KINDS:
        values[f"cmd.{kind}_s"] = sum(
            w for op, w in zip(ops, plain_walls) if op.kind == kind)

    def unit(name):
        return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")

    return {name: (v, unit(name)) for name, v in values.items()}


def main():
    parser = argparse.ArgumentParser(description="traced per-layer pass")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    ops = workloads.build(args.workload, args.seed)

    plain, plain_walls = run_pass(ops)
    tr = Tracer()
    install(tr)
    traced_out, traced_walls = run_pass(ops)

    reports, attempted, failed = [], 0, 0
    for op, (rc, text) in zip(ops, traced_out):
        report = json.loads(text) if text else None
        attempted += 1 + op.samples
        if not op.accepts(rc, report):
            failed += 1
            report = None
        else:
            failed += op.failed_samples(report)
        reports.append(report)
    errors = checks.round_errors(ops, reports)
    if traced_out != plain:
        errors.append("tracing changed a report or an exit code")
    for e in errors:
        print(f"trace: check failed: {e}", file=sys.stderr)

    metrics = layer_metrics(tr, ops, traced_out, plain_walls, traced_walls)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "inclusive_s": dict(sorted(tr.inclusive.items())),
        "self_s": dict(sorted(tr.self_time.items())),
        "counts": dict(sorted(tr.counts.items())),
        "spans": tr.spans,
    }) + "\n")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: list(v) for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
