"""Command-line front end.

Targets are either `@name` (catalog entry) or a path to a structure-equation
file.  Reports go to stdout as key-sorted JSON (default) or flattened
`key.path = value` tables; exit codes: 0 success, 1 negative verdict,
failed validation or a report that could not be written, 2 usage error,
3 internal error.

A command imports the theory modules (cohomology, frolicher, symplectic,
stability, deform) inside the handler that runs them, so each process
compiles only what its command uses; the errors main maps to exit codes live
in modules every command loads.  Start-up loads no native library that a
report does not need: the digest comes from CPython's built-in SHA-256, not
from hashlib, whose OpenSSL backend adds about 3.5 MiB to every process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

try:  # CPython's built-in SHA-256: hashlib's own fallback without OpenSSL
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in module

from . import __version__, catalog, dsl
from .algebra import (DEFAULT_SAMPLES, DeformationError, StructureError, SymplecticError,
                      assignment_label, assignment_strings)
from .dsl import DslError, parse_gauss
from .linalg import OperatorCache
from .scalar import ScalarEvalError

THEORY_KEYS = {
    "dr": "de_rham",
    "dolbeault": "dolbeault",
    "del": "del",
    "bc": "bott_chern",
    "aeppli": "aeppli",
}

# the largest page `frolicher --max-page` tabulates; every page past n+1
# equals page n+1, so this covers every n <= 15
MAX_PAGE = 16


class UsageError(ValueError):
    pass


# -- target loading ----------------------------------------------------------


def _load_target(target):
    """(structure, target) of `@name` or a structure-equation file.  The
    target is the one thing parameters are assigned to: the entry's
    deformation family if it has one, otherwise the structure."""
    if target.startswith("@"):
        try:
            entry = catalog.get(target[1:])
        except catalog.CatalogError as e:
            # KeyError str() would re-quote the message
            raise UsageError(e.args[0]) from None
        return entry.spec, entry.family or entry.spec
    try:
        with open(target, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {target}: {e}") from None
    try:
        spec = dsl.parse(text)
    except DslError as e:
        raise UsageError(f"{target}: {e}") from None
    return spec, spec


def _parse_assignment(option, pairs, where=""):
    """{name: value} of `name=value` texts, names and values stripped: the
    one parser of the --assign options and of each --samples sample."""
    assign = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError(f"{option} wants name=value pairs, got {pair!r}")
        if name in assign:
            raise UsageError(f"{option} assigns {name} twice{where}")
        try:
            assign[name] = parse_gauss(value.strip())
        except DslError as e:
            raise UsageError(f"{option} {pair!r}: {e}") from None
    return assign


def _check_assignment(what, assign, params):
    """Refuse an assignment that misses one of the target's parameters or
    names one the target does not have."""
    missing = [p for p in params if p not in assign]
    if missing:
        raise UsageError(f"{what} misses parameters: {', '.join(missing)}")
    unknown = sorted(set(assign) - set(params))
    if unknown:
        raise UsageError(f"{what} has unknown parameters: {', '.join(unknown)}")


def _concretize(spec, target, assign):
    """The structure a single-structure command runs on: the structure
    itself when it is parameter-free and --assign is not passed, otherwise
    the target at the assignment, which must assign exactly the target's
    parameters.  Raises UsageError for a mismatch, DeformationError for a
    singular frame and ScalarEvalError for a vanishing denominator.
    """
    if not assign and not spec.params:
        return spec
    _check_assignment("--assign", assign, target.params)
    from .deform import concretize

    return concretize(target, assign)


def _target_ops(args):
    """(digest, assignment, operator cache) of the concrete structure a
    single-structure command runs on."""
    spec, target = _load_target(args.target)
    assign = _parse_assignment("--assign", args.assign or ())
    ops = OperatorCache(_concretize(spec, target, assign))
    return _digest(spec, target, assign), assign, ops


def _digest(spec, target, assign):
    h = sha256()
    h.update(dsl.pretty(spec).encode())
    if target is not spec:
        h.update(b"family\n")
        # the identity rows stand where a holomorphic frame matrix A was once
        # hashed ahead of B, so every pinned digest stays as it was
        n = len(target.B)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for row in (*identity, *target.B):
            for x in row:
                h.update(str(x).encode())
                h.update(b";")
        if target.omega is not None:
            h.update(str(target.omega).encode())
    for k in sorted(assign):
        h.update(f"{k}={assign[k]}\n".encode())
    return h.hexdigest()


# -- output ------------------------------------------------------------------


def _flatten(value, path, out):
    if isinstance(value, dict):
        for k in value:
            _flatten(value[k], f"{path}.{k}" if path else str(k), out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{path}[{i}]", out)
    else:
        out.append(f"{path} = {value}")


def _emit(report, fmt, code=0):
    """Write and flush the report; returns code, or 1 with the reason on
    stderr if the report could not be written (a full disk, a closed pipe or
    a closed stdout), so a lost report never exits 0."""
    if fmt == "table":
        lines = []
        _flatten(report, "", lines)
        text = "\n".join(sorted(lines)) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except (OSError, ValueError) as e:
        print(f"nilcoh: cannot write the report: {e}", file=sys.stderr)
        return 1
    return code


def _report(command, name, digest, assign, results):
    return {
        "command": command,
        "input": {
            "name": name,
            "digest": digest,
            "assignment": assignment_strings(assign),
        },
        "results": results,
        "version": __version__,
    }


def _pq_str(p, q):
    return f"{p},{q}"


# -- sample-list parsing -----------------------------------------------------


def _parse_grid(text):
    """"t11=0|1/2; t22=0|1/2" -> cartesian product, first key outermost."""
    axes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, values = chunk.partition("=")
        if not sep or not name.strip():
            raise UsageError(f"--grid wants name=v1|v2|..., got {chunk!r}")
        if name.strip() in (n for n, _ in axes):
            raise UsageError(f"--grid repeats the axis {name.strip()}")
        try:
            vals = [parse_gauss(v.strip()) for v in values.split("|")]
        except DslError as e:
            raise UsageError(f"--grid {chunk!r}: {e}") from None
        axes.append((name.strip(), vals))
    if not axes:
        raise UsageError("--grid is empty")
    names = [n for n, _ in axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(vals for _, vals in axes))
    ]


def _samples(args, params):
    """The samples of deform and hypotheses: --samples ("t=0; t=1/2"),
    --grid or the default samples, each checked against the target's
    parameters."""
    grid = getattr(args, "grid", None)  # hypotheses has no --grid
    # an option is absent only when not passed: empty text is refused
    if args.samples is not None and grid is not None:
        raise UsageError("pass --samples or --grid, not both")
    if args.samples is not None:
        chunks = [c.strip() for c in args.samples.split(";") if c.strip()]
        if not chunks:
            raise UsageError("--samples is empty")
        samples = [_parse_assignment("--samples", c.split(","), f" in {c!r}") for c in chunks]
    elif grid is not None:
        samples = _parse_grid(grid)
    else:
        samples = [dict.fromkeys(params, v) for v in DEFAULT_SAMPLES] if params else [{}]
    for s in samples:
        _check_assignment(f"sample {{{assignment_label(s)}}}", s, params)
    return samples


# -- commands ----------------------------------------------------------------


def _cmd_validate(args):
    spec, target = _load_target(args.target)
    assign = _parse_assignment("--assign", args.assign or ())
    digest = _digest(spec, target, assign)
    try:
        report = (_concretize(spec, target, assign) if assign else spec).validate()
    except (DeformationError, ScalarEvalError) as e:
        report = {"ok": False, "error": str(e)}
    return _emit(_report("validate", args.target, digest, assign, report), args.format,
                 0 if report["ok"] else 1)


def _parse_degree(text, theory):
    if text is None:
        return None
    parts = text.split(",")
    try:
        nums = [int(x) for x in parts]
    except ValueError:
        raise UsageError(f"--degree wants k or p,q, got {text!r}") from None
    if theory == "de_rham":
        if len(nums) != 1:
            raise UsageError("de Rham degree is a single total degree k")
        return nums[0]
    if len(nums) != 2:
        raise UsageError(f"{theory} degree is a bidegree p,q")
    return (nums[0], nums[1])


def _check_degree(what, degree, n):
    """Refuse a degree outside the complex of complex dimension n: a total
    degree k outside 0..2n, or a p or q outside 0..n."""
    named = [("k", degree, 2 * n)] if isinstance(degree, int) else [
        ("p", degree[0], n), ("q", degree[1], n)]
    for name, x, top in named:
        if not 0 <= x <= top:
            raise UsageError(f"{what}: {name} = {x} is outside 0..{top}")


def _cmd_cohomology(args):
    from . import cohomology

    digest, assign, ops = _target_ops(args)
    results = {"scope": cohomology.invariant_level_banner(ops.spec)}
    n = ops.n
    if args.theory == "all":
        if args.degree is not None:
            raise UsageError("--degree needs a single --theory")
        results["de_rham"] = {str(k): cohomology.betti(ops, k) for k in range(2 * n + 1)}
        for theory in THEORY_KEYS.values():
            if theory == "de_rham":
                continue
            table = cohomology.hodge_table(ops, theory)
            results[theory] = {_pq_str(p, q): d for (p, q), d in sorted(table.items())}
        return _emit(_report("cohomology", args.target, digest, assign, results), args.format)
    theory = THEORY_KEYS[args.theory]
    degree = _parse_degree(args.degree, theory)
    if degree is None:
        if theory == "de_rham":
            groups = [cohomology.de_rham(ops, k) for k in range(2 * n + 1)]
        else:
            groups = [
                cohomology.group(ops, theory, (p, q))
                for p in range(n + 1)
                for q in range(n + 1)
            ]
    else:
        _check_degree(f"--degree {args.degree}", degree, n)
        groups = [cohomology.group(ops, theory, degree)]
    results["groups"] = [g.as_dict() for g in groups]
    return _emit(_report("cohomology", args.target, digest, assign, results), args.format)


def _cmd_frolicher(args):
    from . import cohomology, frolicher

    if args.max_page is not None and args.max_page > MAX_PAGE:
        raise UsageError(
            f"--max-page {args.max_page} is above {MAX_PAGE}; every page "
            "past n+1 equals page n+1"
        )
    if args.max_page is not None and args.max_page < 1:
        raise UsageError(f"--max-page {args.max_page} is below 1")
    digest, assign, ops = _target_ops(args)
    page, certificate = frolicher.degeneration_page(ops)
    pages = certificate["pages"]
    for r in range(page + 1, (args.max_page or 0) + 1):
        pages.append(frolicher.spectral_page(ops, r))
    results = {
        "scope": cohomology.invariant_level_banner(ops.spec),
        "pages": {str(r): {f"({p},{q})": d for (p, q), d in sorted(pg.items())}
                  for r, pg in enumerate(pages, 1)},
        "degeneration_page": page,
        "betti": {str(k): v for k, v in certificate["betti"].items()},
        "e_infinity": {
            f"({p},{q})": d
            for (p, q), d in sorted(certificate["e_infinity"].items())
        },
    }
    return _emit(_report("frolicher", args.target, digest, assign, results), args.format)


def _cmd_symplectic(args):
    from . import symplectic

    digest, assign, ops = _target_ops(args)
    rep = symplectic.find_symplectic(ops)
    results = {"symplectic": rep.as_dict()}
    if args.suite61:
        if rep.verdict == "exists":
            results["wedge_class_suite"] = symplectic.theorem61_suite(ops, rep.witness)
        else:
            results["wedge_class_suite"] = {
                "skipped": f"no witness available (verdict {rep.verdict})"
            }
    if args.betti_bounds:
        try:
            results["betti_bounds"] = symplectic.betti_bounds(ops)
        except SymplecticError as e:
            results["betti_bounds"] = {"error": str(e)}
    return _emit(_report("symplectic", args.target, digest, assign, results), args.format,
                 0 if rep.verdict == "exists" else 1)


TASK_TOKENS = ("validate", "cohomology", "symplectic", "purefull", "hypotheses")


def _parse_tasks(text):
    """"symplectic; cohomology=bc:2,0; purefull=2" -> list of task specs;
    None (no --tasks) runs "validate; symplectic"."""
    tasks = []
    for chunk in ("validate; symplectic" if text is None else text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, rest = chunk.partition("=")
        head = head.strip()
        if head not in TASK_TOKENS:
            raise UsageError(
                f"unknown task {head!r}; tasks: {', '.join(TASK_TOKENS)}"
            )
        if head == "cohomology":
            if not sep:
                raise UsageError("cohomology task wants cohomology=<theory>:<degree>")
            tkey, tsep, deg = rest.partition(":")
            tkey = tkey.strip()
            if tkey not in THEORY_KEYS or not tsep:
                raise UsageError(
                    f"cohomology task wants <theory>:<degree> with theory in "
                    f"{', '.join(THEORY_KEYS)}; got {rest!r}"
                )
            theory = THEORY_KEYS[tkey]
            task = ("cohomology", theory, _parse_degree(deg.strip(), theory))
        elif head == "purefull":
            if not sep:
                raise UsageError("purefull task wants purefull=<stage>")
            try:
                task = ("purefull", int(rest.strip()))
            except ValueError:
                raise UsageError(f"purefull stage must be an integer, got {rest!r}")
        else:
            if sep:
                raise UsageError(f"task {head} takes no argument")
            task = (head,)
        if task in tasks:
            raise UsageError(f"--tasks repeats the task {chunk}")
        tasks.append(task)
    if not tasks:
        raise UsageError("--tasks is empty")
    return tasks


def _run_tasks(tasks, spec, ops=None):
    out = {}
    for task in tasks:
        kind = task[0]
        if kind == "validate":
            out["validate"] = spec.validate()
            continue
        if ops is None:
            ops = OperatorCache(spec)
        if kind == "symplectic":
            from . import symplectic

            out["symplectic"] = symplectic.find_symplectic(ops).as_dict()
            continue
        from . import cohomology

        if kind == "cohomology":
            _, theory, degree = task
            g = cohomology.group(ops, theory, degree)
            out.setdefault("cohomology", []).append(g.as_dict())
        elif kind == "purefull":
            out.setdefault("purefull", []).append(
                cohomology.pure_full(ops, task[1]).as_dict()
            )
    return out


def _cmd_deform(args):
    from .deform import concretize, sweep

    spec, target = _load_target(args.target)
    samples = _samples(args, target.params)
    tasks = _parse_tasks(args.tasks)
    for task in tasks:
        if task[0] in ("cohomology", "purefull"):
            _check_degree(f"task {task[0]}", task[-1], spec.n)
    per_sample = [t for t in tasks if t[0] != "hypotheses"]
    if len(per_sample) == len(tasks):
        # a deformation family sweeps by frame change, a parametric structure
        # by direct substitution; a parameter-free structure has one row
        results = {"samples": sweep(
            samples, lambda a: _run_tasks(per_sample, concretize(target, a)))}
    elif target is spec:
        raise UsageError("the hypotheses task needs a catalog entry with a deformation family")
    else:
        from .stability import check_stability_hypotheses

        results = check_stability_hypotheses(
            target, samples, lambda ops: _run_tasks(per_sample, ops.spec, ops))
    return _emit(_report("deform", args.target, _digest(spec, target, {}), {}, results),
                 args.format)


def _cmd_purefull(args):
    from . import cohomology

    digest, assign, ops = _target_ops(args)
    for k in args.stage:
        _check_degree(f"--stage {k}", k, ops.n)
    results = {
        "scope": cohomology.invariant_level_banner(ops.spec),
        "stages": [cohomology.pure_full(ops, k).as_dict() for k in args.stage],
    }
    return _emit(_report("purefull", args.target, digest, assign, results), args.format)


def _cmd_hypotheses(args):
    spec, family = _load_target(args.target)
    if family is spec:
        raise UsageError("hypotheses needs a catalog entry with a deformation family")
    from .stability import check_stability_hypotheses

    results = check_stability_hypotheses(family, _samples(args, family.params),
                                         lambda ops: None)
    return _emit(_report("hypotheses", args.target, _digest(spec, family, {}), {},
                         results["hypotheses"]), args.format)


def _cmd_catalog(args):
    results = {"entries": [e.as_dict() for e in catalog.catalog()]}
    return _emit({"command": "catalog", "results": results, "version": __version__},
                 args.format)


# -- wiring ------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nilcoh",
        description="exact invariant complex geometry on nilmanifolds and "
                    "solvmanifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("target", help="@catalog-name or structure-equation file")
        p.add_argument("--assign", action="append", metavar="NAME=VALUE",
                       help="exact parameter value, e.g. t=1/2 or t=i/2")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("validate", help="integrability and d^2 = 0")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("cohomology", help="cohomology groups of one or all theories")
    common(p)
    p.add_argument("--theory", choices=tuple(THEORY_KEYS) + ("all",), default="all")
    p.add_argument("--degree", help="total degree k (dr) or bidegree p,q")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("frolicher", help="spectral sequence pages and degeneration")
    common(p)
    p.add_argument("--max-page", type=int, default=None,
                   help=f"tabulate pages 1..N, 1 <= N <= {MAX_PAGE}; the "
                        "pages through degeneration are always printed")
    p.set_defaults(fn=_cmd_frolicher)

    p = sub.add_parser("symplectic",
                       help="decide existence of a complex symplectic structure")
    common(p)
    p.add_argument("--suite61", action="store_true",
                   help="check the witness wedge-power classes in all theories")
    p.add_argument("--betti-bounds", action="store_true",
                   help="check the even-degree Betti lower bounds")
    p.set_defaults(fn=_cmd_symplectic)

    p = sub.add_parser("deform", help="sweep a deformation family over samples")
    p.add_argument("target", help="@catalog-name with a deformation family")
    p.add_argument("--samples", help='e.g. "t=0; t=1/2; t=i/2"')
    p.add_argument("--grid", help='e.g. "t11=0|1/2; t22=0|1/2"')
    p.add_argument("--tasks",
                   help='e.g. "validate; symplectic; cohomology=bc:2,0; purefull=2"')
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_deform)

    p = sub.add_parser("purefull", help="pure-and-full decomposition at a stage")
    common(p)
    p.add_argument("--stage", type=int, action="append", required=True,
                   help="total degree k (repeatable)")
    p.set_defaults(fn=_cmd_purefull)

    p = sub.add_parser("hypotheses",
                       help="stability hypotheses of a deformation family")
    p.add_argument("target", help="@catalog-name with a deformation family")
    p.add_argument("--samples", help='e.g. "t=0; t=1/2; t=-1/2"')
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_hypotheses)

    p = sub.add_parser("catalog", help="list built-in structures")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # reports print exact values, however many digits they have
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"nilcoh: {e}", file=sys.stderr)
        return 2
    except (DeformationError, ScalarEvalError, StructureError) as e:
        print(f"nilcoh: {e}", file=sys.stderr)
        return 1
    except (DslError, SymplecticError) as e:
        print(f"nilcoh: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"nilcoh: internal inconsistency: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 -- the contract maps surprises to 3
        print(f"nilcoh: unexpected error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":  # python -m nilcoh.cli leaves through the one process entry
    from .__main__ import main as process_main

    process_main()
