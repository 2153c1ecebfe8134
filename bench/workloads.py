"""Seeded inputs and the command list of each benchmark workload.

Every parameter value is an exact Gaussian rational of small height drawn
from the workload seed, inside the admissible region of its family: |t| < 1
for the one-parameter families and the Iwasawa-times-torus grid, and
|t_ij| <= 1/3 for the four-parameter sigma family, where every coefficient
denominator stays at least 1/2 in modulus.  The program only ever sees the
generated command lines.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

# the command every set-up measurement runs: its own work is negligible
SETUP_ARGV = ("validate", "@torus2")

# tasks of the one-parameter sweeps; also the order of the report's lists
SWEEP_TASKS = "validate; symplectic; cohomology=bc:2,0; cohomology=dr:2; purefull=2"
GRID_TASKS = "validate; symplectic; cohomology=bc:2,0; cohomology=dr:2"
SIGMA_TASKS = (
    "validate; cohomology=dr:1; cohomology=dr:2; "
    "cohomology=bc:1,0; cohomology=bc:0,1; cohomology=bc:1,1"
)
PRODUCT_TASKS = "cohomology=dr:2; cohomology=bc:1,1"
JUMP_TASKS = "symplectic; cohomology=bc:2,0"

# one-parameter families swept in `sweep`; those with a distinguished
# (2,0)-form also get a `hypotheses` command over the same samples
FAMILIES = ("example31", "example45", "theorem51_family", "section42_example")
WITH_OMEGA = ("example31", "example45", "section42_example")

ZERO = (Fraction(0), Fraction(0))
NONZERO_SAMPLES = 4  # per family, next to t = 0
SIGMA_GENERIC = 4  # sigma samples with every t_ij nonzero
SIGMA_PRODUCT = 2  # sigma samples with t12 = t21 = 0
JUMP_SAMPLES = 5  # nonzero t of the example31 sweep in `tables`, next to t = 0


def gauss_text(z):
    """Canonical text of a Gaussian rational (re, im), as nilcoh prints it."""
    re, im = z
    if not re and not im:
        return "0"
    out = str(re) if re else ""
    if im:
        s = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
        out += s if (not out or s.startswith("-")) else "+" + s
    return out


def _draw(rng, denominators, inside):
    """A nonzero (re, im) = (a/q, b/q) with inside(a, b, q) true."""
    while True:
        q = rng.choice(denominators)
        a = rng.randint(-q + 1, q - 1)
        b = rng.randint(-q + 1, q - 1)
        if (a or b) and inside(a, b, q):
            return (Fraction(a, q), Fraction(b, q))


def _disc(rng):
    """|t| < 1."""
    return _draw(rng, (2, 3, 4, 5), lambda a, b, q: a * a + b * b < q * q)


def _small(rng):
    """|t| <= 1/3."""
    return _draw(rng, (3, 4, 5, 6), lambda a, b, q: 9 * (a * a + b * b) <= q * q)


def _distinct(rng, draw, count):
    out = []
    while len(out) < count:
        z = draw(rng)
        if z not in out:
            out.append(z)
    return out


class Op:
    """One CLI command of a workload, with what its checks need to know."""

    __slots__ = ("key", "kind", "argv", "samples", "meta")

    def __init__(self, key, kind, argv, samples=0, **meta):
        self.key = key
        self.kind = kind  # the CLI subcommand
        self.argv = list(argv)
        self.samples = samples  # parameter samples the command evaluates
        self.meta = meta

    def accepts(self, rc, report):
        """Did the command succeed: exit 0 and a JSON report?  Every command
        of the workloads answers positively on admissible inputs."""
        return report is not None and rc == 0

    def failed_samples(self, report):
        """Sample rows of a sweep report that carry an error instead of a result."""
        if self.kind not in ("deform", "hypotheses"):
            return 0
        return sum("error" in row for row in report["results"]["samples"])


def samples_arg(assigns):
    return "; ".join(
        ", ".join(f"{k}={gauss_text(v)}" for k, v in a.items()) for a in assigns
    )


def tables(rng):
    assigns = [{"t": ZERO}] + [{"t": z} for z in _distinct(rng, _disc, JUMP_SAMPLES)]
    jump = Op("deform:example31", "deform",
              ["deform", "@example31", "--samples", samples_arg(assigns),
               "--tasks", JUMP_TASKS],
              samples=len(assigns), family="example31", assigns=assigns)
    return [
        Op("symplectic31", "symplectic",
           ["symplectic", "@example31", "--suite61", "--betti-bounds"],
           family="example31", t=ZERO),
        Op("cohomology31", "cohomology",
           ["cohomology", "@example31", "--assign", f"t={gauss_text(assigns[1]['t'])}"]),
        Op("frolicher", "frolicher", ["frolicher", "@frolicher_example"],
           tables="cohomology_frolicher"),
        Op("cohomology_frolicher", "cohomology", ["cohomology", "@frolicher_example"]),
        jump,
    ]


def sweep(rng):
    ops = []
    for fam in FAMILIES:
        assigns = [{"t": ZERO}] + [
            {"t": z} for z in _distinct(rng, _disc, NONZERO_SAMPLES)
        ]
        text = samples_arg(assigns)
        ops.append(Op(f"deform:{fam}", "deform",
                      ["deform", f"@{fam}", "--samples", text, "--tasks", SWEEP_TASKS],
                      samples=len(assigns), family=fam, assigns=assigns))
        if fam in WITH_OMEGA:
            ops.append(Op(f"hypotheses:{fam}", "hypotheses",
                          ["hypotheses", f"@{fam}", "--samples", text],
                          samples=len(assigns), family=fam, assigns=assigns))
    a, b = _disc(rng), _disc(rng)
    axes = {"t11": [ZERO, a], "t22": [ZERO, b]}
    grid = "; ".join(f"{k}={'|'.join(gauss_text(v) for v in vs)}" for k, vs in axes.items())
    assigns = [dict(zip(axes, combo)) for combo in product(*axes.values())]
    ops.append(Op("deform:iwasawa_x_torus", "deform",
                  ["deform", "@iwasawa_x_torus", "--grid", grid, "--tasks", GRID_TASKS],
                  samples=len(assigns), family="iwasawa_x_torus", assigns=assigns))
    return ops


def sigma(rng):
    assigns = []
    while len(assigns) < SIGMA_PRODUCT + SIGMA_GENERIC:
        product_point = len(assigns) < SIGMA_PRODUCT
        a = {
            "t11": _small(rng),
            "t12": ZERO if product_point else _small(rng),
            "t21": ZERO if product_point else _small(rng),
            "t22": _small(rng),
        }
        if a not in assigns:
            assigns.append(a)
    products = [{"t11": a["t11"], "t22": a["t22"]} for a in assigns[:SIGMA_PRODUCT]]
    return [
        Op("cohomology_iwasawa", "cohomology", ["cohomology", "@iwasawa"]),
        Op("deform:iwasawa_sigma_family", "deform",
           ["deform", "@iwasawa_sigma_family", "--samples", samples_arg(assigns),
            "--tasks", SIGMA_TASKS],
           samples=len(assigns), family="iwasawa_sigma_family", assigns=assigns),
        Op("deform:iwasawa_x_torus", "deform",
           ["deform", "@iwasawa_x_torus", "--samples", samples_arg(products),
            "--tasks", PRODUCT_TASKS],
           samples=len(products), family="iwasawa_x_torus", assigns=products),
    ]


WORKLOADS = {"tables": tables, "sweep": sweep, "sigma": sigma}


def build(workload, seed):
    """The command list of one round of `workload` for `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
