"""The five cohomology theories on the invariant bigraded complex.

Everything is a quotient of exact kernels and images:

    de Rham        ker d / im d               on Lambda^k
    Dolbeault      ker delbar / im delbar     on Lambda^{p,q}
    del            ker del / im del           on Lambda^{p,q}
    Bott-Chern     (ker del & ker delbar) / im del.delbar
    Aeppli         ker del.delbar / (im del + im delbar)

plus the H^{p,q}_J subgroups of de Rham cohomology (classes with a pure-type
representative) and the stage-k pure / full verdicts built from them.
A group's dimension is rank arithmetic on memoised images, dim of the source
less the rank of the numerator's operator and dim of the denominator: the
d.d = 0 certificate of OperatorCache puts the denominator in the numerator.
All reports are at the invariant (Lie-algebra) level; whether that computes
the cohomology of a compact quotient is governed by the spec's flag and is
surfaced as a banner, never silently assumed.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .linalg import Subspace, block, cells, quotient_representatives

# theory -> (operator whose kernel is the numerator, the (operator,
#            source-degree shift) pairs whose images span the denominator).
#            Operators are named as in OperatorCache.rows.
THEORY_TABLE = {
    "de_rham": ("d", (("d", -1),)),
    "dolbeault": ("delbar", (("delbar", (0, -1)),)),
    "del": ("del", (("del", (-1, 0)),)),
    "bott_chern": ("d", (("dd", (-1, -1)),)),
    "aeppli": ("dd", (("del", (-1, 0)), ("delbar", (0, -1)))),
}
THEORIES = tuple(THEORY_TABLE)


def _shift(key, by):
    if isinstance(key, int):
        return key + by
    return (key[0] + by[0], key[1] + by[1])


class CohomologyGroup:
    """One cohomology space; nothing is computed when it is built.  dim is
    the rank rule above; the subspaces and the representatives are built
    when first read, and a printed group counts its representatives."""

    def __init__(self, theory, degree, ops):
        self.theory = theory
        self.degree = degree
        self.ops = ops

    @property
    def numerator(self):
        return self.ops.kernel(THEORY_TABLE[self.theory][0], self.degree)

    @cached_property
    def denominator(self):
        return reduce(Subspace.add, [self.ops.image(op, _shift(self.degree, by))
                                     for op, by in THEORY_TABLE[self.theory][1]])

    @property
    def dim(self):
        op, key = THEORY_TABLE[self.theory][0], self.degree
        return self.ops.dims(key) - self.ops.image(op, key).dim - self.denominator.dim

    @cached_property
    def reps(self):
        return [self.ops.to_element(self.degree, v)
                for v in quotient_representatives(self.numerator.rows, self.denominator)]

    def as_dict(self):
        deg = self.degree if isinstance(self.degree, int) else list(self.degree)
        return {
            "theory": self.theory,
            "degree": deg,
            "dim": len(self.reps),
            "representatives": [str(r) for r in self.reps],
        }


def de_rham(ops, k):
    return CohomologyGroup("de_rham", k, ops)


def dolbeault(ops, p, q):
    return CohomologyGroup("dolbeault", (p, q), ops)


def del_cohomology(ops, p, q):
    return CohomologyGroup("del", (p, q), ops)


def bott_chern(ops, p, q):
    return CohomologyGroup("bott_chern", (p, q), ops)


def aeppli(ops, p, q):
    return CohomologyGroup("aeppli", (p, q), ops)


def group(ops, theory, degree):
    """The group of theory in degree: a total degree k for de Rham, a
    bidegree (p, q) for the other four theories."""
    if theory not in THEORY_TABLE:
        raise ValueError(f"unknown theory {theory!r}")
    if theory == "de_rham":
        if not isinstance(degree, int):
            raise ValueError("de Rham cohomology takes a total degree k")
        degree = (degree,)
    elif not isinstance(degree, (tuple, list)) or len(degree) != 2:
        raise ValueError(f"{theory} cohomology takes a bidegree (p, q), not {degree!r}")
    # built at each call, so a function rebound on the module (bench/trace.py
    # wraps all five) is the one called
    return {"de_rham": de_rham, "dolbeault": dolbeault, "del": del_cohomology,
            "bott_chern": bott_chern, "aeppli": aeppli}[theory](ops, *degree)


def betti(ops, k):
    return de_rham(ops, k).dim


def degrees(theory, n):
    """The degrees a table of theory spans on n generators: k = 0..2n for de
    Rham, the bidegrees (p, q) of the square 0..n x 0..n otherwise."""
    if theory == "de_rham":
        return list(range(2 * n + 1))
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def hodge_table(ops, theory):
    """{degree: dim} over degrees(theory, n)."""
    return {d: group(ops, theory, d).dim for d in degrees(theory, ops.n)}


# ---------------------------------------------------------------------------
# H^{p,q}_J subgroups of de Rham cohomology, and pure / full verdicts


class PureFullReport:
    """Stage-k report on the H^{p,q}_J subgroups of H^k_dR.  The verdicts
    are computed when it is built; the pure-type representatives and the
    pairwise intersections the first time they are read."""

    def __init__(self, ops, k):
        self.ops = ops
        self.stage = k
        self._pure = _pure_type_classes(ops, k)
        images = [classes for _, classes in self._pure.values()]
        self.betti = betti(ops, k)
        self.group_dims = {c: classes.dim for c, (_, classes) in self._pure.items()}
        self.sum_dim = reduce(Subspace.add, images, Subspace(ops.dims(k))).dim
        self.total_intersection_dim = reduce(Subspace.intersect, images).dim if images else 0
        self.single_group = len(images) == 1
        # a single-subgroup stage is pure by convention (the intersection over a
        # one-element family is the subgroup itself, which carries no clash)
        self.pure = self.single_group or self.total_intersection_dim == 0
        # every subgroup lies in H^k_dR, so their sum is all of it iff the
        # dimensions agree
        self.full = self.sum_dim == self.betti

    @cached_property
    def group_reps(self):
        """{(p,q): pure-type representatives whose classes span H^{p,q}_J}."""
        img = self.ops.image("d", self.stage - 1)
        return {
            c: [self.ops.to_element(self.stage, v)
                for v in quotient_representatives(closed, img)]
            for c, (closed, _) in self._pure.items()
        }

    @cached_property
    def pairwise(self):
        """{((p,q), (r,s)): dim of H^{p,q}_J meet H^{r,s}_J} over pairs of cells."""
        cells = list(self._pure)
        return {
            (a, b): self._pure[a][1].intersect(self._pure[b][1]).dim
            for i, a in enumerate(cells)
            for b in cells[i + 1 :]
        }

    def as_dict(self):
        return {
            "stage": self.stage,
            "betti": self.betti,
            "pure_type_subgroup_dims": {
                f"({p},{q})": d for (p, q), d in sorted(self.group_dims.items())
            },
            "pure_type_subgroup_reps": {
                f"({p},{q})": [str(r) for r in reps]
                for (p, q), reps in sorted(self.group_reps.items())
            },
            "sum_dim": self.sum_dim,
            "pairwise_intersection_dims": {
                f"({p},{q})&({r},{s})": d
                for ((p, q), (r, s)), d in sorted(self.pairwise.items())
            },
            "total_intersection_dim": self.total_intersection_dim,
            "single_group_stage": self.single_group,
            "pure": self.pure,
            "full": self.full,
            "pure_and_full": self.pure and self.full,
        }


def _pure_type_classes(ops, k):
    """{(p,q): (closed, classes)} over p+q = k in descending p.

    closed lists the d-closed (p,q)-forms (the raw kernel basis, in order)
    as Lambda^k-coordinate vectors; classes is the span of their residues
    modulo im d, i.e. the subgroup H^{p,q}_J of H^k_dR.
    """
    img = ops.image("d", k - 1)
    out = {}
    for cell in cells(ops.n, k):
        start = block(ops.n, *cell).start
        closed = [{start + j: x for j, x in v.items()}
                  for v in ops.kernel_vectors("d", cell)]
        classes = Subspace.span(ops.dims(k), [img.reduce(w) for w in closed])
        out[cell] = (closed, classes)
    return out


def pure_full(ops, k):
    """Stage-k report on the H^{p,q}_J subgroups of H^k_dR."""
    return PureFullReport(ops, k)


def invariant_level_banner(spec):
    """One-line scope statement attached to every report.

    All computations happen on the finite-dimensional invariant complex.
    Whether they equal the cohomology of a compact quotient is user-supplied
    metadata (the `invariant_cohomology_is_manifold_cohomology` flag), never
    inferred.
    """
    flag = spec.flag_invariant_ok
    if flag:
        return (
            "invariant computation; the input declares it equal to the "
            "cohomology of the compact quotient"
        )
    if flag is None:
        return (
            "invariant (Lie-algebra level) computation; the input does not "
            "say whether it equals the cohomology of a compact quotient"
        )
    return (
        "invariant (Lie-algebra level) computation; the input declares the "
        "identification with a compact quotient NOT established"
    )
