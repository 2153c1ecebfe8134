"""Deformations of a complex structure along a Beltrami matrix.

A family is given by its Beltrami matrix B(t): the deformed coframe is
eta^i = phi^i + sum_j B_ij(t) phi^jbar (Kodaira-Spencer, Kuranishi).  At an
admissible parameter value the combined 2n x 2n matrix [[1, B], [conj B, 1]]
is invertible; the structure equations in the eta-frame follow by
substituting the inverse relation into
d(eta^i) = d(phi^i) + sum_j B_ij conj(d(phi^j)).
"""

from __future__ import annotations

from .gauss import ONE, InternalError
from .scalar import ScalarEvalError
from .exterior import BigradedElement, substitute
from .algebra import (AlgebraSpec, DeformationError, StructureError, assignment_label,
                      assignment_strings)
from . import linalg


class DeformationFamily:
    """Parameter-free base structure plus a parameter-dependent Beltrami
    matrix B of ScalarExpr entries.

    `omega` optionally records a distinguished closed non-degenerate
    (2,0)-form of the undeformed structure, written in the base coframe;
    the stability checks transport it along the family.
    """

    __slots__ = ("name", "base", "params", "B", "omega")

    def __init__(self, name, base, params, B, omega=None):
        n = base.n
        if len(B) != n or any(len(r) != n for r in B):
            raise InternalError(f"the Beltrami matrix of '{name}' must be {n} x {n}")
        if base.params:
            raise InternalError(f"the base structure of '{name}' must be parameter-free")
        if omega is not None and (omega.params() or set(omega.bidegrees()) - {(2, 0)}):
            raise InternalError("the distinguished form must be a parameter-free (2,0)-form")
        self.name = name
        self.base = base
        self.params = tuple(params)
        self.B = tuple(tuple(row) for row in B)
        self.omega = omega

    def matrix_at(self, assign):
        """Evaluate B to a GaussRat matrix at a parameter assignment."""
        try:
            return [[x.evaluate(assign) for x in row] for row in self.B]
        except ScalarEvalError as e:
            raise DeformationError(f"inadmissible parameter value: {e}") from None


def combined_matrix(B):
    """Rows of [[1, B], [conj B, 1]], mapping (phi, phibar) coords to
    (eta, etabar)."""
    n = len(B)
    top = [{i: ONE, **{n + j: x for j, x in enumerate(row) if x}}
           for i, row in enumerate(B)]
    bot = [{**{j: x.conj() for j, x in enumerate(row) if x}, n + i: ONE}
           for i, row in enumerate(B)]
    return top + bot


def deformed_frame(family, assign):
    """The deformed structure and a map rewriting base-coframe forms in it.

    Returns (spec, to_eta): the parameter-free AlgebraSpec in the
    eta-generators, and a function taking a form written in the base coframe
    to the same form written in the deformed coframe.  The frame matrix is
    inverted once for both.  Raises DeformationError when it is singular at
    the assignment.
    """
    n = family.base.n
    B = family.matrix_at(assign)
    inv = linalg.mat_inverse(combined_matrix(B))
    if inv is None:
        raise DeformationError(
            f"frame matrix is singular at {assignment_label(assign)}"
        )

    # phi = inv . eta: row r of inv is phi^(r+1) for r < n and phi^(r-n+1)bar
    # after, and column c the same for the eta-generators
    sub = {(r // n, r % n + 1): BigradedElement({((c // n, c % n + 1),): x for c, x in row.items()})
           for r, row in enumerate(inv)}

    def to_eta(element):
        return substitute(element, sub)

    d_phi = family.base.d_phi
    d_eta = []
    for i in range(n):
        dphi = d_phi[i]
        for j in range(n):
            if B[i][j]:
                dphi = dphi + d_phi[j].conj().scale(B[i][j])
        d_eta.append(to_eta(dphi))

    name = f"{family.name} at {assignment_label(assign)}"
    spec = AlgebraSpec(
        name, n, (), d_eta,
        flag_invariant_ok=family.base.flag_invariant_ok,
    )
    return spec, to_eta


def frame_change(family, assign):
    """Structure equations of the base rewritten in the deformed coframe.

    Returns a parameter-free AlgebraSpec in the eta-generators.  Raises
    DeformationError when the frame matrix is singular at the assignment.
    """
    return deformed_frame(family, assign)[0]


def concretize(target, assign):
    """Parameter-free AlgebraSpec of a target at an assignment.

    A DeformationFamily is moved by frame_change; a parametric AlgebraSpec
    has its parameters substituted; a parameter-free AlgebraSpec is returned
    as-is, whatever the assignment.
    """
    if isinstance(target, DeformationFamily):
        return frame_change(target, assign)
    if target.params:
        return target.evaluate(assign)
    return target


def sweep(assignments, task):
    """Run task(assign) per assignment, in input order: the one per-sample
    loop, so the only place that decides a row's shape and which failures
    end a sample.  A failing sample (singular frame, vanishing denominator,
    invalid structure) contributes {"error": ...} instead of {"result": ...}
    and the sweep goes on.
    """
    rows = []
    for assign in assignments:
        row = {"assign": assignment_strings(assign)}
        try:
            row["result"] = task(assign)
        except (DeformationError, ScalarEvalError, StructureError) as e:
            row["error"] = str(e)
        rows.append(row)
    return rows
