"""Stability hypotheses for a distinguished closed (2,0)-form along a family.

Given a deformation family carrying a closed non-degenerate (2,0)-form of the
undeformed structure, each sample assignment is checked against the criteria
that guarantee the deformed structures stay complex symplectic nearby:

  (a) the Bott-Chern number h^{2,0} at the sample (with a cross-sample
      constancy verdict),
  (b) whether del∘delbar vanishes identically on (1,0)-forms,
  (c) whether the structure is full at stage 2,
  (d) feasibility of the correction system: closed alpha^{p,q} (p+q=2) and a
      1-form gamma with d(gamma) = omega − alpha^{2,0} − alpha^{1,1} −
      alpha^{0,2} and del(delbar(pi^{1,0} gamma)) = 0, solved as one joint
      exact linear system, with an explicit witness when feasible,
  (e) a necessary-style surrogate for the degree-2 decomposition hypothesis:
      dim H²_dR = Σ_{p+q=2} h^{p,q}_delbar together with pure-and-full at
      stage 2.  This does not verify how the summands map into H²_dR, and the
      report labels it accordingly.

check_stability_hypotheses is the one sweep that pairs the criteria with
deform.sweep: the `hypotheses` command and the hypotheses task of `deform`
both call it, the first with a task that computes nothing, the second with
its other tasks, which run on the operator cache the criteria use.
_criteria computes the verdicts of one sample; deform.sweep turns a failing
sample into an "error" row, kept as it is in both lists.  Everything is
invariant (Lie-algebra level); the report carries the same scope banner as
the cohomology reports.
"""

from __future__ import annotations

from .gauss import ONE
from .algebra import SymplecticError
from .linalg import (InternalError, OperatorCache, block, cells, column_slice, mat_mul, solve,
                     transpose)
from .deform import deformed_frame, sweep
from .cohomology import bott_chern, dolbeault, invariant_level_banner, pure_full
from .symplectic import closed_20_space, is_nondegenerate


def check_stability_hypotheses(family, samples, task):
    """Evaluate criteria (a)-(e) at each sample assignment of the family,
    and run task(ops) on the operator cache of the same deformed structure.

    `samples` is an iterable of parameter assignments (name -> GaussRat).
    The samples run through one deform.sweep, so a sample it fails on
    (singular frame, invalid deformed structure) gets the same "error" row
    in both lists.  Returns {"hypotheses": the report, with the per-sample
    rows and the cross-sample verdicts, "samples": the sweep rows of task}.
    Raises SymplecticError when the family carries no distinguished form
    (DeformationFamily already refuses one that is not a parameter-free
    (2,0)-form, and a parametric base).
    """
    omega = family.omega
    if omega is None:
        raise SymplecticError(f"family '{family.name}' carries no distinguished (2,0)-form")
    base = OperatorCache(family.base)
    omega_closed = closed_20_space(base).contains(base.to_vec((2, 0), omega))

    def both(assign):
        spec, to_eta = deformed_frame(family, assign)
        ops = OperatorCache(spec)
        return _criteria(ops, to_eta(omega)), task(ops)

    hyp, other = [], []
    for r in sweep(samples, both):
        if "result" in r:
            verdicts, result = r["result"]
            hyp.append({"assign": r["assign"], **verdicts})
            other.append({"assign": r["assign"], "result": result})
        else:
            hyp.append(r)
            other.append(r)
    h20_values = {r["h20_bott_chern"] for r in hyp if "error" not in r}
    report = {
        "family": family.name,
        "omega": str(omega),
        "omega_closed_at_zero": omega_closed,
        "omega_nondegenerate_at_zero": is_nondegenerate(omega, base.n),
        "h20_bott_chern_constant": len(h20_values) <= 1 if h20_values else None,
        "samples": hyp,
        "scope": invariant_level_banner(family.base),
    }
    return {"hypotheses": report, "samples": other}


def _criteria(ops, omega_t):
    """The verdicts of criteria (a)-(e) on the operator cache of a deformed
    structure, omega_t being the distinguished form in its coframe."""
    pf = pure_full(ops, 2)
    dolb_sum = sum(dolbeault(ops, *cell).dim for cell in cells(ops.n, 2))
    identity = pf.betti == dolb_sum
    return {
        "h20_bott_chern": bott_chern(ops, 2, 0).dim,
        "del_delbar_zero_on_one_zero_forms": not any(ops.deldelbar_pq(1, 0)),
        "full_at_stage_2": pf.full,
        "correction_system": _delta_feasibility(ops, omega_t),
        "degree2_decomposition_surrogate": {
            "dimension_identity": identity,
            "pure_and_full_at_stage_2": pf.pure and pf.full,
            "passed": identity and pf.pure and pf.full,
            "label": "necessary-style check",
        },
    }


def _delta_feasibility(ops, omega_t):
    """Joint affine system for gamma and closed alpha^{2,0}, alpha^{1,1}, alpha^{0,2}.

    Unknowns are the coefficients of gamma over the Lambda^1 basis followed by
    the three alpha blocks over their bidegree bases.  Constraint blocks:
      d(gamma) + alpha^{2,0} + alpha^{1,1} + alpha^{0,2} = omega_t,
      d(alpha^{p,q}) = 0 for each block,
      del(delbar(pi^{1,0} gamma)) = 0.
    Returns a dict with the verdict and witness strings.
    """
    g, ncols = ops.dims(1), ops.dims(1) + ops.dims(2)
    keys = [1, (2, 0), (1, 1), (0, 2)]
    # the columns of gamma, then those of the alpha blocks: in this order,
    # the columns of Lambda^2
    cols = [slice(0, g)] + [slice(g + b.start, g + b.stop)
                            for b in (block(ops.n, *key) for key in keys[1:])]
    # d(gamma) + sum(alpha) = omega_t, one row per Lambda^2 monomial
    a_rows = [{**row, g + r: ONE} for r, row in enumerate(ops.d_total(1))]
    # each alpha^{p,q} is d-closed: its del and its delbar vanish
    for key, c in zip(keys[1:], cols[1:]):
        a_rows += [{c.start + j: x for j, x in row.items()} for row in ops.rows("d", key)]
    # del(delbar(pi^{1,0} gamma)) = 0; the (1,0) coordinates of gamma come
    # first (total bases list descending p first)
    a_rows += ops.deldelbar_pq(1, 0)
    b = ops.to_vec(2, omega_t)
    x = solve(a_rows, b, ncols)
    if x is None:
        return {"feasible": False}
    # certificate: the witness solves the assembled system exactly
    if mat_mul([x], transpose(a_rows, ncols))[0] != b:
        raise InternalError("correction witness does not solve its system")

    forms = [str(ops.to_element(key, column_slice([x], c)[0])) for key, c in zip(keys, cols)]
    return {"feasible": True, "gamma": forms[0],
            "alpha_20": forms[1], "alpha_11": forms[2], "alpha_02": forms[3]}
