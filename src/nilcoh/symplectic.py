"""Existence of closed non-degenerate (2,0)-forms, and the wedge-power suites.

The closed (2,0)-space is the kernel of d on Lambda^{2,0}.  Over a basis
B_1..B_s of that space, the degree-m polynomial P(a) is the coefficient of
the full holomorphic monomial in (a_1 B_1 + ... + a_s B_s)^m, where the
complex dimension is n = 2m.  A non-degenerate closed form exists iff P is
not identically zero.  P has degree at most m in each variable, so P = 0
certifies the whole grid {0..m}^s, and a nonzero P has a nonzero point on it
(Alon, CPC 8, 1999, Thm 1.2).  The witness is found by descent: a_1, a_2, ...
in turn take the least value in {0..m} that leaves the specialised P
nonzero, which is the first grid point in lexicographic order with P != 0.
One numeric wedge power checks the verdict at one point: the witness must be
non-degenerate, and when P = 0 the all-ones combination must be degenerate.
"""

from __future__ import annotations

from .gauss import GaussRat
from .scalar import ScalarExpr
from .algebra import SymplecticError
from .exterior import BigradedElement
from . import cohomology
from .cohomology import invariant_level_banner
from .linalg import InternalError


def closed_20_space(ops):
    """Kernel of d restricted to Lambda^{2,0}, as a canonical Subspace."""
    return ops.kernel("d", (2, 0))


def closed_20_elements(ops):
    return [ops.to_element((2, 0), v) for v in closed_20_space(ops).rows]


def _top_coeff(element, n):
    return element.coeff(tuple((0, i) for i in range(1, n + 1)))


def _combination(elems, coeffs):
    """c_1 B_1 + ... + c_s B_s."""
    return sum(map(BigradedElement.scale, elems, coeffs), BigradedElement.zero())


def is_nondegenerate(form, n):
    """Does the (n/2)-th wedge power of a (2,0)-form reach the full
    holomorphic monomial?  Always false in odd complex dimension n."""
    if n % 2:
        return False
    return not _top_coeff(form.wedge_power(n // 2), n).is_zero()


class SymplecticReport:
    """Existence verdict with witness / grid certificate and scope notes.

    The flag of ops.spec only affects the wording of the emitted statement,
    never the verdict.
    """

    def __init__(self, ops):
        n = self.n = ops.n
        s = self.closed_dim = closed_20_space(ops).dim
        self.poly = self.witness_coeffs = self.witness = self.grid_points_checked = None
        if n % 2:
            self.verdict = "odd_dimension"
        else:
            m = n // 2
            elems = closed_20_elements(ops)
            params = [ScalarExpr.param(f"a{j}") for j in range(1, s + 1)]
            self.poly = _top_coeff(_combination(elems, params).wedge_power(m), n)
            if self.poly.is_zero():
                self.verdict = "none"
                self.grid_points_checked = (m + 1) ** s
                if is_nondegenerate(_combination(elems, [1] * s), n):
                    raise InternalError("P = 0, yet the all-ones form is non-degenerate")
            else:
                self.verdict = "exists"
                # rest = P(point, a_j, ...) stays nonzero and has degree <= m
                # in a_j, so if 0..m-1 all make it vanish, m does not
                rest, self.witness_coeffs = self.poly, []
                for j in range(1, s + 1):
                    v = next((v for v in range(m) if not rest.at(f"a{j}", v).is_zero()), m)
                    rest = rest.at(f"a{j}", v)
                    self.witness_coeffs.append(GaussRat(v))
                self.witness = _combination(elems, self.witness_coeffs)
                if not is_nondegenerate(self.witness, n):
                    raise InternalError("the witness found by descent is degenerate")
        self.banner = invariant_level_banner(ops.spec)
        self.statement = _STATEMENTS[self.verdict, bool(ops.spec.flag_invariant_ok)]

    def as_dict(self):
        d = {
            "complex_dimension": self.n,
            "closed_20_dim": self.closed_dim,
            "nondegeneracy_polynomial": str(self.poly) if self.poly is not None else None,
            "verdict": self.verdict,
            "scope": self.banner,
            "statement": self.statement,
        }
        if self.verdict == "exists":
            d["witness_coefficients"] = [str(c) for c in self.witness_coeffs]
            d["witness"] = str(self.witness)
        if self.verdict == "none":
            d["grid_certificate"] = {
                "grid": f"{{0..{self.n // 2}}}^{self.closed_dim}",
                "points_checked": self.grid_points_checked,
            }
        return d


# (verdict, flag declared true) -> statement; the flag changes the wording only
_ODD_STATEMENT = "odd complex dimension admits no non-degenerate (2,0)-form"
_STATEMENTS = {
    ("odd_dimension", False): _ODD_STATEMENT,
    ("odd_dimension", True): _ODD_STATEMENT,
    ("none", False): (
        "no invariant complex symplectic structure; manifold-level "
        "non-existence is not claimed without the flag"
    ),
    ("none", True): (
        "no complex symplectic structure on the compact quotient "
        "(non-existence transfers under the declared flag)"
    ),
    ("exists", False): "invariant complex symplectic structure exists",
    ("exists", True): "complex symplectic structure exists on the compact quotient",
}


def find_symplectic(ops):
    """Decide existence of a closed non-degenerate invariant (2,0)-form."""
    return SymplecticReport(ops)


def _check_witness(ops, witness):
    n = ops.n
    if n % 2:
        raise SymplecticError("odd complex dimension")
    if witness.is_zero() or set(witness.bidegrees()) != {(2, 0)}:
        raise SymplecticError("witness must be a nonzero (2,0)-form")
    if not closed_20_space(ops).contains(ops.to_vec((2, 0), witness)):
        raise SymplecticError("witness is not d-closed")
    if not is_nondegenerate(witness, n):
        raise SymplecticError("witness is degenerate")


def theorem61_suite(ops, witness):
    """Nontriviality of every wedge-power class omega^k ∧ conj(omega)^m.

    For a closed non-degenerate (2,0) witness and 0 <= k,m <= n/2, each
    power is d-closed of pure bidegree (2k,2m); the suite reports whether
    its class is nonzero in all five theories: whether the form lies in the
    numerator of the group and outside its denominator.  A trivial cell
    would contradict the volume-pairing argument at the invariant level, so
    any failure is surfaced prominently rather than averaged away.
    """
    _check_witness(ops, witness)
    half = ops.n // 2
    wbar = witness.conj()
    cells = {}
    all_ok = True
    for k in range(half + 1):
        for m in range(half + 1):
            form = witness.wedge_power(k).wedge(wbar.wedge_power(m))
            row = {}
            for theory in cohomology.THEORIES:
                degree = 2 * k + 2 * m if theory == "de_rham" else (2 * k, 2 * m)
                g = cohomology.group(ops, theory, degree)
                vec = ops.to_vec(degree, form)
                nontrivial = g.numerator.contains(vec) and not g.denominator.contains(vec)
                row[theory] = "nontrivial" if nontrivial else "TRIVIAL"
                all_ok = all_ok and nontrivial
            cells[(k, m)] = row
    return {
        "witness": str(witness),
        "cells": {f"({k},{m})": row for (k, m), row in sorted(cells.items())},
        "all_nontrivial": all_ok,
    }


def betti_bounds(ops):
    """Lower bounds on even invariant Betti numbers on real dimension 4h.

    For h = n/2: b_{2k} >= min(k, 2h-k)+1 for k = 1..2h-1.  A failed bound
    is an obstruction: no complex symplectic structure can exist
    (invariant-level when the flag is unset).
    """
    n = ops.n
    if n % 2:
        raise SymplecticError("real dimension is not divisible by 4")
    rows = []
    for k in range(1, n):
        betti, bound = cohomology.betti(ops, 2 * k), min(k, n - k) + 1
        rows.append(
            {"degree": 2 * k, "betti": betti, "bound": bound, "holds": betti >= bound}
        )
    all_pass = all(row["holds"] for row in rows)
    return {
        "real_dimension": 2 * n,
        "bounds": rows,
        "all_hold": all_pass,
        "obstruction_fires": not all_pass,
    }
