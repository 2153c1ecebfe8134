"""Invariant complex structures given by structure equations.

An AlgebraSpec holds d(phi^1..phi^n) as (possibly parameter-dependent)
bigraded 2-forms.  d extends to the whole exterior algebra as the unique
derivation with d(phi^ibar) = conj(d(phi^i)).  Integrability of the complex
structure is exactly the statement that each d(phi^i) has no (0,2) part.
On a parameter-free structure d is the Leibniz matrix d_rows, which the d^2
check and every computation read; AlgebraSpec.d is the symbolic reference
that tests compare it with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .gauss import GaussRat
from .linalg import basis, leibniz_rows, mat_mul, transpose
from .scalar import ScalarEvalError
from .exterior import BigradedElement

# default exact sample points used for pointwise validation of parametric data
DEFAULT_SAMPLES = (
    GaussRat(0),
    GaussRat(Fraction(1, 2)),
    GaussRat(0, Fraction(1, 2)),
    GaussRat(Fraction(1, 3), Fraction(1, 3)),
)


def assignment_label(assign):
    """"s=1/2, t=0": an assignment in name order, as messages print it."""
    return ", ".join(f"{k}={v}" for k, v in sorted(assign.items()))


def assignment_strings(assign):
    """{name: str(value)} in name order, as reports print an assignment."""
    return {k: str(v) for k, v in sorted(assign.items())}


# DeformationError and SymplecticError live here, in a module every command
# loads, so that cli.main maps them to exit codes without importing deform or
# symplectic; both modules re-export them.


class StructureError(ValueError):
    """A structurally invalid set of structure equations."""


class DeformationError(ValueError):
    """Inadmissible parameter value (singular frame, vanishing denominator)."""


class SymplecticError(ValueError):
    """Structure outside the op's domain (odd dimension, bad witness, a
    family without a distinguished (2,0)-form)."""


class AlgebraSpec:
    """Structure equations d(phi^i) = (2-form), i = 1..n, over Q(i)[params]."""

    __slots__ = ("name", "n", "params", "d_phi", "flag_invariant_ok", "_validation", "_leibniz")

    def __init__(self, name, n, params, d_phi, flag_invariant_ok=None):
        if len(d_phi) != n:
            raise StructureError(f"expected {n} structure equations, got {len(d_phi)}")
        for i, el in enumerate(d_phi, start=1):
            for (p, q) in el.bidegrees():
                if p + q != 2:
                    raise StructureError(f"d f{i} contains a term of degree {p + q}, want 2")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "d_phi", tuple(d_phi))
        object.__setattr__(self, "flag_invariant_ok", flag_invariant_ok)
        object.__setattr__(self, "_validation", None)
        object.__setattr__(self, "_leibniz", None)

    def __setattr__(self, *_):
        raise AttributeError("AlgebraSpec is immutable")

    # -- differential -------------------------------------------------------

    def d_gen(self, index, barred):
        """d of a single generator."""
        base = self.d_phi[index - 1]
        return base.conj() if barred else base

    def d(self, element):
        """d extended as an odd derivation to any BigradedElement."""
        out = BigradedElement.zero()
        for m, coeff in element.coeffs.items():
            for pos, (barred, idx) in enumerate(m):
                dg = self.d_gen(idx, barred)
                if dg.is_zero():
                    continue
                term = dg.wedge(BigradedElement({m[:pos] + m[pos + 1:]: coeff}))
                out = out + (-term if pos % 2 else term)
        return out

    def d_rows(self, k):
        """Rows of d: Lambda^k -> Lambda^{k+1} of a parameter-free structure,
        assembled once by linalg.leibniz_rows and kept: the spec is immutable."""
        if self._leibniz is None:  # (structure equations by token, {k: rows})
            d_gen = {(b, i): [(m, c.const_value()) for m, c in self.d_gen(i, b).coeffs.items()]
                     for i in range(1, self.n + 1) for b in (0, 1)}
            object.__setattr__(self, "_leibniz", (d_gen, {}))
        d_gen, rows = self._leibniz
        if k not in rows:
            rows[k] = leibniz_rows(d_gen, self.n, k)
        return rows[k]

    def evaluate(self, assign):
        """Concrete AlgebraSpec with all parameters replaced by Q(i) values."""
        d_phi = tuple(el.evaluate(assign) for el in self.d_phi)
        return AlgebraSpec(
            self.name,
            self.n,
            (),
            d_phi,
            flag_invariant_ok=self.flag_invariant_ok,
        )

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check integrability (no (0,2) parts) and d^2 = 0.

        Integrability is checked symbolically, d^2 = 0 on d_rows.  Parametric data is
        checked at every point of the cartesian grid DEFAULT_SAMPLES^params;
        sample points where a denominator vanishes are recorded and skipped.
        The report is the dict the validate command prints, computed once and
        kept (the spec is immutable), so callers must not mutate it.
        """
        if self._validation is None:
            object.__setattr__(self, "_validation", self._validate())
        return self._validation

    def _validate(self):
        integrability = [{"generator": f"f{i}", "degree_0_2_part": str(bad)}
                         for i, el in enumerate(self.d_phi, start=1)
                         if not (bad := el.project(0, 2)).is_zero()]
        report = {"name": self.name, "integrability_failures": integrability,
                  "d2_failures": [], "samples_checked": [], "skipped_samples": []}
        if not self.params:
            self._check_d2(report, label="")
        else:
            for values in product(DEFAULT_SAMPLES, repeat=len(self.params)):
                assign = dict(zip(self.params, values))
                label = assignment_label(assign)
                try:
                    self.evaluate(assign)._check_d2(report, label=label)
                except ScalarEvalError as e:
                    report["skipped_samples"].append({"sample": label, "reason": str(e)})
                report["samples_checked"].append(label)
        report["ok"] = not integrability and not report["d2_failures"]
        return report

    def check(self):
        """Raise StructureError naming the first failing generator, if any."""
        report = self.validate()
        if report["integrability_failures"]:
            bad = report["integrability_failures"][0]
            raise StructureError(f"structure '{self.name}' is not integrable: d {bad['generator']} "
                                 f"has the (0,2) part {bad['degree_0_2_part']}")
        if report["d2_failures"]:
            bad = report["d2_failures"][0]
            raise StructureError(f"structure '{self.name}' has d^2 != 0: "
                                 f"d(d {bad['generator']}) = {bad['d2']}")

    def _check_d2(self, report, label):
        """d^2 on the generators: the columns of the product of the assembled
        d on Lambda^2 and on Lambda^1, in the order f1, F1, f2, F2, ...,
        appended to report's d2_failures."""
        _, index = basis(self.n, 1)
        columns = transpose(mat_mul(self.d_rows(2), self.d_rows(1)), len(index))
        basis3, _ = basis(self.n, 3)
        for i in range(1, self.n + 1):
            for g, m in ((f"f{i}", ((0, i),)), (f"F{i}", ((1, i),))):
                dd = columns[index[m]]
                if dd:
                    dd = BigradedElement({basis3[r]: x for r, x in dd.items()})
                    report["d2_failures"].append({"generator": g, "where": label, "d2": str(dd)})
