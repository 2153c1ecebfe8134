"""Invariant complex structures given by structure equations.

An AlgebraSpec holds d(phi^1..phi^n) as (possibly parameter-dependent)
bigraded 2-forms.  d extends to the whole exterior algebra as the unique
derivation with d(phi^ibar) = conj(d(phi^i)).  Integrability of the complex
structure is exactly the statement that each d(phi^i) has no (0,2) part.
On a parameter-free structure d is the Leibniz matrix d_rows, which the d^2
check and every computation read; AlgebraSpec.d is the symbolic reference
that tests compare it with.

Realification uses phi^j = e^{2j-1} + i e^{2j}; on vectors the calibrated
convention is J e_{2j-1} = -e_{2j}, J e_{2j} = e_{2j-1}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .gauss import GaussRat, InternalError
from .linalg import Subspace, basis, leibniz_rows, mat_mul
from .scalar import S_I, ScalarExpr, ScalarEvalError
from .exterior import BigradedElement, mono_key, substitute

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
    witness grid above symplectic.GRID_LIMIT)."""


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
        for (holo, anti), coeff in element.coeffs.items():
            mono = list((0, i) for i in holo) + list((1, i) for i in anti)
            for pos, (barred, idx) in enumerate(mono):
                sign = -1 if pos % 2 else 1
                dg = self.d_gen(idx, barred)
                if dg.is_zero():
                    continue
                rest_holo = tuple(i for b, i in mono if (b, i) != (barred, idx) and b == 0)
                rest_anti = tuple(i for b, i in mono if (b, i) != (barred, idx) and b == 1)
                rest = BigradedElement.monomial(rest_holo, rest_anti, coeff)
                term = dg.wedge(rest)
                out = out + (term if sign == 1 else -term)
        return out

    def d_rows(self, k):
        """Rows of d: Lambda^k -> Lambda^{k+1} of a parameter-free structure,
        assembled once by linalg.leibniz_rows and kept: the spec is immutable."""
        if self._leibniz is None:  # (structure equations by token, {k: rows})
            d_gen = {(int(barred), i): [(mono_key(m), c.const_value())
                                        for m, c in self.d_gen(i, barred).coeffs.items()]
                     for i in range(1, self.n + 1) for barred in (False, True)}
            object.__setattr__(self, "_leibniz", (d_gen, {}))
        d_gen, rows = self._leibniz
        if k not in rows:
            rows[k] = leibniz_rows(d_gen, self.n, k)
        return rows[k]

    def evaluate(self, assign):
        """Concrete AlgebraSpec with all parameters replaced by Q(i) values."""
        missing = [p for p in self.params if p not in assign]
        if missing:
            raise ScalarEvalError(f"unassigned parameters: {', '.join(missing)}")
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
        The report is computed once and kept: the spec is immutable.
        """
        if self._validation is None:
            object.__setattr__(self, "_validation", self._validate())
        return self._validation

    def _validate(self):
        report = ValidationReport(self.name)
        for i, el in enumerate(self.d_phi, start=1):
            bad = el.project(0, 2)
            if not bad.is_zero():
                report.integrability_failures.append((i, str(bad)))
        if not self.params:
            self._check_d2(report, label="")
        else:
            for values in product(DEFAULT_SAMPLES, repeat=len(self.params)):
                assign = dict(zip(self.params, values))
                label = assignment_label(assign)
                try:
                    self.evaluate(assign)._check_d2(report, label=label)
                except ScalarEvalError as e:
                    report.skipped_samples.append((label, str(e)))
                report.samples_checked.append(label)
        return report

    def check(self):
        """Raise StructureError naming the first failing generator, if any."""
        report = self.validate()
        if report.integrability_failures:
            i, part = report.integrability_failures[0]
            raise StructureError(
                f"structure '{self.name}' is not integrable: d f{i} has the "
                f"(0,2) part {part}"
            )
        if report.d2_failures:
            g, _, dd = report.d2_failures[0]
            raise StructureError(f"structure '{self.name}' has d^2 != 0: d(d {g}) = {dd}")

    def _check_d2(self, report, label):
        """d^2 on the generators: the columns of the product of the assembled
        d on Lambda^2 and on Lambda^1, in the order f1, F1, f2, F2, ..."""
        columns = {}
        for r, row in enumerate(mat_mul(self.d_rows(2), self.d_rows(1))):
            for c, x in row.items():
                columns.setdefault(c, {})[r] = x
        _, index = basis(self.n, 1)
        basis3, _ = basis(self.n, 3)
        for i in range(1, self.n + 1):
            for g, m in ((f"f{i}", ((i,), ())), (f"F{i}", ((), (i,)))):
                dd = columns.get(index[m])
                if dd:
                    dd = BigradedElement({basis3[r]: x for r, x in dd.items()})
                    report.d2_failures.append((g, label, str(dd)))

    # -- realification ------------------------------------------------------

    def realify(self):
        """Underlying real structure equations and the complex structure J.

        Real coframe: e^{2j-1} = (phi^j + phi^jbar)/2,
                      e^{2j}   = -(i/2)(phi^j - phi^jbar).
        Returns a RealAlgebraSpec of dimension 2n.
        """
        if self.params:
            raise StructureError("realification needs a fully assigned structure")
        n = self.n
        real_eqs = []
        for dpj in self.d_phi:
            real_eqs.extend(real_parts(dpj, n))
        # J on vectors (calibrated): J e_{2j-1} = -e_{2j}, J e_{2j} = e_{2j-1}
        dim = 2 * n
        j_mat = [[Fraction(0)] * dim for _ in range(dim)]
        for j in range(n):
            j_mat[2 * j + 1][2 * j] = Fraction(-1)  # J e_{2j-1} = -e_{2j}
            j_mat[2 * j][2 * j + 1] = Fraction(1)  # J e_{2j}  =  e_{2j-1}
        return RealAlgebraSpec(self.name, dim, real_eqs, j_mat)


def _real_coframe(n):
    """phi^j -> e^{2j-1} + i e^{2j}, phi^jbar -> e^{2j-1} - i e^{2j}, with
    e^k the k-th unbarred generator of a 2n-generator algebra."""
    coframe = {}
    for j in range(1, n + 1):
        re, im = BigradedElement.gen(2 * j - 1), BigradedElement.gen(2 * j, coeff=S_I)
        coframe[(False, j)] = re + im
        coframe[(True, j)] = re - im
    return coframe


def _complex_form_to_real(form, n):
    """Expand a complex invariant form in the real coframe e^1..e^{2n}.

    Returns {(a, b, ...): Fraction} with a < b < ...; raises if any
    coefficient fails to be real (the input must be a real form).
    """
    out = {}
    for (idxs, _), c in substitute(form, _real_coframe(n)).items():
        val = c.const_value()
        if not val.is_real():
            raise InternalError(f"non-real structure constant {val} at e^{idxs}")
        out[idxs] = val.re
    return out


def real_parts(form, n):
    """The real forms (form + conj form)/2 and -(i/2)(form - conj form),
    each expanded in the real coframe e^1..e^{2n}."""
    conj = form.conj()
    half = ScalarExpr.const(GaussRat(Fraction(1, 2)))
    neg_half_i = ScalarExpr.const(GaussRat(0, Fraction(-1, 2)))
    return (
        _complex_form_to_real((form + conj).scale(half), n),
        _complex_form_to_real((form - conj).scale(neg_half_i), n),
    )


class ValidationReport:
    """Outcome of AlgebraSpec.validate()."""

    __slots__ = (
        "name",
        "integrability_failures",
        "d2_failures",
        "samples_checked",
        "skipped_samples",
    )

    def __init__(self, name):
        self.name = name
        self.integrability_failures = []
        self.d2_failures = []
        self.samples_checked = []
        self.skipped_samples = []

    @property
    def ok(self):
        return not self.integrability_failures and not self.d2_failures

    def as_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "integrability_failures": [
                {"generator": f"f{i}", "degree_0_2_part": s}
                for i, s in self.integrability_failures
            ],
            "d2_failures": [
                {"generator": g, "where": w, "d2": s} for g, w, s in self.d2_failures
            ],
            "samples_checked": self.samples_checked,
            "skipped_samples": [
                {"sample": s, "reason": r} for s, r in self.skipped_samples
            ],
        }


class RealAlgebraSpec:
    """Real structure equations de^k = sum a^k_{ij} e^i ^ e^j plus J."""

    __slots__ = ("name", "dim", "d_e", "j_mat")

    def __init__(self, name, dim, d_e, j_mat):
        self.name = name
        self.dim = dim
        self.d_e = d_e  # list of {(i, j): Fraction}, i < j, 1-based
        self.j_mat = j_mat  # J e_k = sum_m j_mat[m][k] e_m (0-based)

    def brackets(self):
        """Structure constants of the Lie bracket: [e_i, e_j] = sum c^k_ij e_k.

        From de^k = sum_{i<j} a^k_{ij} e^i ^ e^j and
        de^k(e_i, e_j) = -e^k([e_i, e_j]) we get c^k_ij = -a^k_{ij}.
        """
        c = {}
        for k, eq in enumerate(self.d_e, start=1):
            for (i, j), a in eq.items():
                c.setdefault((i, j), {})[k] = -a
        return c

    def rho(self):
        """rho_j = tr(J o ad e_j) for j = 1..dim, in one pass over the brackets.

        tr(J ad e_j) = sum_{r,k} J[r][k] e^k([e_j, e_r]), over the nonzero
        entries of J.
        """
        j_entries = [
            (r, k, x)
            for r, row in enumerate(self.j_mat, start=1)
            for k, x in enumerate(row, start=1)
            if x
        ]
        rhos = [Fraction(0)] * self.dim
        for (a, b), comps in self.brackets().items():
            for r, k, x in j_entries:
                if r == b:  # [e_a, e_b]
                    rhos[a - 1] += x * comps.get(k, 0)
                if r == a:  # [e_b, e_a] = -[e_a, e_b]
                    rhos[b - 1] -= x * comps.get(k, 0)
        return rhos

    def rho_report(self):
        """rho_j for all j, plus which e_j lie in the derived algebra."""
        rhos = self.rho()
        derived = self.derived_algebra()
        flags = [derived.contains({j: GaussRat(1)}) for j in range(self.dim)]
        # does the trace form restrict to zero on [g,g]?  (this, not the
        # per-vector flags, is what torsion-canonical-bundle arguments use)
        vanishes = all(
            sum(rhos[j] * x.re for j, x in row.items()) == 0 for row in derived.rows
        )
        return RhoReport(self.name, rhos, flags, derived.dim, vanishes)

    def in_derived(self, vec):
        """Is the given vector (2n rational coordinates) in [g,g]?"""
        vec = {j: GaussRat(x) for j, x in enumerate(vec) if x}
        return self.derived_algebra().contains(vec)

    def derived_algebra(self):
        """span{[e_i, e_j]} as a canonical Subspace (real entries in Q(i))."""
        vecs = [
            {k - 1: GaussRat(val) for k, val in comps.items()}
            for _, comps in sorted(self.brackets().items())
        ]
        return Subspace.span(self.dim, vecs)

    def unimodular(self):
        """tr(ad(e_j)) = 0 for all j."""
        traces = [Fraction(0)] * (self.dim + 1)
        for (a, b), comps in self.brackets().items():
            traces[a] += comps.get(b, 0)  # e^b([e_a, e_b])
            traces[b] -= comps.get(a, 0)  # e^a([e_b, e_a])
        return not any(traces)


class RhoReport:
    __slots__ = ("name", "rhos", "in_derived", "derived_dim", "rho_vanishes_on_derived")

    def __init__(self, name, rhos, in_derived, derived_dim, rho_vanishes_on_derived):
        self.name = name
        self.rhos = rhos
        self.in_derived = in_derived
        self.derived_dim = derived_dim
        self.rho_vanishes_on_derived = rho_vanishes_on_derived

    def as_dict(self):
        return {
            "name": self.name,
            "rho": [str(r) for r in self.rhos],
            "basis_vector_in_derived_algebra": list(self.in_derived),
            "derived_algebra_dim": self.derived_dim,
            "rho_vanishes_on_derived_algebra": self.rho_vanishes_on_derived,
        }
