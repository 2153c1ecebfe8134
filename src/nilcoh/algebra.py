"""Invariant complex structures given by structure equations.

An AlgebraSpec holds d(phi^1..phi^n) as (possibly parameter-dependent)
bigraded 2-forms.  d extends to the whole exterior algebra as the unique
derivation with d(phi^ibar) = conj(d(phi^i)).  Integrability of the complex
structure is exactly the statement that each d(phi^i) has no (0,2) part.

Realification uses phi^j = e^{2j-1} + i e^{2j}; on vectors the calibrated
convention is J e_{2j-1} = -e_{2j}, J e_{2j} = e_{2j-1}.
"""

from __future__ import annotations

from fractions import Fraction

from .gauss import GaussRat, InternalError
from .linalg import Subspace
from .scalar import ScalarExpr, ScalarEvalError
from .exterior import BigradedElement

# default exact sample points used for pointwise validation of parametric data
DEFAULT_SAMPLES = (
    GaussRat(0),
    GaussRat(Fraction(1, 2)),
    GaussRat(0, Fraction(1, 2)),
    GaussRat(Fraction(1, 3), Fraction(1, 3)),
)


class StructureError(ValueError):
    """A structurally invalid set of structure equations."""


class AlgebraSpec:
    """Structure equations d(phi^i) = (2-form), i = 1..n, over Q(i)[params]."""

    __slots__ = ("name", "n", "params", "d_phi", "flag_invariant_ok", "note")

    def __init__(self, name, n, params, d_phi, flag_invariant_ok=None, note=""):
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
        object.__setattr__(self, "note", note)

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
            note=self.note,
        )

    # -- validation ---------------------------------------------------------

    def validate(self, samples=DEFAULT_SAMPLES):
        """Check integrability (no (0,2) parts) and d^2 = 0.

        Parameter-free data is checked symbolically.  Parametric data is
        checked at every point of the cartesian grid samples^params; sample
        points where a denominator vanishes are recorded and skipped.
        """
        report = ValidationReport(self.name)
        for i, el in enumerate(self.d_phi, start=1):
            bad = el.project(0, 2)
            if not bad.is_zero():
                report.integrability_failures.append((i, str(bad)))
        if not self.params:
            self._check_d2(report, label="")
        else:
            for assign in _grid(self.params, samples):
                label = ", ".join(f"{k}={v}" for k, v in sorted(assign.items()))
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
        for i in range(1, self.n + 1):
            for barred in (False, True):
                gen = BigradedElement.gen(i, barred)
                dd = self.d(self.d(gen))
                if not dd.is_zero():
                    g = f"f{i}" if not barred else f"F{i}"
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
        d_e = []
        for j in range(1, n + 1):
            dpj = self.d_phi[j - 1]
            dpj_bar = dpj.conj()
            half = ScalarExpr.const(GaussRat(Fraction(1, 2)))
            neg_half_i = ScalarExpr.const(GaussRat(0, Fraction(-1, 2)))
            d_e.append((dpj + dpj_bar).scale(half))
            d_e.append((dpj - dpj_bar).scale(neg_half_i))
        # expand each complex 2-form in the real coframe
        real_eqs = []
        for de in d_e:
            real_eqs.append(_complex_2form_to_real(de, n))
        # J on vectors (calibrated): J e_{2j-1} = -e_{2j}, J e_{2j} = e_{2j-1}
        dim = 2 * n
        j_mat = [[Fraction(0)] * dim for _ in range(dim)]
        for j in range(n):
            j_mat[2 * j + 1][2 * j] = Fraction(-1)  # J e_{2j-1} = -e_{2j}
            j_mat[2 * j][2 * j + 1] = Fraction(1)  # J e_{2j}  =  e_{2j-1}
        return RealAlgebraSpec(self.name, dim, real_eqs, j_mat)


def _grid(params, samples):
    """Cartesian product of sample values over the parameter names."""
    if not params:
        yield {}
        return
    head, rest = params[0], params[1:]
    for v in samples:
        for tail in _grid(rest, samples):
            yield {head: v, **tail}


def _complex_2form_to_real(form, n):
    """Expand a complex invariant 2-form in the real coframe e^1..e^{2n}.

    phi^j = e^{2j-1} + i e^{2j};  phi^jbar = e^{2j-1} - i e^{2j}.
    Returns {(a, b): Fraction} with a < b; raises if any coefficient
    fails to be real (the input must come from realified data).
    """
    out = {}
    for (holo, anti), coeff in form.coeffs.items():
        c = coeff.const_value()
        # each complex generator expands to two real terms
        factors = []
        for j in holo:
            factors.append(((2 * j - 1, GaussRat(1)), (2 * j, GaussRat(0, 1))))
        for j in anti:
            factors.append(((2 * j - 1, GaussRat(1)), (2 * j, GaussRat(0, -1))))
        # distribute
        expansion = [((), GaussRat(1))]
        for opts in factors:
            nxt = []
            for idxs, co in expansion:
                for e_idx, e_co in opts:
                    nxt.append((idxs + (e_idx,), co * e_co))
            expansion = nxt
        for idxs, co in expansion:
            # wedge-sort indices, drop repeats
            sign, key = _sort_sign(idxs)
            if sign == 0:
                continue
            val = c * co * GaussRat(sign)
            out[key] = out.get(key, GaussRat(0)) + val
    real_out = {}
    for key, val in out.items():
        if val.is_zero():
            continue
        if not val.is_real():
            raise InternalError(f"non-real structure constant {val} at e^{key}")
        real_out[key] = val.re
    return real_out


def _sort_sign(idxs):
    """Bubble-sort sign of an index tuple; (0, None) when an index repeats."""
    lst = list(idxs)
    sign = 1
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
            elif lst[j] == lst[j + 1]:
                return 0, None
    return sign, tuple(lst)


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

    def ad(self, j):
        """Matrix of ad(e_j) = [e_j, -] acting on column vectors (0-based)."""
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        c = self.brackets()
        for (a, b), comps in c.items():
            for k, val in comps.items():
                if a == j:
                    mat[k - 1][b - 1] += val  # [e_j, e_b]
                elif b == j:
                    mat[k - 1][a - 1] -= val  # [e_a, e_j] = -[e_j, e_a]
        return mat

    def rho(self, j):
        """Trace of J composed with ad(e_j)."""
        ad = self.ad(j)
        t = Fraction(0)
        for r in range(self.dim):
            for k in range(self.dim):
                t += self.j_mat[r][k] * ad[k][r]
        return t

    def rho_report(self):
        """rho_j for all j, plus which e_j lie in the derived algebra."""
        rhos = [self.rho(j) for j in range(1, self.dim + 1)]
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
        for j in range(1, self.dim + 1):
            ad = self.ad(j)
            if sum(ad[k][k] for k in range(self.dim)) != 0:
                return False
        return True


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
