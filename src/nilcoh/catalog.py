"""Built-in structure equations and deformation families.

Every entry carries its structure equations, an optional deformation
family, and a short mathematical summary.  Entries marked unverified
transcribe coefficient formulas whose published source is ambiguous; they
validate as complex structures but their provenance is not certified by the
golden tests.

Every entry is a row of text that dsl parses when the entry is asked for.
"""

from __future__ import annotations

from .gauss import InternalError
from .scalar import S_ZERO
from . import dsl


class CatalogError(KeyError):
    pass


class CatalogEntry:
    __slots__ = ("name", "summary", "spec", "family", "unverified")

    def __init__(self, name, summary, spec, family=None, unverified=False):
        self.name = name
        self.summary = summary
        self.spec = spec
        self.family = family
        self.unverified = unverified
        if self.spec.name != name:
            raise InternalError(f"catalog entry '{name}' holds structure '{self.spec.name}'")

    def as_dict(self):
        out = {
            "name": self.name,
            "summary": self.summary,
            "dimension": self.spec.n,
            "parameters": list(self.spec.params),
            "has_deformation_family": self.family is not None,
            "unverified": self.unverified,
        }
        if self.family is not None:
            out["family_parameters"] = list(self.family.params)
            if self.family.omega is not None:
                out["distinguished_two_zero_form"] = str(self.family.omega)
        return out


# name: (summary, dimension, flag, structure equations, family), the flag
# being invariant_cohomology_is_manifold_cohomology.  A family is
# (parameters, B entries, omega): B is the Beltrami matrix, zero but for the
# scalar text at each (i, j) listed, so eta^(i+1) = phi^(i+1) + sum_j B[i][j]
# phi^((j+1)bar), and omega, if not None, is the distinguished (2,0)-form of
# the base.  example31 and example45 are one structure under two deformation
# directions.  The sigma family's text keeps the operation tree of its
# published formula, so its expanded coefficients (758/798 terms at most) are
# pinned byte for byte.
_EQ_31, _OMEGA_31 = "d f3 = f1^F1\nd f4 = f1^f2", "f1^f2 + f1^f3 + f1^f4 + f2^f4"
_ENTRIES = {
    **{f"torus{n}": (f"complex torus of complex dimension {n}; every generator closed",
                     n, True, "", None) for n in (2, 3, 4)},
    "iwasawa": ("complex-parallelizable nilmanifold of complex dimension 3",
                3, True, "d f3 = f1^f2", None),
    "iwasawa_x_torus": (
        "Iwasawa nilmanifold times a torus, deformed along the diagonal "
        "two-parameter directions; admissible for |t11|, |t22| < 1",
        4, True,
        "param t11\nparam t22\n"
        "d f3 = -((1-t11*conj(t11)*t22*conj(t22))"
        "/((1-t11*conj(t11))*(1-t22*conj(t22)))) * f1^f2"
        " + (t22/(1-t22*conj(t22))) * f1^F2 - (t11/(1-t11*conj(t11))) * f2^F1",
        None),
    # eta^2 = phi^2 + t phi^{2bar}; admissible for |t| < 1
    "example31": (
        "nilmanifold of complex dimension 4 whose one-parameter deformation "
        "destroys the complex symplectic structure",
        4, True, _EQ_31, (("t",), {(1, 1): "t"}, _OMEGA_31)),
    # eta^1 = phi^1 + t phi^{1bar}; admissible for |t| < 1
    "example45": (
        "same nilmanifold as example31 under the deformation direction that "
        "preserves the complex symplectic structure",
        4, True, _EQ_31, (("t",), {(0, 0): "t"}, _OMEGA_31)),
    # eta^3 = phi^3 - t phi^{1bar}
    "nakamura_x_torus": (
        "completely-solvable-free solvmanifold times a torus; invariant "
        "computations are not declared to match the compact quotient",
        4, False, "d f1 = -f1^F3\nd f2 = f2^F3", (("t",), {(2, 0): "-t"}, None)),
    # eta^1 = phi^1 + t phi^{1bar} - i t phi^{2bar}; admissible for |t| < 1
    "theorem51_family": (
        "nilmanifold with no invariant complex symplectic structure whose "
        "arbitrarily small deformations acquire one",
        4, True, "d f3 = f1^f2\nd f4 = i * f1^F1 + f1^F2 + f2^F1",
        (("t",), {(0, 0): "t", (0, 1): "-i*t"}, None)),
    # eta^3 = phi^3 + t phi^{1bar}
    "section42_example": (
        "complex symplectic nilmanifold whose deformation satisfies the "
        "degree-2 correction-form stability hypotheses",
        4, True, "d f3 = f1^f2\nd f4 = f1^f3", (("t",), {(2, 0): "t"}, "f1^f4 + f2^f3")),
    "frolicher_example": (
        "complex symplectic nilmanifold whose spectral sequence degenerates "
        "only at the third page",
        4, True, "d f2 = f1^F1\nd f3 = f2^F1\nd f4 = f3^F1", None),
    "iwasawa_sigma_family": (
        "general four-parameter deformation of the Iwasawa nilmanifold; "
        "coefficient transcription not certified (the published formula is "
        "typographically ambiguous), though its coefficients specialize "
        "exactly to the iwasawa_x_torus ones at t12 = t21 = 0",
        3, True,
        "param t11\nparam t12\nparam t21\nparam t22\n"
        "let det = t11*t22 - t12*t21\n"
        "let alpha = 1/(1 - t22*conj(t22) - t21*conj(t12))\n"
        "let re_cross = t11*t22*conj(t12)*conj(t21)\n"
        "let gamma = 1/(1 - t11*conj(t11) - t12*conj(t21)"
        " - alpha*(t11*conj(t11)*t21*conj(t12) + t22*conj(t22)*t12*conj(t21)"
        " + re_cross + conj(re_cross)))\n"
        "let s1b1 = conj(alpha)*conj(gamma)*(t21 + conj(t21)*det)\n"
        "let s2b2 = -(alpha*gamma)*(t12 + conj(t12)*det)\n"
        "d f3 = (-gamma - conj(alpha)*(t22*conj(t22)) + (1/conj(gamma))*(s1b1*conj(s2b2)))"
        " * f1^f2 + s1b1 * f1^F1"
        " + conj(alpha)*(t22 + (t12*conj(t11) + t22*conj(t12))*s1b1) * f1^F2"
        " + (-(alpha*gamma)*(t11 - conj(t22)*det)) * f2^F1 + s2b2 * f2^F2",
        None),
}
_UNVERIFIED = {"iwasawa_sigma_family"}


def _entry(name):
    """The table entry `name`, parsed."""
    summary, n, flag, equations, family = _ENTRIES[name]
    spec = dsl.parse(f'algebra "{name}" dim {n}\n'
                     f"flag {dsl.FLAG_NAME} {str(flag).lower()}\n{equations}\n")
    if family is not None:
        # deform is imported here: only entries with a family need it
        from .deform import DeformationFamily

        params, b_entries, omega = family
        B = [[S_ZERO] * n for _ in range(n)]
        for (i, j), text in b_entries.items():
            B[i][j] = dsl.parse_scalar(text, params)
        omega = None if omega is None else dsl.parse_form(omega, n)
        family = DeformationFamily(name, spec, params, B, omega=omega)
    return CatalogEntry(name, summary, spec, family, unverified=name in _UNVERIFIED)


def catalog():
    """All built-in entries, in stable presentation order."""
    return [get(name) for name in _ENTRIES]


def get(name):
    """The entry called `name`; builds no other entry."""
    if name not in _ENTRIES:
        known = ", ".join(_ENTRIES)
        raise CatalogError(f"no catalog entry named {name!r}; known entries: {known}")
    return _entry(name)
