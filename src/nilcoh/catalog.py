"""Built-in structure equations and deformation families.

Every entry carries its structure equations, an optional deformation
family, and a short mathematical summary.  Entries marked unverified
transcribe coefficient formulas whose published source is ambiguous; they
validate as complex structures but their provenance is not certified by the
golden tests.
"""

from __future__ import annotations

from .gauss import InternalError
from .scalar import S_I, ScalarExpr
from . import dsl
from .algebra import AlgebraSpec
from .exterior import BigradedElement


class CatalogError(KeyError):
    pass


class CatalogEntry:
    __slots__ = ("name", "summary", "spec", "family", "unverified")

    def __init__(self, name, summary, source=None, spec=None,
                 family=None, unverified=False):
        self.name = name
        self.summary = summary
        self.spec = dsl.parse(source) if spec is None else spec
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


def _gen(j, barred=False):
    return BigradedElement.gen(j, barred=barred)


def _wedge(a, b):
    return a.wedge(b)


def _family(name, base, params, b_entries, omega=None):
    """Deformation eta = phi + sum B[i][j] phi^{jbar} (A stays the identity).
    deform is imported here: only entries with a family need it."""
    from .deform import DeformationFamily

    A, B = DeformationFamily.identity_matrices(base.n)
    for (i, j), expr in b_entries.items():
        B[i][j] = expr
    return DeformationFamily(name, base, params, A, B, omega=omega)


_T = ScalarExpr.param("t")


def _torus(n):
    lines = [f'algebra "torus{n}" dim {n}',
             "flag invariant_cohomology_is_manifold_cohomology true"]
    lines += [f"d f{k} = 0" for k in range(1, n + 1)]
    return CatalogEntry(
        f"torus{n}",
        f"complex torus of complex dimension {n}; every generator closed",
        "\n".join(lines) + "\n",
    )


def _iwasawa():
    src = (
        'algebra "iwasawa" dim 3\n'
        "flag invariant_cohomology_is_manifold_cohomology true\n"
        "d f3 = f1^f2\n"
    )
    return CatalogEntry(
        "iwasawa",
        "complex-parallelizable nilmanifold of complex dimension 3",
        src,
    )


def _iwasawa_x_torus():
    src = (
        'algebra "iwasawa_x_torus" dim 4\n'
        "param t11\n"
        "param t22\n"
        "flag invariant_cohomology_is_manifold_cohomology true\n"
        "d f3 = -((1-t11*conj(t11)*t22*conj(t22))"
        "/((1-t11*conj(t11))*(1-t22*conj(t22)))) * f1^f2"
        " + (t22/(1-t22*conj(t22))) * f1^F2"
        " - (t11/(1-t11*conj(t11))) * f2^F1\n"
    )
    return CatalogEntry(
        "iwasawa_x_torus",
        "Iwasawa nilmanifold times a torus, deformed along the diagonal "
        "two-parameter directions; admissible for |t11|, |t22| < 1",
        src,
    )


def _example31():
    src = (
        'algebra "example31" dim 4\n'
        "flag invariant_cohomology_is_manifold_cohomology true\n"
        "d f3 = f1^F1\n"
        "d f4 = f1^f2\n"
    )
    entry = CatalogEntry(
        "example31",
        "nilmanifold of complex dimension 4 whose one-parameter deformation "
        "destroys the complex symplectic structure",
        src,
    )
    omega = (_wedge(_gen(1), _gen(2)) + _wedge(_gen(1), _gen(3))
             + _wedge(_gen(1), _gen(4)) + _wedge(_gen(2), _gen(4)))
    # eta^2 = phi^2 + t phi^{2bar}; admissible for |t| < 1
    entry.family = _family(
        "example31", entry.spec, ("t",), {(1, 1): _T}, omega=omega,
    )
    return entry


def _example45():
    src = (
        'algebra "example45" dim 4\n'
        "flag invariant_cohomology_is_manifold_cohomology true\n"
        "d f3 = f1^F1\n"
        "d f4 = f1^f2\n"
    )
    entry = CatalogEntry(
        "example45",
        "same nilmanifold as example31 under the deformation direction that "
        "preserves the complex symplectic structure",
        src,
    )
    omega = (_wedge(_gen(1), _gen(2)) + _wedge(_gen(1), _gen(3))
             + _wedge(_gen(1), _gen(4)) + _wedge(_gen(2), _gen(4)))
    # eta^1 = phi^1 + t phi^{1bar}; admissible for |t| < 1
    entry.family = _family(
        "example45", entry.spec, ("t",), {(0, 0): _T}, omega=omega,
    )
    return entry


def _nakamura_x_torus():
    src = (
        'algebra "nakamura_x_torus" dim 4\n'
        "flag invariant_cohomology_is_manifold_cohomology false\n"
        "d f1 = -f1^F3\n"
        "d f2 = f2^F3\n"
    )
    entry = CatalogEntry(
        "nakamura_x_torus",
        "completely-solvable-free solvmanifold times a torus; invariant "
        "computations are not declared to match the compact quotient",
        src,
    )
    # eta^3 = phi^3 - t phi^{1bar}
    entry.family = _family(
        "nakamura_x_torus", entry.spec, ("t",), {(2, 0): -_T},
    )
    return entry


def _theorem51_family():
    src = (
        'algebra "theorem51_family" dim 4\n'
        "flag invariant_cohomology_is_manifold_cohomology true\n"
        "d f3 = f1^f2\n"
        "d f4 = i * f1^F1 + f1^F2 + f2^F1\n"
    )
    entry = CatalogEntry(
        "theorem51_family",
        "nilmanifold with no invariant complex symplectic structure whose "
        "arbitrarily small deformations acquire one",
        src,
    )
    # eta^1 = phi^1 + t phi^{1bar} - i t phi^{2bar}; admissible for |t| < 1
    entry.family = _family(
        "theorem51_family", entry.spec, ("t",),
        {(0, 0): _T, (0, 1): -(S_I * _T)},
    )
    return entry


def _section42_example():
    src = (
        'algebra "section42_example" dim 4\n'
        "flag invariant_cohomology_is_manifold_cohomology true\n"
        "d f3 = f1^f2\n"
        "d f4 = f1^f3\n"
    )
    entry = CatalogEntry(
        "section42_example",
        "complex symplectic nilmanifold whose deformation satisfies the "
        "degree-2 correction-form stability hypotheses",
        src,
    )
    omega = _wedge(_gen(1), _gen(4)) + _wedge(_gen(2), _gen(3))
    # eta^3 = phi^3 + t phi^{1bar}
    entry.family = _family(
        "section42_example", entry.spec, ("t",), {(2, 0): _T}, omega=omega,
    )
    return entry


def _frolicher_example():
    src = (
        'algebra "frolicher_example" dim 4\n'
        "flag invariant_cohomology_is_manifold_cohomology true\n"
        "d f2 = f1^F1\n"
        "d f3 = f2^F1\n"
        "d f4 = f3^F1\n"
    )
    return CatalogEntry(
        "frolicher_example",
        "complex symplectic nilmanifold whose spectral sequence degenerates "
        "only at the third page",
        src,
    )


def _iwasawa_sigma_family():
    one = ScalarExpr.const(1)
    t11, t12 = ScalarExpr.param("t11"), ScalarExpr.param("t12")
    t21, t22 = ScalarExpr.param("t21"), ScalarExpr.param("t22")

    def nrm(x):
        return x * x.conj()

    det = t11 * t22 - t12 * t21
    alpha = one / (one - nrm(t22) - t21 * t12.conj())
    re_cross = t11 * t22 * t12.conj() * t21.conj()
    gamma = one / (
        one - nrm(t11) - t12 * t21.conj()
        - alpha * (nrm(t11) * t21 * t12.conj()
                   + nrm(t22) * t12 * t21.conj()
                   + re_cross + re_cross.conj())
    )
    s_1b1 = alpha.conj() * gamma.conj() * (t21 + t21.conj() * det)
    s_1b2 = alpha.conj() * (t22 + (t12 * t11.conj() + t22 * t12.conj()) * s_1b1)
    s_2b1 = -(alpha * gamma) * (t11 - t22.conj() * det)
    s_2b2 = -(alpha * gamma) * (t12 + t12.conj() * det)
    s_12 = -gamma - alpha.conj() * nrm(t22) + (one / gamma.conj()) * (s_1b1 * s_2b2.conj())

    d_f3 = BigradedElement({
        ((0, 1), (0, 2)): s_12,
        ((0, 1), (1, 1)): s_1b1,
        ((0, 1), (1, 2)): s_1b2,
        ((0, 2), (1, 1)): s_2b1,
        ((0, 2), (1, 2)): s_2b2,
    })

    spec = AlgebraSpec(
        "iwasawa_sigma_family", 3, ("t11", "t12", "t21", "t22"),
        [BigradedElement.zero(), BigradedElement.zero(), d_f3],
        flag_invariant_ok=True,
    )
    return CatalogEntry(
        "iwasawa_sigma_family",
        "general four-parameter deformation of the Iwasawa nilmanifold; "
        "coefficient transcription not certified (the published formula is "
        "typographically ambiguous), though its coefficients specialize "
        "exactly to the iwasawa_x_torus ones at t12 = t21 = 0",
        spec=spec,
        unverified=True,
    )


# entry name -> builder, in stable presentation order
_BUILDERS = {
    "torus2": lambda: _torus(2),
    "torus3": lambda: _torus(3),
    "torus4": lambda: _torus(4),
    "iwasawa": _iwasawa,
    "iwasawa_x_torus": _iwasawa_x_torus,
    "example31": _example31,
    "example45": _example45,
    "nakamura_x_torus": _nakamura_x_torus,
    "theorem51_family": _theorem51_family,
    "section42_example": _section42_example,
    "frolicher_example": _frolicher_example,
    "iwasawa_sigma_family": _iwasawa_sigma_family,
}


def catalog():
    """All built-in entries, in stable presentation order."""
    return [build() for build in _BUILDERS.values()]


def get(name):
    """The entry called `name`; builds no other entry."""
    build = _BUILDERS.get(name)
    if build is None:
        known = ", ".join(_BUILDERS)
        raise CatalogError(f"no catalog entry named {name!r}; known entries: {known}")
    return build()
