"""Structure validation, realification, and the trace obstruction."""

from fractions import Fraction

import pytest

from nilcoh.algebra import AlgebraSpec, StructureError
from nilcoh.catalog import catalog, get
from nilcoh.deform import combined_matrix, frame_change, substitute
from nilcoh.dsl import parse, parse_gauss
from nilcoh.exterior import BigradedElement
from nilcoh.gauss import GaussRat
from nilcoh.scalar import S_ONE, ScalarExpr
from reference import gen, real_frame_matrix, realify


def test_validate_symbolic_ok():
    d = get("example31").spec.validate()
    assert d["ok"]
    assert d["integrability_failures"] == []
    assert d["d2_failures"] == []


def test_validate_catches_non_integrable():
    # d f1 = F1^F2 has a (0,2) component
    spec = parse('algebra "bad" dim 2\nd f1 = F1^F2')
    rep = spec.validate()
    assert not rep["ok"]
    assert rep["integrability_failures"]


def test_validate_catches_d_squared():
    # d f2 = f1^F1, d f1 = f2^F2: d^2 f2 has no reason to vanish
    spec = parse('algebra "bad" dim 2\nd f1 = f1^F2\nd f2 = f1^F1')
    rep = spec.validate()
    assert not rep["ok"]
    assert rep["d2_failures"]


def test_validate_parametric_grid_records_singular_samples():
    from conftest import validation_for

    d = validation_for("iwasawa_sigma_family")
    assert d["ok"]
    assert len(d["samples_checked"]) == 256  # four parameters, four values each
    skipped = [s["sample"] for s in d["skipped_samples"]]
    assert skipped == [
        "t11=1/2, t12=1/2, t21=1/2, t22=1/2",
        "t11=1/2*i, t12=1/2*i, t21=1/2*i, t22=1/2*i",
    ]


def test_evaluate_requires_all_parameters():
    from nilcoh.scalar import ScalarEvalError

    spec = get("iwasawa_x_torus").spec
    with pytest.raises(ScalarEvalError):
        spec.evaluate({"t11": GaussRat(0)})
    conc = spec.evaluate({"t11": GaussRat(0), "t22": GaussRat(0)})
    assert conc.params == ()
    assert str(conc.d_gen(3, False)) == "-f1^f2"


def test_realify_matches_hand_derived_table():
    # deformed product structure at t = 2+3i; the real equations were derived
    # by hand from the complex ones and frozen here
    spec = frame_change(get("nakamura_x_torus").family, {"t": parse_gauss("2+3i")})
    real = realify(spec)
    u, v = Fraction(2), Fraction(3)
    expected = [
        {(1, 5): -1, (2, 6): -1},
        {(1, 6): 1, (2, 5): -1},
        {(1, 3): -u, (1, 4): -v, (2, 3): -v, (2, 4): u, (3, 5): 1, (4, 6): 1},
        {(1, 3): v, (1, 4): -u, (2, 3): -u, (2, 4): -v, (3, 6): -1, (4, 5): 1},
        {(1, 5): u, (1, 6): -v, (2, 5): v, (2, 6): u},
        {(1, 5): v, (1, 6): u, (2, 5): -u, (2, 6): v},
        {},
        {},
    ]
    got = [{k: c for k, c in real.d_e[a].items()} for a in range(8)]
    assert got == [{k: Fraction(c) for k, c in row.items()} for row in expected]


def complexify(real):
    """Reference inverse of realify for real structures carrying the standard J.

    Rebuilds d(phi^j) = d(e^{2j-1}) + i d(e^{2j}) with the real coframe
    expanded back as e^{2j-1} = (phi^j + phi^jbar)/2,
    e^{2j} = -(i/2)(phi^j - phi^jbar).
    """
    if real.dim % 2:
        raise StructureError("complexification needs even real dimension")
    n = real.dim // 2
    for j in range(n):
        for m in range(real.dim):
            want_odd = Fraction(-1) if m == 2 * j + 1 else Fraction(0)
            want_even = Fraction(1) if m == 2 * j else Fraction(0)
            if real.j_mat[m][2 * j] != want_odd or real.j_mat[m][2 * j + 1] != want_even:
                raise StructureError("complexification needs the standard J")

    def coframe(a):
        j = (a + 1) // 2
        f, fbar = gen(j), gen(j, barred=True)
        if a % 2:  # e^{2j-1}
            return (f + fbar).scale(ScalarExpr.const(GaussRat(Fraction(1, 2))))
        return (f - fbar).scale(ScalarExpr.const(GaussRat(0, Fraction(-1, 2))))

    i_unit = ScalarExpr.const(GaussRat(0, 1))
    d_phi = []
    for j in range(1, n + 1):
        total = BigradedElement.zero()
        for a, scale in ((2 * j - 1, S_ONE), (2 * j, i_unit)):
            for (u, w), c in real.d_e[a - 1].items():
                term = coframe(u).wedge(coframe(w)).scale(
                    ScalarExpr.const(GaussRat(c)) * scale
                )
                total = total + term
        d_phi.append(total)
    return AlgebraSpec(real.name, n, (), d_phi)


def test_complexify_inverts_realify_on_every_entry():
    specs = []
    for entry in catalog():
        spec = entry.spec
        if spec.params:
            spec = spec.evaluate({p: GaussRat(0) for p in spec.params})
        specs.append(spec)
    # deformed samples, whose structure constants are not all real
    for name, t in [("nakamura_x_torus", "2+3i"), ("example31", "i/2"),
                    ("theorem51_family", "1/3-i/4")]:
        specs.append(frame_change(get(name).family, {"t": parse_gauss(t)}))
    specs.append(get("iwasawa_x_torus").spec.evaluate(
        {"t11": parse_gauss("i/2"), "t22": parse_gauss("1/3+i/5")}))
    for spec in specs:
        back = complexify(realify(spec))
        assert back.n == spec.n
        for j in range(1, spec.n + 1):
            assert (back.d_gen(j, False) - spec.d_gen(j, False)).is_zero()


def test_complexify_rejects_odd_dimension_and_wrong_j():
    real = realify(get("torus2").spec)
    rows = [row[:] for row in real.j_mat]
    rows[0][0] = Fraction(1)  # not the standard block J any more
    broken = type(real)(real.name, real.dim, real.d_e, rows)
    with pytest.raises(StructureError):
        complexify(broken)


def test_rho_traces_and_derived_algebra_at_paper_sample():
    # product structure deformed at t = u+iv: trace obstruction is linear in
    # (u, v) and supported on the first complex direction
    for (u, v) in [(1, 0), (0, 1), (2, 3)]:
        t = GaussRat(Fraction(u), Fraction(v))
        family = get("nakamura_x_torus").family
        real = realify(frame_change(family, {"t": t}))
        rep = real.rho_report()
        assert rep.rhos == [Fraction(-4 * v), Fraction(4 * u)] + [Fraction(0)] * 6
        assert rep.derived_dim == 4
        assert rep.rho_vanishes_on_derived is (u == v == 0)
        # the undeformed first two real directions sit inside [g, g]
        S = real_frame_matrix(family, {"t": t})
        for j in (0, 1):
            assert real.in_derived([S[m][j] for m in range(8)])


def test_real_frame_matrix_is_the_real_form_of_the_combined_matrix():
    # Reference: eps = Q M P e.  P writes (phi, phibar) in the real coframe,
    # phi^k = e^{2k-1} + i e^{2k}; M = combined_matrix(B) takes (phi,
    # phibar) to (eta, etabar); Q takes (eta, etabar) to the deformed real
    # coframe, eps^{2k-1} = (eta^k + eta^kbar)/2, eps^{2k} = -(i/2)(eta^k - eta^kbar).
    half, i = GaussRat(Fraction(1, 2)), GaussRat(0, 1)
    for name, t in [("example31", "i/2"), ("nakamura_x_torus", "2+3i"),
                    ("theorem51_family", "1/3-i/4")]:
        family = get(name).family
        assign = {"t": parse_gauss(t)}
        B = family.matrix_at(assign)
        n = len(B)
        dim = 2 * n
        M = [[row.get(c, GaussRat(0)) for c in range(dim)] for row in combined_matrix(B)]
        P = [[GaussRat(0)] * dim for _ in range(dim)]
        Q = [[GaussRat(0)] * dim for _ in range(dim)]
        for k in range(n):
            P[k][2 * k], P[k][2 * k + 1] = GaussRat(1), i
            P[n + k][2 * k], P[n + k][2 * k + 1] = GaussRat(1), -i
            Q[2 * k][k], Q[2 * k][n + k] = half, half
            Q[2 * k + 1][k], Q[2 * k + 1][n + k] = -i * half, i * half

        def mul(X, Y):
            return [[sum((X[r][m] * Y[m][c] for m in range(dim)), GaussRat(0))
                     for c in range(dim)] for r in range(dim)]

        reference = mul(mul(Q, M), P)
        assert not any(x.im for row in reference for x in row)
        assert real_frame_matrix(family, assign) == [[x.re for x in row] for row in reference]


def test_rho_report_dict_shape():
    real = realify(get("iwasawa").spec)
    rep = real.rho_report()
    d = rep.as_dict()
    assert d["rho"] == ["0"] * 6  # nilpotent: every trace is zero
    assert d["rho_vanishes_on_derived_algebra"] is True
    assert d["derived_algebra_dim"] == 2
    assert d["basis_vector_in_derived_algebra"] == [False] * 4 + [True] * 2
    assert real.unimodular()


def test_rho_invariant_under_consistent_relabeling():
    spec = frame_change(get("nakamura_x_torus").family, {"t": parse_gauss("2+3i")})
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    mapping = {}
    for j in perm:
        mapping[(False, j)] = gen(perm[j])
        mapping[(True, j)] = gen(perm[j], barred=True)
    d_phi = [None] * 4
    for j in perm:
        d_phi[perm[j] - 1] = substitute(spec.d_phi[j - 1], mapping)
    relabeled = AlgebraSpec("relabeled", 4, (), tuple(d_phi))
    r1 = realify(spec).rho_report()
    r2 = realify(relabeled).rho_report()
    for j in perm:
        for k in (0, 1):
            assert r2.rhos[2 * (perm[j] - 1) + k] == r1.rhos[2 * (j - 1) + k]


def test_unimodular_detects_nonunimodular():
    # a solvable structure with tr(ad) != 0
    spec = parse('algebra "aff" dim 2\nd f1 = f1^f2 + f1^F2')
    real = realify(spec)
    assert not real.unimodular()
