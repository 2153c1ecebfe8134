"""Release acceptance battery.

One test per shipped criterion, in contract order, all at exact arithmetic
with zero tolerance.  Each test line in `pytest -v` is the pass/fail record
for its criterion.
"""

import json
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from conftest import n6_ops_for, ops_for, validation_for
from reference import class_in_pure_sum, mono, rank_of, real_frame_matrix, realify
from zigzag import spectral_cell
from nilcoh.catalog import catalog, get
from nilcoh.cohomology import betti as betti_number, bott_chern, hodge_table, pure_full
from nilcoh.deform import DeformationError, frame_change
from nilcoh.dsl import parse_gauss
from nilcoh.exterior import BigradedElement
from nilcoh.frolicher import degeneration_page, e_infinity, spectral_page
from nilcoh.gauss import GaussRat, ZERO
from nilcoh.linalg import (
    Subspace,
    mat_mul,
    transpose,
)
from nilcoh.scalar import ScalarEvalError, ScalarExpr
from nilcoh.symplectic import (
    closed_20_elements,
    find_symplectic,
    theorem61_suite,
)


def g(i):
    return BigradedElement.gen(i)


def gb(i):
    return BigradedElement.gen(i, barred=True)


def _const(text):
    return ScalarExpr.const(parse_gauss(text))


# ---------------------------------------------------------------------------
# criterion 1


def test_example31_bc_jump_and_symplectic_split():
    base = ops_for("example31")
    g0 = bott_chern(base, 2, 0)
    assert g0.dim == 4
    assert [str(r) for r in g0.reps] == ["f1^f2", "f1^f3", "f1^f4", "f2^f4"]
    assert find_symplectic(base).verdict == "exists"
    for t in ("1/2", "i/2", "-1/3"):
        cache = ops_for("example31", t=t)
        assert bott_chern(cache, 2, 0).dim == 3, t
        assert find_symplectic(cache).verdict == "none", t


# ---------------------------------------------------------------------------
# criterion 2


def test_example45_constant_bc_and_certified_witnesses():
    for text in ("0", "1/2", "-1/2", "i/2", "-i/2"):
        t = parse_gauss(text)
        cache = ops_for("example45", t=text)
        assert bott_chern(cache, 2, 0).dim == 4, text
        rep = find_symplectic(cache)
        assert rep.verdict == "exists", text
        w = rep.witness
        # plug the witness back: closed, non-degenerate, and inside the
        # five-monomial family the closed (2,0) space carries
        assert cache.spec.d(w).is_zero()
        assert not w.wedge_power(2).is_zero()
        support = {m for m, _ in w.items()}
        assert support <= {
            mono((1, 2), ()), mono((1, 3), ()), mono((1, 4), ()), mono((2, 3), ()),
            mono((2, 4), ()),
        }
        beta = w.coeff(mono((1, 3), ())).const_value()
        gamma = w.coeff(mono((1, 4), ())).const_value()
        theta = w.coeff(mono((2, 4), ())).const_value()
        assert w.coeff(mono((2, 3), ())).const_value() == t * gamma
        assert bool(t * gamma * gamma - beta * theta), text


# ---------------------------------------------------------------------------
# criterion 3


def test_theorem51_family_existence_switch():
    at0 = ops_for("theorem51_family", t="0")
    rep0 = find_symplectic(at0)
    assert rep0.verdict == "none"
    assert rep0.closed_dim == 3
    assert rep0.poly.is_zero()
    assert rep0.grid_points_checked == 3 ** 3  # the whole {0,1,2}^3 grid
    for t in ("1/2", "i/2"):
        cache = ops_for("theorem51_family", t=t)
        rep = find_symplectic(cache)
        assert rep.verdict == "exists", t
        assert cache.spec.d(rep.witness).is_zero()
        assert not rep.witness.wedge_power(2).is_zero()


# ---------------------------------------------------------------------------
# criterion 4


def test_iwasawa_x_torus_corner_verdicts():
    corners = [("0", "0"), ("0", "1/2"), ("1/2", "0"), ("1/2", "1/2")]
    verdicts = [
        find_symplectic(ops_for("iwasawa_x_torus", t11=a, t22=b)).verdict
        for a, b in corners
    ]
    assert verdicts == ["exists", "exists", "exists", "none"]


# ---------------------------------------------------------------------------
# criterion 5


def test_spectral_tower_and_degeneration_pages():
    cache = ops_for("frolicher_example")
    dims = [spectral_page(cache, r)[(0, 2)] for r in (1, 2, 3, 4)]
    assert dims == [6, 4, 3, 3]
    cell2 = spectral_cell(cache, 2, 0, 2)
    assert cell2["boundaries"].dim == 0
    amb = cache.dims((0, 2))
    engine_span = Subspace.span(
        amb, [cache.to_vec((0, 2), r) for r in cell2["representatives"]]
    )
    listed = [
        gb(1).wedge(gb(2)),
        gb(1).wedge(gb(3)),
        gb(1).wedge(gb(4)) - gb(2).wedge(gb(3)),
        gb(1).wedge(gb(4)) + gb(2).wedge(gb(3)),
    ]
    listed_span = Subspace.span(
        amb, [cache.to_vec((0, 2), e) for e in listed]
    )
    assert engine_span == listed_span
    assert degeneration_page(cache)[0] == 3
    assert degeneration_page(ops_for("iwasawa"))[0] == 2


# ---------------------------------------------------------------------------
# criterion 6


def test_nakamura_rho_obstruction_and_derived_algebra():
    fam = get("nakamura_x_torus").family
    for u, v in [(1, 0), (0, 1), (2, 3)]:
        assign = {"t": GaussRat(u, v)}
        real = realify(frame_change(fam, assign))
        report = real.rho_report()
        assert report.rhos == [Fraction(-4 * v), Fraction(4 * u)] + [
            Fraction(0)
        ] * 6, (u, v)
        assert report.derived_dim == 4
        assert report.rho_vanishes_on_derived is False
        frame = real_frame_matrix(fam, assign)
        dim = len(frame)
        for j in (0, 1):  # the undeformed first two real directions
            column = [frame[i][j] for i in range(dim)]
            assert real.in_derived(column), (u, v, j)


# ---------------------------------------------------------------------------
# criterion 7


def test_theorem61_suite_wedge_classes_nontrivial():
    cache = ops_for("example31")
    rep = find_symplectic(cache)
    assert str(rep.witness) == "f1^f3+f2^f4"  # lexicographically first grid point
    suite = theorem61_suite(cache, rep.witness)
    assert suite["all_nontrivial"] is True
    assert len(suite["cells"]) == 9
    for cell, row in suite["cells"].items():
        assert len(row) == 5 and set(row.values()) == {"nontrivial"}, cell


# ---------------------------------------------------------------------------
# criterion 8


def test_stage_two_fullness_split():
    for t in ("0", "1/2"):
        cache = ops_for("section42_example", t=t)
        assert pure_full(cache, 2).full is True, t
        assert all(
            x.is_zero() for row in cache.deldelbar_pq(1, 0) for x in row.values()
        ), t
    cache = ops_for("example31", t="1/2")
    assert pure_full(cache, 2).full is False
    # the class that escapes every pure-type subgroup, at t = 1/2
    w = (
        g(2).wedge(g(3))
        + g(4).wedge(gb(1)).scale(_const("-3/4"))
        + gb(2).wedge(gb(3)).scale(_const("1/2"))
    )
    assert cache.spec.d(w).is_zero()
    assert not class_in_pure_sum(cache, 2, w)


# ---------------------------------------------------------------------------
# criterion 9

SAMPLE_TEXTS = ("0", "1/2", "i/2", "(1+i)/3")


def _structures():
    """Every catalog entry at every regular joint default sample."""
    out = []
    skipped = []
    for entry in catalog():
        spec = entry.spec
        labels = [(f"{entry.name}@base", {})]
        if entry.family is not None and not spec.params:
            labels += [
                (f"{entry.name}@{s}", {p: s for p in entry.family.params})
                for s in SAMPLE_TEXTS
            ]
        elif spec.params:
            labels = [
                (f"{entry.name}@{s}", {p: s for p in spec.params})
                for s in SAMPLE_TEXTS
            ]
        for label, assign in labels:
            try:
                out.append((label, ops_for(entry.name, **assign)))
            except (DeformationError, ScalarEvalError):
                skipped.append(label)
    return out, skipped


def _sum_compose_vanishes(pairs, src_dim):
    """sum of after∘before over the pairs is the zero matrix (sparse walk)."""
    for j in range(src_dim):
        acc = {}
        for after, before in pairs:
            column = [(k, row[j]) for k, row in enumerate(before) if j in row]
            if not column:
                continue
            for i, out_row in enumerate(after):
                s = ZERO
                for k, x in column:
                    if k in out_row:
                        s = s + out_row[k] * x
                if s:
                    acc[i] = acc.get(i, ZERO) + s
        assert all(not v for v in acc.values()), f"column {j} survives"


def _duality_defects(n, betti, dol):
    """Where Poincare duality b_k = b_{2n-k} and Serre duality
    h^{p,q} = h^{n-p,n-q} of the Dolbeault numbers break, given the Betti
    numbers by degree and the Dolbeault table of a unimodular algebra."""
    return ([f"b{k}" for k in range(2 * n + 1) if betti[k] != betti[2 * n - k]]
            + [f"h{p},{q}" for p in range(n + 1) for q in range(n + 1)
               if dol[(p, q)] != dol[(n - p, n - q)]])


def test_property_suites_over_catalog():
    structures, skipped = _structures()
    # the only irregular joint samples are the two the validator also skips
    assert skipped == [
        "iwasawa_sigma_family@1/2",
        "iwasawa_sigma_family@i/2",
    ]
    assert len(structures) >= 25
    for entry in catalog():
        assert validation_for(entry.name).ok, entry.name

    grid_cases = unimodular_cases = 0
    for label, cache in structures:
        n = cache.n

        # differential identities
        for k in range(2 * n):
            _sum_compose_vanishes(
                [(cache.d_total(k + 1), cache.d_total(k))], cache.dims(k)
            )
        for p in range(n + 1):
            for q in range(n + 1):
                src = cache.dims((p, q))
                _sum_compose_vanishes(
                    [(cache.delbar_pq(p, q + 1), cache.delbar_pq(p, q))], src
                )
                _sum_compose_vanishes(
                    [(cache.del_pq(p + 1, q), cache.del_pq(p, q))], src
                )
                _sum_compose_vanishes(
                    [
                        (cache.del_pq(p, q + 1), cache.delbar_pq(p, q)),
                        (cache.delbar_pq(p + 1, q), cache.del_pq(p, q)),
                    ],
                    src,
                )

        # conjugation symmetries of the dimension tables
        bc = hodge_table(cache, "bott_chern")
        dol = hodge_table(cache, "dolbeault")
        dl = hodge_table(cache, "del")
        for p in range(n + 1):
            for q in range(n + 1):
                assert bc[(p, q)] == bc[(q, p)], (label, p, q)
                assert dol[(p, q)] == dl[(q, p)], (label, p, q)

        # the limit page refines the de Rham numbers
        lim = e_infinity(cache)
        betti = [
            cache.kernel("d", k).dim - cache.image("d", k - 1).dim
            for k in range(2 * n + 1)
        ]
        for k in range(2 * n + 1):
            total = sum(d for (p, q), d in lim.items() if p + q == k)
            assert total == betti[k], (label, k)

        # Frolicher and Angella-Tomassini inequalities, and Bott-Chern /
        # Aeppli, Poincare and Serre duality on unimodular algebras
        ae = hodge_table(cache, "aeppli")
        for k in range(2 * n + 1):
            cells = [(p, k - p) for p in range(n + 1) if 0 <= k - p <= n]
            assert sum(dol[c] for c in cells) >= betti[k], (label, k)
            assert sum(bc[c] + ae[c] for c in cells) >= 2 * betti[k], (label, k)
        if realify(cache.spec).unimodular():
            unimodular_cases += 1
            for p in range(n + 1):
                for q in range(n + 1):
                    assert bc[(p, q)] == ae[(n - p, n - q)], (label, p, q)
            assert _duality_defects(n, betti, dol) == [], label

        # rank-nullity with an explicit kernel basis on every matrix, and
        # ops.kernel (one elimination, columns reversed) against its span
        keys = [("d", k) for k in range(2 * n + 1)] + [
            (op, (p, q)) for p in range(n + 1) for q in range(n + 1)
            for op in ("d", "del", "delbar", "dd")]
        for op, key in keys:
            rows, ncols = cache.rows(op, key), cache.dims(key)
            kb = cache.kernel_vectors(op, key)  # kernel_basis(rows, ncols)
            assert len(kb) == ncols - rank_of(rows), label
            assert not any(mat_mul(kb, transpose(rows, ncols))), label
            ker, ref = cache.kernel(op, key), Subspace.span(ncols, kb)
            assert (ker.rows, ker.pivots) == (ref.rows, ref.pivots), (label, op, key)

        # grid decision versus the fully expanded polynomial
        if n % 2 == 0:
            elems = closed_20_elements(cache)
            s = len(elems)
            if s <= 3:
                grid_cases += 1
                poly = find_symplectic(cache).poly
                m = n // 2
                values = [
                    poly.evaluate(
                        {f"a{j + 1}": GaussRat(pt[j]) for j in range(s)}
                    )
                    for pt in product(range(m + 1), repeat=s)
                ]
                assert (not any(values)) == poly.is_zero(), label
                verdict = find_symplectic(cache).verdict
                assert verdict == ("none" if poly.is_zero() else "exists"), label
    assert grid_cases >= 5
    assert unimodular_cases >= 25

    # frame change at the identity sample reproduces the base equations
    for entry in catalog():
        if entry.family is None:
            continue
        zero = {p: GaussRat(0) for p in entry.family.params}
        at0 = frame_change(entry.family, zero)
        base = entry.spec
        for j in range(1, base.n + 1):
            assert (at0.d_gen(j, False) - base.d_gen(j, False)).is_zero(), (
                entry.name,
                j,
            )


@pytest.mark.parametrize("path", ["data/iwasawa_x_iwasawa.txt", "data/torus6.txt"])
def test_poincare_and_serre_duality_on_six_dimensional_files(path):
    cache = n6_ops_for(path)
    n = cache.n
    assert realify(cache.spec).unimodular()
    betti = [betti_number(cache, k) for k in range(2 * n + 1)]
    dol = hodge_table(cache, "dolbeault")
    assert _duality_defects(n, betti, dol) == []
    # one Betti number and one Dolbeault cell off by one: each identity
    # sees it, at both ends of the pair
    betti[1] += 1
    dol[(0, 1)] += 1
    assert _duality_defects(n, betti, dol) == ["b1", "b11", "h0,1", "h6,5"]


# ---------------------------------------------------------------------------
# criterion 10

BATTERY = [
    ("validate", "@iwasawa"),
    ("cohomology", "@example31", "--assign", "t=1/2"),
    ("frolicher", "@frolicher_example"),
    ("symplectic", "@example31", "--suite61", "--betti-bounds"),
    (
        "deform",
        "@example31",
        "--samples",
        "t=0; t=1/2; t=i/2",
        "--tasks",
        "validate; symplectic",
    ),
    ("deform", "@iwasawa_x_torus", "--grid", "t11=0|1/2; t22=0|1/2"),
    ("hypotheses", "@example45", "--samples", "t=0; t=1/2; t=-1/2"),
    ("purefull", "@example31", "--assign", "t=1/2", "--stage", "2"),
    ("catalog",),
]


def _run_battery():
    chunks = []
    for args in BATTERY:
        proc = subprocess.run(
            [sys.executable, "-m", "nilcoh", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 1), (args, proc.stderr)
        json.loads(proc.stdout)  # every report is valid JSON
        chunks.append(proc.stdout)
    return "".join(chunks)


def test_reports_byte_identical_across_reruns():
    first = _run_battery()
    second = _run_battery()
    assert first == second
    assert _run_battery() == second
