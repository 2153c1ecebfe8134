"""The five cohomology theories and the pure/full stage analysis."""

import ast
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from nilcoh import cli, cohomology, linalg
from nilcoh.catalog import catalog, get
from nilcoh.cohomology import (
    THEORIES,
    betti,
    degrees,
    group,
    hodge_table,
    invariant_level_banner,
    pure_full,
)
from nilcoh.dsl import parse, parse_gauss
from nilcoh.exterior import BigradedElement
from nilcoh.scalar import ScalarExpr
from conftest import n6_ops_for
from reference import NotInNumerator, class_in_pure_sum, class_is_trivial, gen


def g(i):
    return gen(i)


def gb(i):
    return gen(i, barred=True)


def test_torus4_tables_are_binomial(ops):
    cache = ops("torus4")
    square = [(p, q) for p in range(5) for q in range(5)]
    for theory in THEORIES:
        # a table spans the degrees of its theory, in their order
        assert list(hodge_table(cache, theory)) == degrees(theory, 4) == (
            list(range(9)) if theory == "de_rham" else square)
    for theory in THEORIES[1:]:
        tab = hodge_table(cache, theory)
        assert tab == {
            (p, q): comb(4, p) * comb(4, q) for p in range(5) for q in range(5)
        }
    assert [betti(cache, k) for k in range(9)] == [comb(8, k) for k in range(9)]
    assert list(hodge_table(cache, "de_rham").values()) == [betti(cache, k) for k in range(9)]


IWASAWA_TABLES = {
    # frozen from the engine; consistent with the classical values for this
    # threefold and with the internal symmetries checked further down
    "dolbeault": "1 2 2 1 / 3 6 6 3 / 3 6 6 3 / 1 2 2 1",
    "del": "1 3 3 1 / 2 6 6 2 / 2 6 6 2 / 1 3 3 1",
    "bott_chern": "1 2 3 1 / 2 4 6 2 / 3 6 8 3 / 1 2 3 1",
    "aeppli": "1 3 2 1 / 3 8 6 3 / 2 6 4 2 / 1 3 2 1",
}


def _parse_table(text, n):
    rows = [r.split() for r in text.split("/")]
    return {(p, q): int(rows[p][q]) for p in range(n + 1) for q in range(n + 1)}


def test_iwasawa_hodge_tables_frozen(ops):
    cache = ops("iwasawa")
    for theory, text in IWASAWA_TABLES.items():
        assert hodge_table(cache, theory) == _parse_table(text, 3), theory
    assert [betti(cache, k) for k in range(7)] == [1, 4, 8, 10, 8, 4, 1]


def test_conjugation_symmetries(ops):
    for name, assign in [("iwasawa", {}), ("example31", {"t": "1/2"})]:
        cache = ops(name, **assign)
        n = cache.n
        bc = hodge_table(cache, "bott_chern")
        ae = hodge_table(cache, "aeppli")
        dol = hodge_table(cache, "dolbeault")
        dl = hodge_table(cache, "del")
        for p in range(n + 1):
            for q in range(n + 1):
                assert bc[(p, q)] == bc[(q, p)]
                assert ae[(p, q)] == ae[(q, p)]
                assert dol[(p, q)] == dl[(q, p)]
                # duality between the two mixed-operator theories
                assert ae[(p, q)] == bc[(n - q, n - p)]


def _angella_tomassini_defects(tables):
    """The bidegrees where h_BC + h_A < h_delbar + h_del: the inequality holds
    in every bidegree of a bounded double complex (Angella-Tomassini,
    Invent. Math. 192, 2013, Thm A)."""
    bc, ae, dol, dl = (tables[t] for t in ("bott_chern", "aeppli", "dolbeault", "del"))
    return [c for c in sorted(bc) if bc[c] + ae[c] < dol[c] + dl[c]]


# the n = 6 structure files: Iwasawa x Iwasawa and the complex torus T^6
N6 = ("data/iwasawa_x_iwasawa.txt", "data/torus6.txt")


def _cache(ops, name, **assign):
    """The operator cache of a catalog entry, or of an n = 6 file."""
    return n6_ops_for(name) if name in N6 else ops(name, **assign)


@pytest.mark.parametrize("name, assign", [(e.name, {}) for e in catalog() if not e.spec.params]
                         + [("example31", {"t": "1/2"})] + [(path, {}) for path in N6])
def test_angella_tomassini_inequality_in_every_bidegree(ops, name, assign):
    cache = _cache(ops, name, **assign)
    tables = {t: hodge_table(cache, t) for t in ("bott_chern", "aeppli", "dolbeault", "del")}
    assert _angella_tomassini_defects(tables) == []
    # one Bott-Chern number lowered past the slack at (1,1): the check sees it
    at = {t: table[(1, 1)] for t, table in tables.items()}
    tables["bott_chern"] = {**tables["bott_chern"],
                            (1, 1): at["dolbeault"] + at["del"] - at["aeppli"] - 1}
    assert _angella_tomassini_defects(tables) == [(1, 1)]


TORI = ("torus2", "torus3", "torus4")


def _degree_sums(tables, n):
    """Per total degree k: the sums over p+q=k of h_BC + h_A and of h_delbar."""
    bc, ae, dol = (tables[t] for t in ("bott_chern", "aeppli", "dolbeault"))
    sums = []
    for k in range(2 * n + 1):
        cells = [(p, k - p) for p in range(n + 1) if 0 <= k - p <= n]
        sums.append((sum(bc[c] + ae[c] for c in cells), sum(dol[c] for c in cells)))
    return sums


def _theorem_b_defects(tables, betti_numbers):
    """The (degree, sum) pairs where sum_{p+q=k}(h_BC + h_A) != 2 b_k or
    sum_{p+q=k} h_delbar != b_k.  Under the del-delbar-lemma, which holds on
    a complex torus, there are none (Angella-Tomassini, Invent. Math. 192,
    2013, Thm B)."""
    n = (len(betti_numbers) - 1) // 2
    defects = []
    for k, (bc_ae, dol) in enumerate(_degree_sums(tables, n)):
        if bc_ae != 2 * betti_numbers[k]:
            defects.append((k, "bott_chern+aeppli"))
        if dol != betti_numbers[k]:
            defects.append((k, "dolbeault"))
    return defects


def _tables(cache):
    return {t: hodge_table(cache, t) for t in ("bott_chern", "aeppli", "dolbeault")}


@pytest.mark.parametrize("name", TORI + ("data/torus6.txt",))
def test_angella_tomassini_equality_on_the_tori(ops, name):
    cache = _cache(ops, name)
    tables = _tables(cache)
    b = [betti(cache, k) for k in range(2 * cache.n + 1)]
    assert _theorem_b_defects(tables, b) == []
    if name == "data/torus6.txt":
        assert (_degree_sums(tables, 6)[1][0], 2 * b[1]) == (24, 24)
    # one Aeppli number raised at (1,0) and one Dolbeault number lowered at
    # (0,2): each equality sees its own
    tables["aeppli"] = {**tables["aeppli"], (1, 0): tables["aeppli"][(1, 0)] + 1}
    tables["dolbeault"] = {**tables["dolbeault"], (0, 2): tables["dolbeault"][(0, 2)] - 1}
    assert _theorem_b_defects(tables, b) == [(1, "bott_chern+aeppli"), (2, "dolbeault")]


@pytest.mark.parametrize("name", [e.name for e in catalog()
                                  if not e.spec.params and e.name not in TORI]
                         + ["data/iwasawa_x_iwasawa.txt"])
def test_angella_tomassini_inequality_is_strict_in_degree_one_off_the_tori(ops, name):
    # every other parameter-free entry (the nilmanifolds and the Nakamura
    # solvmanifold product) and Iwasawa x Iwasawa fail the del-delbar-lemma
    # already in degree 1; that is a property of these structures, not of
    # every nilmanifold
    cache = _cache(ops, name)
    tables = _tables(cache)
    b1 = betti(cache, 1)

    def strict(tables):
        return _degree_sums(tables, cache.n)[1][0] > 2 * b1

    assert strict(tables)
    if name == "iwasawa":
        assert (_degree_sums(tables, 3)[1][0], 2 * b1) == (10, 8)
    if name == "data/iwasawa_x_iwasawa.txt":
        assert (_degree_sums(tables, 6)[1][0], 2 * b1) == (20, 16)
    # Bott-Chern numbers in degree 1 lowered to equality: the check fails
    excess = _degree_sums(tables, cache.n)[1][0] - 2 * b1
    tables["bott_chern"] = {**tables["bott_chern"],
                            (1, 0): tables["bott_chern"][(1, 0)] - excess}
    assert not strict(tables)


def test_example31_bott_chern_20_goldens(ops):
    g0 = cohomology.bott_chern(ops("example31"), 2, 0)
    assert g0.dim == 4
    assert [str(r) for r in g0.reps] == ["f1^f2", "f1^f3", "f1^f4", "f2^f4"]
    g1 = cohomology.bott_chern(ops("example31", t="1/2"), 2, 0)
    assert g1.dim == 3
    assert [str(r) for r in g1.reps] == ["f1^f2", "f1^f3", "f1^f4"]


def test_group_dispatcher_and_as_dict(ops):
    cache = ops("torus4")
    grp = group(cache, "bott_chern", (2, 0))
    assert grp.as_dict() == {
        "theory": "bott_chern",
        "degree": [2, 0],
        "dim": 6,
        "representatives": ["f1^f2", "f1^f3", "f1^f4", "f2^f3", "f2^f4", "f3^f4"],
    }
    gdr = group(cache, "de_rham", 1)
    assert gdr.as_dict()["degree"] == 1 and gdr.dim == 8
    for degree in ((1, 0), 1):
        with pytest.raises(ValueError, match="unknown theory"):
            group(cache, "hodge", degree)
    with pytest.raises(ValueError, match="total degree"):
        group(cache, "de_rham", (1, 0))
    for theory, degree in (("bott_chern", 2), ("dolbeault", (1, 2, 3)), ("del", "1,1")):
        with pytest.raises(ValueError, match=f"{theory} cohomology takes a bidegree"):
            group(cache, theory, degree)


def test_class_is_trivial_certificates(ops):
    cache = ops("example31")
    exact = g(1).wedge(gb(1))
    ok, primitive = class_is_trivial(cache, "de_rham", exact)
    assert ok and str(primitive) == "f3"
    assert (cache.spec.d(primitive) - exact).is_zero()
    ok2, residue = class_is_trivial(cache, "de_rham", BigradedElement.one())
    assert not ok2 and str(residue) == "1"


def test_class_is_trivial_aeppli_pair_certificate(ops):
    cache = ops("example31")
    element = g(1).wedge(gb(1))
    ok, cert = class_is_trivial(cache, "aeppli", element)
    assert ok and isinstance(cert, tuple) and len(cert) == 2
    a, b = cert
    assert set(a.bidegrees()) <= {(0, 1)}
    assert set(b.bidegrees()) <= {(1, 0)}
    recombined = cache.spec.d(a).project(1, 1) + cache.spec.d(b).project(1, 1)
    assert (recombined - element).is_zero()


def test_class_is_trivial_rejects_forms_outside_numerator(ops):
    cache = ops("example31")
    with pytest.raises(NotInNumerator, match="not d-closed"):
        class_is_trivial(cache, "de_rham", g(3))
    with pytest.raises(NotInNumerator, match="not delbar-closed"):
        class_is_trivial(cache, "dolbeault", g(3))
    with pytest.raises(NotInNumerator, match="mixed total degree"):
        class_is_trivial(cache, "de_rham", g(1) + g(1).wedge(g(2)))
    with pytest.raises(NotInNumerator, match="pure bidegree"):
        class_is_trivial(cache, "dolbeault", g(1).wedge(g(2)) + g(1).wedge(gb(2)))


def test_pure_full_example31_at_half(ops):
    rep = pure_full(ops("example31", t="1/2"), 2)
    d = rep.as_dict()
    assert d["betti"] == 15
    assert d["pure_type_subgroup_dims"] == {"(0,2)": 3, "(1,1)": 7, "(2,0)": 3}
    assert d["sum_dim"] == 11
    assert d["pure"] is True
    assert d["full"] is False
    assert d["pure_and_full"] is False


def test_pure_full_witness_outside_sum_example31_at_half(ops):
    cache = ops("example31", t="1/2")
    # closed 2-form whose class escapes the sum of the pure-type subgroups
    w = (
        g(2).wedge(g(3))
        + g(4).wedge(gb(1)).scale(ScalarExpr.const(parse_gauss("-3/4")))
        + gb(2).wedge(gb(3)).scale(ScalarExpr.const(parse_gauss("1/2")))
    )
    assert not class_in_pure_sum(cache, 2, w)
    # ...while genuinely pure classes land inside
    assert class_in_pure_sum(cache, 2, g(1).wedge(g(2)))


def test_pure_full_section42_at_half(ops):
    rep = pure_full(ops("section42_example", t="1/2"), 2)
    assert rep.full is True
    assert rep.pure is False


def test_torus_pure_and_full_everywhere(ops):
    cache = ops("torus4")
    for k in range(9):
        rep = pure_full(cache, k)
        assert rep.pure and rep.full, k
        assert rep.sum_dim == rep.betti


def test_singleton_stages_flagged(ops):
    cache = ops("torus4")
    for k in (0, 8):
        d = pure_full(cache, k).as_dict()
        assert d["single_group_stage"] is True
        assert d["pure_and_full"] is True


def test_invariant_level_banner_three_ways():
    assert invariant_level_banner(get("torus4").spec) == (
        "invariant computation; the input declares it equal to the "
        "cohomology of the compact quotient"
    )
    assert invariant_level_banner(get("nakamura_x_torus").spec) == (
        "invariant (Lie-algebra level) computation; the input declares the "
        "identification with a compact quotient NOT established"
    )
    bare = parse('algebra "x" dim 2')
    assert invariant_level_banner(bare) == (
        "invariant (Lie-algebra level) computation; the input does not "
        "say whether it equals the cohomology of a compact quotient"
    )


def test_exactness_invariants_survive_optimize_flag():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from nilcoh import catalog, frolicher\n"
        "from reference import complex_form_to_real, mono\n"
        "from nilcoh.cohomology import betti, de_rham\n"
        "from nilcoh.deform import DeformationFamily\n"
        "from nilcoh.exterior import BigradedElement\n"
        "from nilcoh.linalg import ONE, InternalError, OperatorCache, Subspace\n"
        "from nilcoh.scalar import S_ONE, S_ZERO, ScalarExpr\n"
        "den = Subspace.span(2, [{0: ONE}])\n"
        "iwasawa = catalog.get('iwasawa').spec\n"
        "bad = OperatorCache(iwasawa)\n"
        "# d f1 gains a 2-form that is not closed: d.d != 0 from Lambda^1\n"
        "d1, d2 = iwasawa.d_rows(1), iwasawa.d_rows(2)\n"
        "d1[min(j for row in d2 for j in row)][0] = ONE\n"
        "torus = catalog.get('torus2').spec\n"
        "ops = OperatorCache(torus)\n"
        "B = [[S_ZERO] * 2 for _ in range(2)]\n"
        "t = ScalarExpr.param('t')\n"
        "print(sys.flags.optimize)\n"
        "for check in (lambda: betti(bad, 2),\n"
        "              lambda: de_rham(bad, 2).as_dict(),\n"
        "              lambda: den.add(Subspace(3)),\n"
        "              lambda: den.intersect(Subspace(3)),\n"
        "              lambda: ScalarExpr.param('t').const_value(),\n"
        "              lambda: complex_form_to_real(\n"
        "                  BigradedElement({mono((1, 2), ()): S_ONE}), 2),\n"
        "              lambda: DeformationFamily('f', torus, (), B[:1]),\n"
        "              lambda: DeformationFamily('f', torus, (), [r[:1] for r in B]),\n"
        "              lambda: DeformationFamily('f', torus, ('t',), B,\n"
        "                  omega=BigradedElement({mono((1, 2), ()): t})),\n"
        "              lambda: DeformationFamily('f', torus, (), B,\n"
        "                  omega=BigradedElement({mono((1,), (1,)): S_ONE})),\n"
        "              lambda: DeformationFamily('f', catalog.get('iwasawa_x_torus').spec, (),\n"
        "                  [[S_ZERO] * 4] * 4),\n"
        "              lambda: OperatorCache(catalog.get('iwasawa_x_torus').spec),\n"
        "              lambda: frolicher.spectral_page(ops, 0),\n"
        "              lambda: catalog.CatalogEntry('x', 'no summary', spec=torus)):\n"
        "    try:\n"
        "        check()\n"
        "    except InternalError as e:\n"
        "        print(e)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "1\n"
        "d.d is not zero on Lambda^1\n"
        "d.d is not zero on Lambda^1\n"
        "ambient mismatch: Q(i)^2 and Q(i)^3\n"
        "ambient mismatch: Q(i)^2 and Q(i)^3\n"
        "const_value of a scalar in t\n"
        "non-real structure constant i at e^(1, 4)\n"
        "the Beltrami matrix of 'f' must be 2 x 2\n"
        "the Beltrami matrix of 'f' must be 2 x 2\n"
        "the distinguished form must be a parameter-free (2,0)-form\n"
        "the distinguished form must be a parameter-free (2,0)-form\n"
        "the base structure of 'f' must be parameter-free\n"
        "operator matrices need a fully assigned structure\n"
        "spectral sequence pages start at 1, not 0\n"
        "catalog entry 'x' holds structure 'torus2'\n"
    )


def test_no_assert_statement_in_the_package():
    """python -O strips assert statements: every invariant in nilcoh is an
    explicit raise."""
    src = Path(cohomology.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_leaves_the_bytecode_setting_alone():
    """Start-up gains come from importing less: no module changes where or
    whether bytecode is written, and no compiled file is tracked."""
    src = Path(cohomology.__file__).parent
    names = ("dont_write_bytecode", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    found = [
        f"{path.name}: {name}"
        for path in sorted(src.glob("*.py"))
        for name in names
        if name in path.read_text()
    ]
    assert found == []
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    proc = subprocess.run(["git", "ls-files", "*.pyc"], cwd=src.parents[1],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    assert proc.stdout == ""


@pytest.fixture
def rep_calls(monkeypatch):
    """quotient_representatives calls, counted in every module that binds it."""
    calls = []
    orig = linalg.quotient_representatives

    def counting(vectors, den):
        calls.append(den)
        return orig(vectors, den)

    for module in (linalg, cohomology):
        monkeypatch.setattr(module, "quotient_representatives", counting)
    return calls


@pytest.mark.parametrize("name, assign", [(e.name, {}) for e in catalog() if not e.spec.params]
                         + [("example31", {"t": "1/2"})])
def test_rank_dimension_equals_the_number_of_representatives(ops, name, assign):
    """The two routes to a dimension agree on every group: rank arithmetic
    on the images (dim, what the tables print) and the greedy quotient
    representatives (what a printed group counts)."""
    cache = ops(name, **assign)
    for theory in THEORIES:
        for degree in degrees(theory, cache.n):
            assert group(cache, theory, degree).dim == len(group(cache, theory, degree).reps), (
                theory, degree)


def test_dimension_tables_compute_no_representatives(ops, rep_calls, monkeypatch):
    # nor any kernel subspace: a table dimension is rank arithmetic on images
    kernels = []
    orig = linalg.OperatorCache.kernel

    def counting(self, op, key):
        kernels.append((op, key))
        return orig(self, op, key)

    monkeypatch.setattr(linalg.OperatorCache, "kernel", counting)
    cache = ops("iwasawa")
    for theory in THEORIES[1:]:
        hodge_table(cache, theory)
    for k in range(2 * cache.n + 1):
        betti(cache, k)
    assert rep_calls == []
    assert kernels == []
    # representatives are still there for whoever reads them
    assert [str(r) for r in group(cache, "de_rham", 1).reps] == ["f1", "f2", "F1", "F2"]
    assert len(rep_calls) == 1
    assert kernels == [("d", 1)]


def test_stability_verdicts_compute_no_pure_type_representatives(ops, rep_calls, capsys):
    assert cli.main(["hypotheses", "@example31"]) == 0
    assert '"full_at_stage_2"' in capsys.readouterr().out
    assert rep_calls == []
    # one call per pure-type cell once the representatives are read
    report = pure_full(ops("iwasawa"), 1)
    assert rep_calls == []
    assert {c: [str(r) for r in reps] for c, reps in report.group_reps.items()} == {
        (1, 0): ["f1", "f2"],
        (0, 1): ["F1", "F2"],
    }
    assert len(rep_calls) == 2


def test_stability_verdicts_compute_no_pairwise_intersections(ops, rep_calls, monkeypatch,
                                                               capsys):
    calls = []
    orig = linalg.Subspace.intersect

    def counting(self, other):
        calls.append(other)
        return orig(self, other)

    monkeypatch.setattr(linalg.Subspace, "intersect", counting)
    assert cli.main(["hypotheses", "@example31"]) == 0
    assert '"full_at_stage_2"' in capsys.readouterr().out
    # four default samples, two intersections each for the stage-2 verdict
    assert len(calls) == 8
    report = pure_full(ops("iwasawa"), 2)
    calls.clear()
    assert report.pairwise == {((2, 0), (1, 1)): 0, ((2, 0), (0, 2)): 0, ((1, 1), (0, 2)): 0}
    assert len(calls) == 3
    report.as_dict()
    assert len(calls) == 3
    # as_dict read both lazy parts, one representative call per cell;
    # reading them again repeats no work
    assert len(rep_calls) == 3
    report.pairwise, report.group_reps
    assert len(calls) == 3 and len(rep_calls) == 3
