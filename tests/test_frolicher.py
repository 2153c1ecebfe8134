"""Holomorphic-filtration spectral sequence: pages, limit, degeneration."""

import contextlib
import hashlib
import io
import json
import os
import re
from functools import cache
from pathlib import Path

import pytest

from conftest import n6_ops_for
from reference import quotient_dim
from zigzag import spectral_cell, zigzag_x, zigzag_y
from nilcoh import cli, frolicher, linalg
from nilcoh.catalog import catalog, get
from nilcoh.cohomology import betti, hodge_table
from nilcoh.frolicher import degeneration_page, e_infinity, spectral_page
from nilcoh.gauss import ONE
from nilcoh.linalg import InternalError, OperatorCache, Subspace


def test_zero_two_tower_dims(ops):
    cache = ops("frolicher_example")
    dims = [spectral_page(cache, r)[(0, 2)] for r in (1, 2, 3, 4)]
    assert dims == [6, 4, 3, 3]


def test_zero_two_tower_representatives(ops):
    cache = ops("frolicher_example")
    cell2 = spectral_cell(cache, 2, 0, 2)
    assert [str(r) for r in cell2["representatives"]] == [
        "F1^F2",
        "F1^F3",
        "F1^F4",
        "F2^F3",
    ]
    cell3 = spectral_cell(cache, 3, 0, 2)
    assert [str(r) for r in cell3["representatives"]] == [
        "F1^F2",
        "F1^F3",
        "F1^F4-F2^F3",
    ]
    # at (0,2) nothing ever bounds: the entire tower is carried by cycles
    cells = [spectral_cell(cache, r, 0, 2) for r in (1, 2, 3, 4)]
    assert [c["boundaries"].dim for c in cells] == [0, 0, 0, 0]
    assert [c["cycles"].dim for c in cells] == [6, 4, 3, 3]


def test_first_page_is_dolbeault(ops):
    for name in ("iwasawa", "frolicher_example", "torus3"):
        cache = ops(name)
        assert spectral_page(cache, 1) == hodge_table(cache, "dolbeault")


def test_page_dims_never_increase(ops):
    cache = ops("iwasawa")
    pages = [spectral_page(cache, r) for r in (1, 2, 3, 4)]
    for earlier, later in zip(pages, pages[1:]):
        for cell, d in later.items():
            assert d <= earlier[cell], cell


def test_limit_totals_are_betti_numbers(ops):
    for name in ("iwasawa", "frolicher_example"):
        cache = ops(name)
        lim = e_infinity(cache)
        n = cache.n
        for k in range(2 * n + 1):
            total = sum(d for (p, q), d in lim.items() if p + q == k)
            assert total == betti(cache, k), (name, k)


def test_degeneration_pages(ops):
    assert degeneration_page(ops("torus4"))[0] == 1
    assert degeneration_page(ops("iwasawa"))[0] == 2
    cache = ops("frolicher_example")
    r, cert = degeneration_page(cache)
    assert r == 3
    assert len(cert["pages"]) == r
    assert cert["betti"] == {k: betti(cache, k) for k in range(2 * cache.n + 1)}


def test_page_equals_limit_once_degenerate(ops):
    caches = [ops(name) for name in _PARAMETER_FREE] + [n6_ops_for(path) for path in _N6]
    for cache in caches:
        r, cert = degeneration_page(cache)
        for s in range(r, cli.MAX_PAGE + 1):
            assert spectral_page(cache, s) == cert["e_infinity"], (cache.spec.name, s)


# d = 0 on the torus, so every entry of its pivot tables is empty; each
# corruption below makes one check of degeneration_page fire: rows of
# degree 0 of full rank on Lambda^1 drive page 1 at (0,2) to -3; a pivot at
# the 0-form in the rows of degree 0 alone (c = 1) empties (0,0) on page 1,
# and page 2 gains it back; a pivot at a (1,0) column in the same rows moves
# a class from (0,2) to (1,1) on page 1, whose totals still meet the Betti
# numbers
@pytest.mark.parametrize("k, c, pivots, error", [
    (1, 1, (0, 1, 2, 3), "page 1 cell (0, 2) has dimension -3"),
    (0, 1, (0,), "page 2 cell (0, 0) grows from 0"),
    (1, 1, (0,), "page 1 meets the Betti numbers but not the limit page"),
])
def test_degeneration_page_fails_closed_on_a_corrupt_pivot_table(monkeypatch, k, c, pivots,
                                                                 error):
    cache = OperatorCache(get("torus2").spec)
    assert all(cache.filtered_pivots(j) == [()] * 4 for j in range(5))
    real = cache.filtered_pivots

    def corrupt(j):
        table = list(real(j))
        if j == k:
            table[c] = pivots
        return table

    monkeypatch.setattr(cache, "filtered_pivots", corrupt)
    with pytest.raises(InternalError, match=re.escape(error)):
        degeneration_page(cache)


def test_pages_come_from_one_pivot_table_per_degree(ops, monkeypatch):
    """Every page through cli.MAX_PAGE is a formula over the pivot tables:
    one echelon state per degree, n+1 row blocks fed into it, and no
    kernel, span, sum, intersection or RREF."""
    cache = OperatorCache(get("frolicher_example").spec)
    extends = []
    real = linalg.Subspace.extend
    monkeypatch.setattr(linalg.Subspace, "extend",
                        lambda *a: extends.append(1) or real(*a))
    for name in ("rref", "kernel_basis"):
        monkeypatch.setattr(linalg, name, None)
    for name in ("span", "add", "intersect"):
        monkeypatch.setattr(linalg.Subspace, name, None)
    pages = [spectral_page(cache, r) for r in range(1, cli.MAX_PAGE + 1)]
    monkeypatch.undo()
    assert len(extends) == (2 * cache.n + 1) * (cache.n + 1)
    assert pages == [spectral_page(ops("frolicher_example"), r)
                     for r in range(1, cli.MAX_PAGE + 1)]


def test_spectral_page_report_shape(ops, capsys):
    page = spectral_page(ops("torus2"), 2)
    assert sorted(page) == [(p, q) for p in range(3) for q in range(3)]
    assert page[(1, 1)] == 4
    assert sum(d for (p, q), d in page.items() if p + q == 2) == 6
    assert cli.main(["frolicher", "@torus2", "--max-page", "2"]) == 0
    pages = json.loads(capsys.readouterr().out)["results"]["pages"]
    assert pages["2"] == {f"({p},{q})": d for (p, q), d in sorted(page.items())}


def test_frolicher_command_builds_each_printed_page_once(monkeypatch, capsys):
    built = []
    orig = frolicher.spectral_page

    def counting(ops, r):
        built.append(r)
        return orig(ops, r)

    monkeypatch.setattr(frolicher, "spectral_page", counting)
    assert cli.main(["frolicher", "@frolicher_example"]) == 0
    pages = json.loads(capsys.readouterr().out)["results"]["pages"]
    assert list(pages) == ["1", "2", "3"]
    assert built == [1, 2, 3]


def _e_infinity_by_intersection(ops):
    """The limit dims with F^p cap ker d formed by Subspace.intersect."""
    n = ops.n
    dims = {}
    for k in range(2 * n + 1):
        amb = ops.dims(k)
        ker = ops.kernel("d", k)
        img = ops.image("d", k - 1)

        def graded(width):
            prefix = Subspace.span(amb, [{j: ONE} for j in range(width)])
            return prefix.intersect(ker).add(img).dim

        width = 0
        for p in range(min(k, n), -1, -1):
            if 0 <= k - p <= n:
                below = graded(width)
                width += ops.dims((p, k - p))
                dims[(p, k - p)] = graded(width) - below
    return dims


@pytest.mark.parametrize(
    "name", ["iwasawa", "frolicher_example", "torus3", "nakamura_x_torus"]
)
def test_e_infinity_matches_intersection_route(ops, name):
    cache = ops(name)
    assert e_infinity(cache) == _e_infinity_by_intersection(cache)


_PARAMETER_FREE = [e.name for e in catalog() if not e.spec.params]


@pytest.mark.parametrize("name, assign", [(name, {}) for name in _PARAMETER_FREE]
                         + [("example31", {"t": "1/2"})])
def test_spaces_match_zigzag_systems(ops, name, assign):
    """Every cell of pages 1..n+2 from the pivot counts equals dim X_r/Y_r
    of the zig-zag systems (tests/zigzag.py)."""
    cache = ops(name, **assign)
    n = cache.n
    for r in range(1, n + 3):
        page = spectral_page(cache, r)
        for p in range(n + 1):
            for q in range(n + 1):
                ref = quotient_dim(zigzag_x(cache, r, p, q), zigzag_y(cache, r, p, q))
                assert page[(p, q)] == ref, (r, p, q)


# sha256 of the `frolicher --max-page 6` stdout: a change to how the pages
# are computed leaves every page table byte-identical
_PAGES_SHA256 = {
    "torus2": "4d973706537f955abbb6260723e27054c9bf1e3e7991f9768ee4496ef2925df1",
    "torus3": "d1f2791d362c8f0fac32daac6affbc04e19f09d773bb985e45b5e976fdf54922",
    "torus4": "28a99e78a4c612bf733ae8f1ebe636848c771d69bbcd01b7c91135670e3bdac4",
    "iwasawa": "7baa28647d1432258689a068d93a451e14b1049089483a4f0414d5d6ab6e6dc3",
    "example31": "59d53d40370cc23fe1da4d83cbfeb603a01da28c55dc47b94fb432b21babaa1b",
    "example45": "2c79ed676e2c7c2e69952090010a116a6fbf8e7094f0575a2a03c87cffc0ace9",
    "nakamura_x_torus": "9f9d22153e7753d6cf4304978be7eeb34c3f19c93ad05d55f107f62d3c9e8ff7",
    "theorem51_family": "f7b3ad2a2a32894dbcb0a2d63bc9dffaf88016821b832b857da9a7bdef53c7a8",
    "section42_example": "157b1e2335fb16f14a5b58ebd0fe0e03ccfe797e99291cd738e6930520303f71",
    "frolicher_example": "988c416ba7f91fcb7b6cd8d7d7b86ae07cce97f7194d7074a958823230e5ef39",
    "example31 --assign t=1/2":
        "d6dec9c054fd2d79b8d0a7058e7dffa8556fc36984406abe03ceeec4141b0dae",
}

# n = 6, from the structure files in tests/data run from the tests directory:
# sha256 of the `frolicher --max-page 7` and of the `cohomology` stdout
_TESTS = Path(__file__).parent
_N6 = ["data/iwasawa_x_iwasawa.txt", "data/torus6.txt"]
_N6_SHA256 = {
    "frolicher data/iwasawa_x_iwasawa.txt --max-page 7":
        "bf9f601783fa015827753c8bb310e927229f00106b32ca1dc93f3e0731c15043",
    "cohomology data/iwasawa_x_iwasawa.txt":
        "92a29c741f85cffed1acf92f5f30753ca8979939b6ff1530a9abc4ab9ae87f55",
    "frolicher data/torus6.txt --max-page 7":
        "3a3b1dab3d93453bd573682bcce705e46c0436ea647670523839ea024a229a32",
    "cohomology data/torus6.txt":
        "62b6402d10ab0457bb7362a51c08c1e2819ba409f499502616fc384dbd23d4ea",
}
# n = 7, d f3 = f1^f2 on seven generators: the widest elimination of the
# suite (Lambda^7 is 3432-dimensional); pages through n + 1 as above
_N7_SHA256 = {
    "frolicher data/probe7.txt --max-page 8":
        "549e4ddc5c256c6a4900b6ea2ef71884edce33b90263b3ff935057a02aa9ea12",
    "cohomology data/probe7.txt":
        "5a6b95a1c9552197dbf9ccfa97ecc8b2cd40d72b8d354db78352ed9bca267f2c",
}
# n = 8, Iwasawa x Iwasawa x T^2: every table of the widest structure in
# the suite (Lambda^8 is 12870-dimensional), recorded when each dimension
# was a quotient of subspaces, so it holds the rank rule to that route
_N8_SHA256 = {
    "cohomology data/probe8.txt":
        "ab4688784a9959774643082ec38b2d3bcb0f94ae7822d4eb1aee1bafbbd3b49d",
    "frolicher data/probe8.txt --max-page 9":
        "564404e0b35827e609181ae1e0d6ce31331245c856e20f2ec8014a162621d96d",
}


@cache
def _stdout(*argv):
    """(exit code, stdout) of one command, run from the tests directory so
    that a structure file is named by its relative path in the report."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(_TESTS)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return rc, out.getvalue()


def _pages_argv(target):
    """The frolicher command of a golden: pages through n+1 on every target."""
    if target in _N6:
        return ("frolicher", target, "--max-page", "7")
    return ("frolicher", "@" + target.split()[0], *target.split()[1:], "--max-page", "6")


@pytest.mark.parametrize("target", _PARAMETER_FREE + ["example31 --assign t=1/2"])
def test_page_tables_are_pinned(target):
    rc, out = _stdout(*_pages_argv(target))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PAGES_SHA256[target]


@pytest.mark.parametrize("command", list(_N6_SHA256))
def test_six_dimensional_reports_are_pinned(command):
    rc, out = _stdout(*command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _N6_SHA256[command]


@pytest.mark.parametrize("command", list(_N7_SHA256))
def test_seven_dimensional_probe_is_pinned(command):
    rc, out = _stdout(*command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _N7_SHA256[command]


@pytest.mark.parametrize("command", list(_N8_SHA256))
def test_eight_dimensional_probe_is_pinned(command):
    rc, out = _stdout(*command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _N8_SHA256[command]


def _euler_defects(report, dels):
    """The Euler characteristic identities a frolicher report and a del
    table break: every page and the limit page have sum (-1)^(p+q) dim
    E^{p,q} equal to the alternating sum of the Betti numbers (each page is
    the cohomology of the one before, under a differential of total degree
    1), each row of E_1, the Dolbeault cohomology of Lambda^{p,*}, has
    alternating sum sum_q (-1)^q C(n,p) C(n,q) = 0, and so does each column
    sum_p (-1)^p h_del^{p,q} of the del cohomology of Lambda^{*,q}."""
    res = report["results"]
    chi = sum((-1) ** int(k) * b for k, b in res["betti"].items())

    def cells(table):
        return [(*map(int, key.strip("()").split(",")), d) for key, d in table.items()]

    defects = [name for name, table in [*res["pages"].items(), ("inf", res["e_infinity"])]
               if sum((-1) ** (p + q) * d for p, q, d in cells(table)) != chi]
    rows, columns = {}, {}
    for p, q, d in cells(res["pages"]["1"]):
        rows[p] = rows.get(p, 0) + (-1) ** q * d
    for p, q, d in cells(dels):
        columns[q] = columns.get(q, 0) + (-1) ** p * d
    return (defects + [f"row {p}" for p, total in sorted(rows.items()) if total]
            + [f"column {q}" for q, total in sorted(columns.items()) if total])


@pytest.mark.parametrize("target", _PARAMETER_FREE + _N6)
def test_pages_obey_the_euler_characteristic(target):
    rc, out = _stdout(*_pages_argv(target))
    assert rc == 0
    report = json.loads(out)
    n = max(int(p) for p in report["results"]["betti"]) // 2
    assert {str(r) for r in range(1, n + 2)} <= set(report["results"]["pages"])
    rc, out = _stdout("cohomology", target if target in _N6 else "@" + target)
    assert rc == 0
    dels = json.loads(out)["results"]["del"]
    assert _euler_defects(report, dels) == []
    # one cell off by one on E_1, on the limit page and in the del table:
    # each identity sees it
    report["results"]["pages"]["1"]["(1,0)"] += 1
    report["results"]["e_infinity"]["(0,0)"] -= 1
    dels["0,1"] += 1
    assert _euler_defects(report, dels) == ["1", "inf", "row 1", "column 1"]
