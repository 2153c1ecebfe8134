"""Holomorphic-filtration spectral sequence: pages, limit, degeneration."""

import contextlib
import hashlib
import io
import json
from functools import cache
from pathlib import Path

import pytest

from nilcoh import cli, frolicher
from nilcoh.catalog import catalog
from nilcoh.cohomology import betti, hodge_table
from nilcoh.frolicher import (
    betti_numbers,
    degeneration_page,
    e_infinity,
    spectral_cell,
    spectral_page,
    x_space,
    y_space,
)
from nilcoh.gauss import ONE
from nilcoh.linalg import Subspace, assemble_block_rows, kernel_basis, mat_mul, transpose


def test_zero_two_tower_dims(ops):
    cache = ops("frolicher_example")
    dims = [spectral_cell(cache, r, 0, 2)["dim"] for r in (1, 2, 3, 4)]
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
    for r in (1, 2, 3, 4):
        assert y_space(cache, r, 0, 2).dim == 0
    assert [x_space(cache, r, 0, 2).dim for r in (1, 2, 3, 4)] == [6, 4, 3, 3]


def test_first_page_is_dolbeault(ops):
    for name in ("iwasawa", "frolicher_example", "torus3"):
        cache = ops(name)
        assert spectral_page(cache, 1).dims == hodge_table(cache, "dolbeault")


def test_page_dims_never_increase(ops):
    cache = ops("iwasawa")
    pages = [spectral_page(cache, r).dims for r in (1, 2, 3, 4)]
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
    r, cert = degeneration_page(ops("frolicher_example"))
    assert r == 3
    assert cert["page_totals"] == cert["betti"]
    assert cert["betti"] == betti_numbers(ops("frolicher_example"))


def test_page_equals_limit_once_degenerate(ops):
    cache = ops("frolicher_example")
    r, cert = degeneration_page(cache)
    page = spectral_page(cache, r)
    assert page.dims == cert["e_infinity"]
    assert spectral_page(cache, r + 1).dims == page.dims


def test_spectral_page_report_shape(ops):
    page = spectral_page(ops("torus2"), 2)
    d = page.as_dict()
    assert d["r"] == 2
    assert d["dims"]["(1,1)"] == 4
    assert sorted(d["dims"]) == sorted(
        f"({p},{q})" for p in range(3) for q in range(3)
    )
    assert page.total(2) == 6


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


# ---------------------------------------------------------------------------
# reference: the zig-zag systems of the module docstring, stacked from the
# del and delbar blocks


def _zigzag_x(ops, r, p, q):
    blocks = [ops.dims((p + j, q - j)) for j in range(r)]
    rows = [{0: ops.delbar_pq(p, q)}] + [
        {j - 1: ops.del_pq(p + j - 1, q - j + 1), j: ops.delbar_pq(p + j, q - j)}
        for j in range(1, r)
    ]
    ker = kernel_basis(assemble_block_rows(blocks, rows), sum(blocks))
    # a_0 is the first unknown block
    return Subspace.span(blocks[0], [{j: x for j, x in v.items() if j < blocks[0]}
                                     for v in ker])


def _zigzag_y(ops, r, p, q):
    if r == 1:
        return ops.image("delbar", (p, q - 1))
    blocks = [ops.dims((p - r + 1 + j, q + r - 2 - j)) for j in range(r)]
    rows = [{0: ops.delbar_pq(p - r + 1, q + r - 2)}] + [
        {j - 1: ops.del_pq(p - r + j, q + r - 1 - j),
         j: ops.delbar_pq(p - r + 1 + j, q + r - 2 - j)}
        for j in range(1, r - 1)
    ]
    ker = kernel_basis(assemble_block_rows(blocks, rows), sum(blocks))
    out = assemble_block_rows(
        blocks, [{r - 2: ops.del_pq(p - 1, q), r - 1: ops.delbar_pq(p, q - 1)}])
    return Subspace.span(len(out), mat_mul(ker, transpose(out, sum(blocks))))


_PARAMETER_FREE = [e.name for e in catalog() if not e.spec.params]


@pytest.mark.parametrize("name, assign", [(name, {}) for name in _PARAMETER_FREE]
                         + [("example31", {"t": "1/2"})])
def test_spaces_match_zigzag_systems(ops, name, assign):
    cache = ops(name, **assign)
    n = cache.n
    for r in range(1, n + 3):
        for p in range(n + 1):
            for q in range(n + 1):
                assert x_space(cache, r, p, q) == _zigzag_x(cache, r, p, q), (r, p, q)
                assert y_space(cache, r, p, q) == _zigzag_y(cache, r, p, q), (r, p, q)


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


@cache
def _stdout(*argv):
    """(exit code, stdout) of one command, run from the tests directory so
    that a structure file is named by its relative path in the report."""
    out = io.StringIO()
    with contextlib.chdir(_TESTS), contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
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


def _euler_defects(report):
    """The Euler characteristic identities a frolicher report breaks: every
    page and the limit page have sum (-1)^(p+q) dim E^{p,q} equal to the
    alternating sum of the Betti numbers (each page is the cohomology of the
    one before, under a differential of total degree 1), and each row of
    E_1, the Dolbeault cohomology of Lambda^{p,*}, has alternating sum
    sum_q (-1)^q C(n,p) C(n,q) = 0."""
    res = report["results"]
    chi = sum((-1) ** int(k) * b for k, b in res["betti"].items())

    def cells(table):
        return [(*map(int, key.strip("()").split(",")), d) for key, d in table.items()]

    defects = [name for name, table in [*res["pages"].items(), ("inf", res["e_infinity"])]
               if sum((-1) ** (p + q) * d for p, q, d in cells(table)) != chi]
    rows = {}
    for p, q, d in cells(res["pages"]["1"]):
        rows[p] = rows.get(p, 0) + (-1) ** q * d
    return defects + [f"row {p}" for p, total in sorted(rows.items()) if total]


@pytest.mark.parametrize("target", _PARAMETER_FREE + _N6)
def test_pages_obey_the_euler_characteristic(target):
    rc, out = _stdout(*_pages_argv(target))
    assert rc == 0
    report = json.loads(out)
    n = max(int(p) for p in report["results"]["betti"]) // 2
    assert {str(r) for r in range(1, n + 2)} <= set(report["results"]["pages"])
    assert _euler_defects(report) == []
    # one cell off by one on E_1 and one on the limit page: both identities see it
    report["results"]["pages"]["1"]["(1,0)"] += 1
    report["results"]["e_infinity"]["(0,0)"] -= 1
    assert _euler_defects(report) == ["1", "inf", "row 1"]
