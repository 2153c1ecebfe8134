"""Holomorphic-filtration spectral sequence: pages, limit, degeneration."""

import json

import pytest

from nilcoh import cli, frolicher
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
from nilcoh.linalg import Subspace


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
