"""Künneth identities: an exact reference for the n = 6 and 7 structures.

The invariant complex of a product g_a + g_b is the tensor product of the
factors' double complexes, so over a field the Künneth theorem predicts the
product's tables from the factors' (n <= 4, where the zig-zag reference
checks them): the de Rham, Dolbeault and del dimensions, and every page of
the Frölicher spectral sequence, are the convolutions of the factors'
(McCleary, A User's Guide to Spectral Sequences, 2nd ed., 2001).

Bott-Chern and Aeppli are not checked: their dimensions are not the
convolution of the factors'.  They count the squares and the zigzags of the
double complex (Stelzig, J. London Math. Soc. 104, 2021), and the tensor
product of two zigzags splits into zigzags of other shapes.  The
convolution misses in both directions on Iwasawa x Iwasawa (h_BC^{0,3} is
15 against 14, h_BC^{2,2} is 96 against 98) and on frolicher_example x
Iwasawa; it holds when one factor is a torus, whose differentials vanish.
"""

from functools import cache

import pytest

from conftest import n6_ops_for
from nilcoh.catalog import get
from nilcoh.cohomology import betti, hodge_table
from nilcoh.dsl import parse, pretty
from nilcoh.frolicher import spectral_page
from nilcoh.linalg import OperatorCache
from reference import product

# (first factor, second factor, the structure file the product is, or None)
PAIRS = [
    ("iwasawa", "iwasawa", "data/iwasawa_x_iwasawa.txt"),
    ("torus3", "torus3", "data/torus6.txt"),
    ("iwasawa", "torus4", "data/probe7.txt"),
    ("frolicher_example", "iwasawa", None),
]
PAGES = (1, 2, 3, 4)


def _text(name):
    return pretty(get(name).spec)


@cache
def _ops(a, b, path):
    """The product's operator cache, shared with the pinned file's tests."""
    if path is not None:
        return n6_ops_for(path)
    return OperatorCache(parse(product(_text(a), _text(b))))


def _tables(ops):
    """{name: {degree tuple: dim}} of every table the identities cover."""
    out = {"de_rham": {(k,): betti(ops, k) for k in range(2 * ops.n + 1)}}
    for theory in ("dolbeault", "del"):
        out[theory] = hodge_table(ops, theory)
    for r in PAGES:
        out[f"E{r}"] = spectral_page(ops, r)
    return out


def _convolve(a, b):
    """The table of a tensor product: dims of equal total degree multiply
    and add."""
    out = {}
    for x, u in a.items():
        for y, v in b.items():
            key = tuple(i + j for i, j in zip(x, y))
            out[key] = out.get(key, 0) + u * v
    return out


@pytest.mark.parametrize("a, b, path", [p for p in PAIRS if p[2] is not None])
def test_the_structure_files_are_products(a, b, path):
    spec = _ops(a, b, path).spec
    assert pretty(spec).splitlines()[1:] == product(_text(a), _text(b)).splitlines()[1:]


@pytest.mark.parametrize("a, b, path", PAIRS)
def test_kunneth_tables_and_frolicher_pages(ops, a, b, path):
    first, second = _tables(ops(a)), _tables(ops(b))
    tables = _tables(_ops(a, b, path))
    for name, table in tables.items():
        assert _convolve(first[name], second[name]) == table, name
        # one cell of the first factor's table raised by one: the second
        # has dim 1 in degree 0, so the convolution rises at that cell
        corrupt = dict(first[name])
        cell = max(corrupt)
        corrupt[cell] += 1
        assert _convolve(corrupt, second[name]) != table, name
