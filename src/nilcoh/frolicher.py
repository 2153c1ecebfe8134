"""Holomorphic-filtration (Frolicher) spectral sequence from pivot counts.

F^m Lambda^k, the forms of holomorphic degree at least m, is a column prefix
(linalg.block).  With z(k, m, c) = dim{x in F^m Lambda^k : dx in F^c} and
Z_r^p = F^p cap d^-1(F^{p+r}) (McCleary, User's Guide to Spectral Sequences,
2001, 2.2), page r is E_r^p = Z_r^p / (Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1}).
The two summands meet in d Z_r^{p-r+1}, and dim d Z = dim Z - dim(F^m cap
ker d) cancels the ker d terms, so with k = p + q

  dim E_r^{p,q} = z(k, p, p+r) - z(k, p+1, p+r)
                  - z(k-1, p-r+1, p) + z(k-1, p-r+1, p+1).

Each z is the nullity of d on the prefix F^m restricted to the rows of
holomorphic degree below c: the prefix width less the pivots inside it of
OperatorCache.filtered_pivots, one elimination of d per degree.  Page 1 is
the Dolbeault cohomology; e_infinity computes the limit page from its own
elimination of im d, and degeneration_page checks one against the other.
"""

from __future__ import annotations

from bisect import bisect_left

from .cohomology import degrees, hodge_table
from .linalg import InternalError, block, cells, reverse_columns, rref


def _nullity(ops, k, m, c):
    """z(k, m, c) of the module docstring; 0 below degree 0."""
    if k < 0:
        return 0
    w = block(ops.n, m, k - m).stop
    return w - bisect_left(ops.filtered_pivots(k)[min(c, ops.n + 1)], w)


def spectral_page(ops, r):
    """Page r as {(p, q): dim} over the Dolbeault degrees, page 1 being
    Dolbeault cohomology; each cell from four filtered nullities of d."""
    if r < 1:
        raise InternalError(f"spectral sequence pages start at 1, not {r}")
    return {
        (p, q): (_nullity(ops, p + q, p, p + r) - _nullity(ops, p + q, p + 1, p + r)
                 - _nullity(ops, p + q - 1, p - r + 1, p)
                 + _nullity(ops, p + q - 1, p - r + 1, p + 1))
        for p, q in degrees("dolbeault", ops.n)}


def e_infinity(ops):
    """Limit dims from the graded de Rham cohomology of the leading-degree
    filtration: gr^p H^k = (F^p cap ker d + im d) / (F^{p+1} cap ker d + im d)
    has dimension a_p - a_{p+1}, a_p = dim(F^p cap ker d) - dim(F^p cap im d).

    Used to certify stabilization.  dim(F^p cap ker d) is the nullity
    z(k, p, n+1), the free columns of d in the prefix F^p; F^p cap im d is
    spanned by the rows of im d, eliminated here with the columns reversed,
    whose last nonzero lies in the prefix.
    """
    n = ops.n
    dims = {}
    for k in degrees("de_rham", n):
        amb = ops.dims(k)
        lasts = [amb - 1 - c for c in rref(reverse_columns(ops.image("d", k - 1).rows, amb))[1]]
        prev = 0
        for p, q in cells(n, k):
            w = block(n, p, q).stop
            cur = _nullity(ops, k, p, n + 1) - sum(c < w for c in lasts)
            dims[(p, q)] = cur - prev
            prev = cur
    return dims


def degeneration_page(ops):
    """Smallest r whose page totals equal the Betti numbers in every degree.

    Differentials on page r move by (r, 1-r), so every page beyond n+1 is
    already stable.  Fails closed: every cell must be nonnegative and no
    larger than on the page before, and the page that meets the Betti
    numbers (the de Rham hodge_table, an elimination apart from the pivot
    table) must equal e_infinity cell by cell.  Returns (r, certificate dict); the
    certificate's "pages" lists the pages 1..r it built, page r at index
    r-1.
    """
    n = ops.n
    target = hodge_table(ops, "de_rham")
    pages = []
    for r in range(1, n + 2):
        page = spectral_page(ops, r)
        for cell, dim in page.items():
            if dim < 0:
                raise InternalError(f"page {r} cell {cell} has dimension {dim}")
            if pages and dim > pages[-1][cell]:
                raise InternalError(f"page {r} cell {cell} grows from {pages[-1][cell]}")
        pages.append(page)
        if target == {k: sum(d for (p, q), d in page.items() if p + q == k) for k in target}:
            limit = e_infinity(ops)
            if page != limit:
                raise InternalError(f"page {r} meets the Betti numbers but not the limit page")
            return r, {"betti": target, "e_infinity": limit, "pages": pages}
    raise InternalError(
        f"no stabilization by page {n + 1}; the pivot table is inconsistent"
    )
