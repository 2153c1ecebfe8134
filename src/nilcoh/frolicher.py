"""Holomorphic-filtration spectral sequence via zig-zag solvability spaces.

Page r at bidegree (p,q) is the quotient X_r/Y_r of two subspaces of
Lambda^{p,q}:

  X_r = { a : delbar a = 0 and the chain  del a + delbar a_1 = 0,
          del a_1 + delbar a_2 = 0, ..., del a_{r-2} + delbar a_{r-1} = 0
          is solvable with a_j in Lambda^{p+j, q-j} },
  Y_r = { del b_{r-2} + delbar b_{r-1} : b_j in Lambda^{p-r+1+j, q+r-2-j},
          delbar b_0 = 0, del b_{j-1} + delbar b_j = 0 for j = 1..r-2 }
  (for r = 1 simply Y_1 = delbar Lambda^{p,q-1}).

Each zig-zag system is a slice of d, since d = del + delbar and the bases
of Lambda^k list their (p,q) blocks in descending p (linalg.holo_range).
With k = p + q, X_r is the (p,q) block of the kernel of d on Lambda^k
restricted to holomorphic degrees p..p+r-1 in source and target; Y_r is
the (p,q) block of d applied to the kernel of d on Lambda^{k-1} restricted
to source degrees p-r+1..p and target degrees p-r+1..p-1.  Page 1 is the
same formula: X_1 = ker delbar and Y_1 = delbar Lambda^{p,q-1}.  The first
page agrees with delbar-cohomology and the limit page with the graded de
Rham cohomology of the coordinate filtration by leading holomorphic degree;
both identities are exposed for testing.
"""

from __future__ import annotations

from .cohomology import betti
from .linalg import (InternalError, Subspace, block, column_slice, holo_range, kernel_basis,
                     mat_mul, quotient_representatives, reverse_columns, rref, transpose)


def _slice_kernel(d, rows, cols):
    """Kernel vectors of the matrix d restricted to the rows and columns
    slices, over the columns renumbered from 0."""
    return kernel_basis(column_slice(d[rows], cols), cols.stop - cols.start)


def x_space(ops, r, p, q):
    """Zig-zag-solvable (p,q)-forms on page r, as a Subspace of Lambda^{p,q}."""
    if r < 1:
        raise InternalError(f"spectral sequence pages start at 1, not {r}")
    n, k = ops.n, p + q
    cols = holo_range(n, k, p, p + r - 1)
    ker = _slice_kernel(ops.d_total(k), holo_range(n, k + 1, p, p + r - 1), cols)
    # the (p,q) block ends the column range
    own = slice(block(n, p, q).start - cols.start, cols.stop - cols.start)
    return Subspace.span(ops.dims((p, q)), column_slice(ker, own))


def y_space(ops, r, p, q):
    """Boundary subspace of Lambda^{p,q} on page r."""
    if r < 1:
        raise InternalError(f"spectral sequence pages start at 1, not {r}")
    n, k = ops.n, p + q
    d = ops.d_total(k - 1)
    cols = holo_range(n, k - 1, p - r + 1, p)
    ker = _slice_kernel(d, holo_range(n, k, p - r + 1, p - 1), cols)
    out = column_slice(d[block(n, p, q)], cols)
    return Subspace.span(ops.dims((p, q)), mat_mul(ker, transpose(out, cols.stop - cols.start)))


def _cell(ops, r, p, q):
    """(cycles, boundaries, dim) of one page cell, containment checked."""
    x = x_space(ops, r, p, q)
    y = y_space(ops, r, p, q)
    return x, y, x.quotient_dim(y, f"page {r} cell ({p},{q})")


def spectral_cell(ops, r, p, q):
    """One page cell: dimension plus the two subspaces and representatives."""
    x, y, dim = _cell(ops, r, p, q)
    reps = [ops.to_element((p, q), v) for v in quotient_representatives(x.rows, y)]
    return {
        "r": r,
        "p": p,
        "q": q,
        "dim": dim,
        "cycles": x,
        "boundaries": y,
        "representatives": reps,
    }


class SpectralPage:
    """Dimension table of one page."""

    __slots__ = ("r", "dims")

    def __init__(self, r, dims):
        self.r = r
        self.dims = dims

    def total(self, k):
        return sum(d for (p, q), d in self.dims.items() if p + q == k)

    def as_dict(self):
        return {
            "r": self.r,
            "dims": {f"({p},{q})": d for (p, q), d in sorted(self.dims.items())},
        }


def spectral_page(ops, r):
    n = ops.n
    dims = {(p, q): _cell(ops, r, p, q)[2] for p in range(n + 1) for q in range(n + 1)}
    return SpectralPage(r, dims)


def e_infinity(ops):
    """Limit dims from the graded de Rham cohomology of the leading-degree
    filtration: gr^p H^k = (F^p cap ker d + im d) / (F^{p+1} cap ker d + im d)
    has dimension a_p - a_{p+1}, a_p = dim(F^p cap ker d) - dim(F^p cap im d).

    Independent of the zig-zag route; used to certify stabilization.  The
    total-degree bases list bidegree blocks in descending holomorphic degree,
    so F^p is the column prefix of width w = block(n, p, k-p).stop, and a
    subspace meets it in the rows of an echelon form by last nonzero that end
    below w: for ker d one per free column of d, for im d its rows eliminated
    with the columns reversed.
    """
    n = ops.n
    dims = {}
    for k in range(2 * n + 1):
        amb = ops.dims(k)
        pivots = rref(ops.d_total(k))[1]
        lasts = [amb - 1 - c for c in rref(reverse_columns(ops.image("d", k - 1).rows, amb))[1]]
        prev = 0
        for p in range(min(k, n), max(0, k - n) - 1, -1):
            w = block(n, p, k - p).stop
            cur = w - sum(c < w for c in pivots) - sum(c < w for c in lasts)
            dims[(p, k - p)] = cur - prev
            prev = cur
    return dims


def betti_numbers(ops):
    return {k: betti(ops, k) for k in range(2 * ops.n + 1)}


def degeneration_page(ops):
    """Smallest r whose page totals equal the Betti numbers in every degree.

    Differentials on page r move by (r, 1-r), so every page beyond n+1 is
    already stable; the dimension certificate (page total = Betti number for
    all k) is equivalent to stabilization because cell dims never increase
    with r and the limit totals are the Betti numbers.
    Returns (r, certificate dict); the certificate's "pages" lists the
    pages 1..r it built.
    """
    n = ops.n
    target = betti_numbers(ops)
    pages = []
    for r in range(1, n + 2):
        page = spectral_page(ops, r)
        pages.append(page)
        totals = {k: page.total(k) for k in range(2 * n + 1)}
        if totals == target:
            return r, {
                "page_totals": totals,
                "betti": target,
                "e_infinity": e_infinity(ops),
                "pages": pages,
            }
    raise InternalError(
        f"no stabilization by page {n + 1}; zig-zag routine is inconsistent"
    )
