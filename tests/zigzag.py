"""Reference Frolicher cells from the zig-zag systems, for the tests.

Page r at bidegree (p,q) is the quotient X_r/Y_r of two subspaces of
Lambda^{p,q}:

  X_r = { a : delbar a = 0 and the chain  del a + delbar a_1 = 0,
          del a_1 + delbar a_2 = 0, ..., del a_{r-2} + delbar a_{r-1} = 0
          is solvable with a_j in Lambda^{p+j, q-j} },
  Y_r = { del b_{r-2} + delbar b_{r-1} : b_j in Lambda^{p-r+1+j, q+r-2-j},
          delbar b_0 = 0, del b_{j-1} + delbar b_j = 0 for j = 1..r-2 }
  (for r = 1 simply Y_1 = delbar Lambda^{p,q-1}).

The systems are stacked here from the del and delbar blocks, apart from the
pivot counts of d that nilcoh.frolicher reads its pages from.
"""

from nilcoh.linalg import (Subspace, kernel_basis, mat_mul, quotient_representatives,
                           transpose)
from reference import assemble_block_rows, quotient_dim


def zigzag_x(ops, r, p, q):
    """X_r at (p,q), as a Subspace of Lambda^{p,q}."""
    blocks = [ops.dims((p + j, q - j)) for j in range(r)]
    rows = [{0: ops.delbar_pq(p, q)}] + [
        {j - 1: ops.del_pq(p + j - 1, q - j + 1), j: ops.delbar_pq(p + j, q - j)}
        for j in range(1, r)
    ]
    ker = kernel_basis(assemble_block_rows(blocks, rows), sum(blocks))
    # a_0 is the first unknown block
    return Subspace.span(blocks[0], [{j: x for j, x in v.items() if j < blocks[0]}
                                     for v in ker])


def zigzag_y(ops, r, p, q):
    """Y_r at (p,q), as a Subspace of Lambda^{p,q}."""
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


def spectral_cell(ops, r, p, q):
    """One page cell: X_r, Y_r, the quotient dimension (containment
    checked) and greedy representatives of X_r/Y_r as forms."""
    x, y = zigzag_x(ops, r, p, q), zigzag_y(ops, r, p, q)
    return {
        "dim": quotient_dim(x, y, f"page {r} cell ({p},{q})"),
        "cycles": x,
        "boundaries": y,
        "representatives": [ops.to_element((p, q), v)
                            for v in quotient_representatives(x.rows, y)],
    }
