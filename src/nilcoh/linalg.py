"""Exact linear algebra over Q(i) and graded bases of the invariant complex.

Everything here is deterministic by construction: bases are enumerated in a
fixed lexicographic order, elimination always picks the first nonzero pivot,
and subspaces are stored in reduced row echelon form, so equal subspaces have
byte-identical representations.  Determinism is preferred over speed; the
largest ambient space in scope is the 70-dimensional middle degree at n=4.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations

from .gauss import ONE, ZERO, InternalError
from .exterior import BigradedElement


# ---------------------------------------------------------------------------
# the elimination kernel: rows are sequences of GaussRat, and an echelon
# state is a pair (rows, pivots) in reduced row echelon form.  _reduce and
# _insert are the only row operations; everything below composes them.


def _reduce(rows, pivots, vec):
    """Residue of vec against the RREF rows: every pivot column cleared."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return v


def _insert(rows, pivots, residue):
    """Add a nonzero residue of _reduce to the echelon state, in place.

    The residue is scaled to a leading 1, its pivot column is cleared from
    the other rows, and it goes in at its pivot position.  Zero entries stay
    the shared ZERO: memoised subspaces keep their rows, which are mostly
    zeros.  Callers pass their own lists, never a memoised subspace's.
    """
    c = next(i for i, x in enumerate(residue) if x)
    inv = ONE / residue[c]
    new = tuple(x * inv if x else ZERO for x in residue)
    for i, row in enumerate(rows):
        f = row[c]
        if f:
            rows[i] = tuple(a - f * b if b else a for a, b in zip(row, new))
    at = bisect(pivots, c)
    rows.insert(at, new)
    pivots.insert(at, c)


def _extend(rows, pivots, vectors):
    """Fold vectors into the echelon state; returns it."""
    for vec in vectors:
        residue = _reduce(rows, pivots, vec)
        if any(residue):
            _insert(rows, pivots, residue)
    return rows, pivots


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot_columns); zero rows dropped."""
    return _extend([], [], rows)


def apply_rows(op_rows, vec):
    """op_rows applied to vec: one dot product per row."""
    out = []
    for row in op_rows:
        acc = ZERO
        for a, b in zip(row, vec):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


def mat_mul(a, b):
    if not a or not b:
        return []
    return [list(row) for row in zip(*(apply_rows(a, col) for col in zip(*b)))]


def mat_inverse(a):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [list(row[n:]) for row in red]


def solve(a_rows, b):
    """One exact solution x of A x = b (free variables set to 0), or None.

    A is given as a list of rows; b as a vector of matching length.
    """
    if not a_rows:
        return None if any(b) else []
    ncols = len(a_rows[0])
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = rref(aug)
    for row, c in zip(red, pivots):
        if c == ncols:  # pivot in the rhs column: inconsistent
            return None
    x = [ZERO] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return x


def kernel_basis(a_rows, ncols):
    """Canonical kernel basis of the map x -> A x (A given by rows)."""
    red, pivots = rref(a_rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(red, pivots):
            if row[fc]:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


class Subspace:
    """A subspace of Q(i)^dim in canonical (RREF) form."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient, rows, pivots):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ambient, vectors):
        rows, pivots = rref(list(vectors))
        return cls(ambient, rows, pivots)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, [], [])

    @classmethod
    def full(cls, ambient):
        eye = [tuple(ONE if i == j else ZERO for j in range(ambient)) for i in range(ambient)]
        return cls(ambient, eye, list(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec modulo this subspace (canonical representative)."""
        return _reduce(self.rows, self.pivots, vec)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.rows)

    def _check_ambient(self, other):
        if self.ambient != other.ambient:
            raise InternalError(
                f"ambient mismatch: Q(i)^{self.ambient} and Q(i)^{other.ambient}"
            )

    def add(self, other):
        self._check_ambient(other)
        return Subspace(self.ambient, *_extend(list(self.rows), list(self.pivots), other.rows))

    def intersect(self, other):
        """Zassenhaus-free intersection: solve for combinations landing in both."""
        self._check_ambient(other)
        if not self.rows or not other.rows:
            return Subspace.zero(self.ambient)
        # x in both <=> x = sum a_i u_i = sum b_j v_j; kernel of [U^T | -V^T]
        u_cols = [list(col) for col in zip(*self.rows)]
        a_rows = [u + [-x for x in v] for u, v in zip(u_cols, zip(*other.rows))]
        width = len(self.rows)
        vectors = [
            apply_rows(u_cols, k[:width])
            for k in kernel_basis(a_rows, width + len(other.rows))
        ]
        return Subspace.from_vectors(self.ambient, vectors)

    def quotient_dim(self, sub, what="quotient"):
        """dim(self / sub); raises InternalError unless sub lies in self."""
        if not self.contains_subspace(sub):
            raise InternalError(f"{what}: denominator escapes numerator")
        return self.dim - sub.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"<subspace dim {self.dim} of Q(i)^{self.ambient}>"


def quotient_representatives(vectors, den):
    """Deterministic representatives of (span(vectors) + den) / den: greedy
    in the given order, keeping each vector outside den + span(kept)."""
    rows, pivots = list(den.rows), list(den.pivots)
    reps = []
    for v in vectors:
        residue = _reduce(rows, pivots, v)
        if any(residue):
            reps.append(v)
            _insert(rows, pivots, residue)
    return reps


def assemble_block_rows(blocks, rows_of_blocks):
    """Rows of a block matrix whose unknowns are consecutive column blocks.

    blocks: list of column counts per unknown block.
    rows_of_blocks: list of (row_count, {block_index: matrix_rows}) row
      groups; each matrix has row_count rows and at most blocks[i] columns,
      filling the first columns of its block.
    """
    offsets = [sum(blocks[:i]) for i in range(len(blocks))]
    total = sum(blocks)
    a_rows = []
    for row_count, mats in rows_of_blocks:
        for r in range(row_count):
            row = [ZERO] * total
            for bi, mat in mats.items():
                off = offsets[bi]
                for c, x in enumerate(mat[r]):
                    if x:
                        row[off + c] = x
            a_rows.append(row)
    return a_rows


def stacked_kernel_projection(blocks, rows_of_blocks, project_block):
    """Kernel of a block matrix, projected onto one unknown block.

    blocks and rows_of_blocks are as in assemble_block_rows.
    Returns the canonical Subspace of Q(i)^{blocks[project_block]} of values
    the projected unknown takes over the kernel.
    """
    ker = kernel_basis(assemble_block_rows(blocks, rows_of_blocks), sum(blocks))
    off = sum(blocks[:project_block])
    w = blocks[project_block]
    return Subspace.from_vectors(w, [v[off : off + w] for v in ker])


def stacked_kernel_image(blocks, rows_of_blocks, out_spec):
    """Image of a block-row map over the kernel of a block constraint matrix.

    out_spec is a single (row_count, {block_index: matrix_rows}) entry; the
    map it describes is applied to every kernel vector of the constraints and
    the span of the values is returned as a canonical Subspace.
    """
    ker = kernel_basis(assemble_block_rows(blocks, rows_of_blocks), sum(blocks))
    out_rows = assemble_block_rows(blocks, [out_spec])
    return Subspace.from_vectors(out_spec[0], [apply_rows(out_rows, v) for v in ker])


# ---------------------------------------------------------------------------
# graded bases and operator matrices


def basis_pq(n, p, q):
    """Monomial basis of Lambda^{p,q}, lexicographic in the generator order."""
    if p < 0 or q < 0 or p > n or q > n:
        return []
    return [
        (h, a)
        for h in combinations(range(1, n + 1), p)
        for a in combinations(range(1, n + 1), q)
    ]


def basis_total(n, k):
    """Basis of Lambda^k with (p,q)-blocks in descending p, so that the
    holomorphic filtration F^p is spanned by a prefix."""
    out = []
    for p in range(min(k, n), -1, -1):
        q = k - p
        if 0 <= q <= n:
            out.extend(basis_pq(n, p, q))
    return out


def element_to_vec(basis, index, element):
    v = [ZERO] * len(basis)
    for m, c in element.coeffs.items():
        v[index[m]] = c.const_value()
    return v


def vec_to_element(basis, vec):
    from .scalar import ScalarExpr

    return BigradedElement(
        {m: ScalarExpr.const(x) for m, x in zip(basis, vec) if x}
    )


class OperatorCache:
    """Matrices of d, del, delbar, deldelbar on a concrete structure, and
    their kernels and images.

    The spec is a parameter-free AlgebraSpec; one that is not integrable or
    has d^2 != 0 is rejected with StructureError.  Matrices and subspaces
    are built lazily, once each, and memoized; callers must not mutate them.
    Matrices act on column vectors; stored as rows.
    """

    def __init__(self, spec):
        assert not spec.params, "operator matrices need a fully assigned structure"
        spec.check()
        self.spec = spec
        self.n = spec.n
        self._bases = {}
        self._memo = {}

    def _get(self, key, build):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def basis(self, key):
        """key is (p, q) for a bidegree or an int k for a total degree."""
        b = self._bases.get(key)
        if b is None:
            if isinstance(key, tuple):
                b = basis_pq(self.n, *key)
            else:
                b = basis_total(self.n, key)
            idx = {m: i for i, m in enumerate(b)}
            b = (b, idx)
            self._bases[key] = b
        return b

    def _matrix(self, src_key, dst_key, transform):
        src, _ = self.basis(src_key)
        dst, dst_idx = self.basis(dst_key)
        cols = []
        for m in src:
            img = transform(BigradedElement.monomial(*m))
            col = [ZERO] * len(dst)
            for mm, c in img.coeffs.items():
                col[dst_idx[mm]] = c.const_value()
            cols.append(col)
        # store as rows (dst x src)
        return [
            [cols[j][i] for j in range(len(src))] for i in range(len(dst))
        ]

    def d_total(self, k):
        """d: Lambda^k -> Lambda^{k+1}."""
        return self._get(("d", k), lambda: self._matrix(k, k + 1, self.spec.d))

    def del_pq(self, p, q):
        """del: (p,q) -> (p+1,q)."""
        return self._get(("del", (p, q)), lambda: self._matrix(
            (p, q), (p + 1, q), lambda e: self.spec.d(e).project(p + 1, q)))

    def delbar_pq(self, p, q):
        """delbar: (p,q) -> (p,q+1)."""
        return self._get(("delbar", (p, q)), lambda: self._matrix(
            (p, q), (p, q + 1), lambda e: self.spec.d(e).project(p, q + 1)))

    def deldelbar_pq(self, p, q):
        """del∘delbar: (p,q) -> (p+1,q+1)."""
        return self._get(("dd", (p, q)), lambda: self._matrix(
            (p, q),
            (p + 1, q + 1),
            lambda e: self.spec.d(self.spec.d(e).project(p, q + 1)).project(p + 1, q + 1),
        ))

    def rows(self, op, key):
        """Matrix rows of op ("d", "del", "delbar" or "dd") on the space key.

        "d" on a bidegree stacks the del rows over the delbar rows, so its
        kernel is the d-closed (p,q)-forms.
        """
        if op == "d" and isinstance(key, int):
            return self.d_total(key)
        if op == "d":
            return self._get(("d", key), lambda: self.del_pq(*key) + self.delbar_pq(*key))
        return {"del": self.del_pq, "delbar": self.delbar_pq, "dd": self.deldelbar_pq}[op](*key)

    def kernel_vectors(self, op, key):
        """The kernel_basis vectors of op on key, in kernel_basis order."""
        return self._get(("kervec", op, key),
                         lambda: kernel_basis(self.rows(op, key), self.dims(key)))

    def kernel(self, op, key):
        """ker op on the space key, as a canonical Subspace."""
        return self._get(("ker", op, key), lambda: Subspace.from_vectors(
            self.dims(key), self.kernel_vectors(op, key)))

    def image(self, op, key):
        """op applied to the space key, as a canonical Subspace of the target."""
        def build():
            rows = self.rows(op, key)
            return Subspace.from_vectors(len(rows), [list(col) for col in zip(*rows)])

        return self._get(("im", op, key), build)

    def embedding(self, pq, k):
        """Rows of the inclusion Lambda^{p,q} -> Lambda^k, for k = p + q."""
        def build():
            src, _ = self.basis(pq)
            _, idx = self.basis(k)
            rows = [[ZERO] * len(src) for _ in range(self.dims(k))]
            for c, m in enumerate(src):
                rows[idx[m]][c] = ONE
            return rows

        return self._get(("embed", pq, k), build)

    def dims(self, key):
        return len(self.basis(key)[0])

    def to_vec(self, key, element):
        basis, idx = self.basis(key)
        return element_to_vec(basis, idx, element)

    def to_element(self, key, vec):
        basis, _ = self.basis(key)
        return vec_to_element(basis, vec)


def rank_of(op_rows):
    return len(rref(op_rows)[0])
