"""Exact linear algebra over Q(i) and graded bases of the invariant complex.

Everything here is deterministic by construction: bases are enumerated in a
fixed lexicographic order, elimination always picks the first nonzero pivot,
and subspaces are stored in reduced row echelon form, so equal subspaces have
byte-identical representations.  Determinism is preferred over speed; the
tests pin n=6 structures, whose middle degree is 924-dimensional.

This module owns the coordinate layout of forms (basis, block).
A basis lists monomials in the one format of exterior, sorted generator
token tuples, which the Leibniz assembly reads directly.
Lambda^k lists its (p,q) blocks in descending p, so every F^p is a column
prefix, every range of holomorphic degrees one column range, and del and
delbar are slices of the matrix of d, as is every filtered piece
{x in F^m : dx in F^c} whose nullities give the Frolicher pages.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from functools import cache
from itertools import combinations

from .gauss import ONE, ZERO, InternalError
from .exterior import BigradedElement, mono_wedge
from .scalar import ScalarExpr


# ---------------------------------------------------------------------------
# the elimination kernel.  A vector is a sparse row, a dict {column: nonzero
# GaussRat} with no zero stored; a matrix is a list of sparse rows.  The one
# echelon state is a Subspace, rows in reduced row echelon form and their
# pivots.  Subspace.reduce and Subspace.extend are the only row operations;
# everything below composes them.  extend edits its state in place, so it
# runs only on a state its caller built or copied.  No routine edits a row
# dict: memoised matrices and subspaces share theirs.


def _axpy(v, f, row):
    """v -= f * row in place, dropping entries that cancel."""
    for j, b in row.items():
        x = v.get(j)
        if x is None:
            v[j] = -(f * b)
        else:
            x = x - f * b
            if x:
                v[j] = x
            else:
                del v[j]


def rref(rows):
    """Reduced row echelon form of a list of rows: (rows, pivot columns),
    zero rows dropped.  The state's ambient is never read."""
    state = Subspace.span(None, rows)
    return state.rows, state.pivots


def kernel_basis(rows, ncols):
    """Canonical kernel basis of x -> A x (A given by a list of rows): one
    vector per free column, in column order."""
    red, pivots = rref(rows)
    entries = {}  # free column -> [(pivot column, entry)]
    for row, pc in zip(red, pivots):
        for j, x in row.items():
            if j != pc:
                entries.setdefault(j, []).append((pc, x))
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in pivset:
            v = {fc: ONE}
            for pc, x in entries.get(fc, ()):
                v[pc] = -x
            basis.append(v)
    return basis


def mat_mul(a, b):
    """Product of two matrices given by rows."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            _axpy(acc, -x, b[k])
        out.append(acc)
    return out


def transpose(rows, ncols):
    """The ncols rows of the transpose of a matrix given by rows."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def reverse_columns(rows, ncols):
    """The rows with column j renumbered ncols - 1 - j: an echelon form of
    them has each row's last nonzero column of the original as its pivot."""
    return [{ncols - 1 - j: x for j, x in row.items()} for row in rows]


def mat_inverse(a):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(a)
    red, pivots = rref([{**row, n + i: ONE} for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return [{j - n: x for j, x in row.items() if j >= n} for row in red]


def solve(rows, b, ncols):
    """One exact solution x of A x = b (free variables set to 0), or None.

    A is given by its rows over ncols unknowns; b is indexed by row.
    """
    aug = [dict(row) for row in rows]
    for i, x in b.items():
        aug[i][ncols] = x
    red, pivots = rref(aug)
    if pivots and pivots[-1] == ncols:  # pivot in the rhs column: inconsistent
        return None
    return {c: row[ncols] for row, c in zip(red, pivots) if ncols in row}


class Subspace:
    """A subspace of Q(i)^ambient as its echelon state: rows in reduced row
    echelon form and their pivot columns, ascending, so equal subspaces have
    equal states.  Subspace(ambient) is the zero subspace; the state owns
    its lists, and copy() is how a caller gets a state of its own from a
    memoised one."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient, rows=(), pivots=()):
        self.ambient = ambient
        self.rows = list(rows)
        self.pivots = list(pivots)

    @classmethod
    def span(cls, ambient, vectors):
        """Span of a list of vectors."""
        state = cls(ambient)
        state.extend(vectors)
        return state

    def copy(self):
        """The same state in lists of its own; the row dicts are shared,
        since extend replaces rows and never edits them."""
        return Subspace(self.ambient, self.rows, self.pivots)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec modulo this subspace, its canonical representative:
        every pivot column cleared.

        A row is zero at every other pivot column, so subtracting it changes
        no other pivot entry: only the pivots in vec's support are visited,
        in column order, each scaled by its entry in vec.
        """
        rows, pivots = self.rows, self.pivots
        v = dict(vec)
        for c in sorted(vec):
            at = bisect_left(pivots, c)
            if at < len(pivots) and pivots[at] == c:
                _axpy(v, vec[c], rows[at])
        return v

    def extend(self, vectors):
        """Fold vectors into this state, in place, and return those whose
        residue was nonzero, in order: the ones that raised the dimension.

        A residue is scaled to a leading 1, its pivot column is cleared from
        the rows that pivot before it (a row pivoting after it is zero
        there), and it goes in at its pivot position.  Rows that change are
        replaced, never edited.
        """
        rows, pivots = self.rows, self.pivots
        raised = []
        for vec in vectors:
            residue = self.reduce(vec)
            if not residue:
                continue
            raised.append(vec)
            c = min(residue)
            inv = ONE / residue[c]
            new = {j: x * inv for j, x in residue.items()}
            at = bisect(pivots, c)
            for i, row in enumerate(rows[:at]):
                f = row.get(c)
                if f is not None:
                    row = dict(row)
                    _axpy(row, f, new)
                    rows[i] = row
            rows.insert(at, new)
            pivots.insert(at, c)
        return raised

    def contains(self, vec):
        return not self.reduce(vec)

    def _check_ambient(self, other):
        if self.ambient != other.ambient:
            raise InternalError(
                f"ambient mismatch: Q(i)^{self.ambient} and Q(i)^{other.ambient}"
            )

    def add(self, other):
        self._check_ambient(other)
        total = self.copy()
        total.extend(other.rows)
        return total

    def intersect(self, other):
        """Zassenhaus: in the echelon form of the rows (u, u) over self and
        (v, 0) over other, the rows with a pivot at or past the ambient
        dimension are (0, w), and their w are the echelon basis of the
        intersection."""
        self._check_ambient(other)
        a = self.ambient
        both = Subspace.span(2 * a, [u | {a + j: x for j, x in u.items()} for u in self.rows]
                             + other.rows)
        cut = bisect_left(both.pivots, a)
        return Subspace(a, [{j - a: x for j, x in row.items()} for row in both.rows[cut:]],
                        [c - a for c in both.pivots[cut:]])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"<subspace dim {self.dim} of Q(i)^{self.ambient}>"


def quotient_representatives(vectors, den):
    """Deterministic representatives of (span(vectors) + den) / den: greedy
    in the given order, keeping each vector outside den + span(kept)."""
    return den.copy().extend(vectors)


# ---------------------------------------------------------------------------
# graded bases and operator matrices


@cache
def basis(n, key):
    """(monomials, {monomial: index}) of Lambda^{p,q} for key (p, q), or of
    Lambda^k for key k, on n generators: sorted token tuples, as everywhere
    in nilcoh, in tuple order within a bidegree, the blocks of Lambda^k in
    descending p.  Built once per (n, key) and shared by every structure, so
    read-only."""
    if isinstance(key, int):
        mons = tuple(m for p in range(min(key, n), -1, -1) for m in basis(n, (p, key - p))[0])
    elif min(key) < 0 or max(key) > n:
        mons = ()
    else:
        holo = [(0, i) for i in range(1, n + 1)]
        anti = [(1, i) for i in range(1, n + 1)]
        mons = tuple(h + a for h in combinations(holo, key[0])
                     for a in combinations(anti, key[1]))
    return mons, {m: i for i, m in enumerate(mons)}


@cache
def block(n, p, q):
    """The columns of Lambda^{p,q} in Lambda^{p+q}, as a slice: it starts
    after the columns of higher holomorphic degree, and is empty when the
    bidegree has no monomials."""
    start = sum(len(basis(n, (r, p + q - r))[0]) for r in range(min(p + q, n), p, -1))
    return slice(start, start + len(basis(n, (p, q))[0]))


def column_slice(rows, cols):
    """The matrix rows restricted to the columns in the slice cols,
    renumbered from 0."""
    return [{j - cols.start: x for j, x in row.items() if cols.start <= j < cols.stop}
            for row in rows]


def leibniz_rows(d_gen, n, k):
    """Rows of d: Lambda^k -> Lambda^{k+1} on n generators, by the Leibniz
    rule from the structure equations by generator token, d_gen = {token:
    [(2-form monomial, coefficient)]}: the one assembly of d in nilcoh, read
    through the memo AlgebraSpec.d_rows."""
    src, _ = basis(n, k)
    dst, row_of = basis(n, k + 1)
    rows = [{} for _ in dst]
    for c, toks in enumerate(src):
        for pos, tok in enumerate(toks):
            if not d_gen[tok]:
                continue
            rest = toks[:pos] + toks[pos + 1:]
            for pair, coeff in d_gen[tok]:
                sign, merged = mono_wedge(pair, rest)
                if sign:
                    row = rows[row_of[merged]]
                    x = row.get(c, ZERO)
                    # d(t_1..t_k) = sum_pos (-1)^pos d(t_pos) ^ rest
                    row[c] = x + coeff if sign == (-1) ** pos else x - coeff
    return [{j: x for j, x in row.items() if x} for row in rows]


class OperatorCache:
    """Matrices of d, del, delbar, deldelbar on a concrete structure, and
    their kernels and images.

    The spec is a parameter-free AlgebraSpec; one that is not integrable or
    has d^2 != 0 is rejected with StructureError.  d is spec.d_rows, the
    Leibniz matrices the d^2 check already assembled; since the structure is
    integrable, d maps Lambda^{p,q} into Lambda^{p+1,q} + Lambda^{p,q+1}, so
    del and delbar are bidegree blocks of d and del.delbar is their product.
    d.d = 0 is certified on every pair of adjacent degrees built; by
    bidegree it is del^2 = delbar^2 = 0 and del.delbar = -delbar.del, so a
    group that reads its degrees has its denominator in its numerator.
    Matrices and subspaces are built lazily, once each, and memoized;
    callers must not mutate them.  Matrices act on column vectors and are
    stored as lists of sparse rows.
    """

    def __init__(self, spec):
        if spec.params:
            raise InternalError("operator matrices need a fully assigned structure")
        spec.check()
        self.spec = spec
        self.n = spec.n
        self._memo = {}

    def _get(self, key, build):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def _matrix(self, op, key):
        """Rows of op on the space key: d on a total degree by the Leibniz
        rule, del and delbar as blocks of it, del.delbar as a product."""
        if op == "d":
            return self.spec.d_rows(key)
        p, q = key
        if op in ("del", "delbar"):
            tgt = (p + 1, q) if op == "del" else (p, q + 1)
            return column_slice(self.d_total(p + q)[block(self.n, *tgt)], block(self.n, p, q))
        # op == "dd": del_{(p,q+1)} . delbar_{(p,q)}
        return mat_mul(self.del_pq(p, q + 1), self.delbar_pq(p, q))

    def d_total(self, k):
        """d: Lambda^k -> Lambda^{k+1}, d.d = 0 checked on its built neighbours."""
        def build():
            d = self._matrix("d", k)
            for j, upper, lower in ((k - 1, d, self._memo.get(("d", k - 1))),
                                    (k, self._memo.get(("d", k + 1)), d)):
                if upper is not None and lower is not None and any(mat_mul(upper, lower)):
                    raise InternalError(f"d.d is not zero on Lambda^{j}")
            return d

        return self._get(("d", k), build)

    def del_pq(self, p, q):
        """del: (p,q) -> (p+1,q)."""
        return self._get(("del", (p, q)), lambda: self._matrix("del", (p, q)))

    def delbar_pq(self, p, q):
        """delbar: (p,q) -> (p,q+1)."""
        return self._get(("delbar", (p, q)), lambda: self._matrix("delbar", (p, q)))

    def deldelbar_pq(self, p, q):
        """del∘delbar: (p,q) -> (p+1,q+1)."""
        return self._get(("dd", (p, q)), lambda: self._matrix("dd", (p, q)))

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
        """ker op on the space key, as a canonical Subspace: kernel_basis of
        the rows with their columns reversed, mapped back, has each vector's 1
        at its first nonzero and zeros at the others' leading columns, so in
        reverse order it is the RREF."""
        def build():
            dim = self.dims(key)
            rev = kernel_basis(reverse_columns(self.rows(op, key), dim), dim)
            vecs = reverse_columns(rev[::-1], dim)
            return Subspace(dim, vecs, [min(v) for v in vecs])

        return self._get(("ker", op, key), build)

    def image(self, op, key):
        """op applied to the space key, as a canonical Subspace of the target."""
        def build():
            rows = self.rows(op, key)
            return Subspace.span(len(rows), transpose(rows, self.dims(key)))

        return self._get(("im", op, key), build)

    def filtered_pivots(self, k):
        """Entry c (0..n+1) is the pivot tuple of the RREF of the rows of
        d_total(k) in holomorphic degrees below c, from one echelon state fed
        a degree at a time; dim{x in F^m : dx in F^c} is the width of the
        prefix F^m less the entries of entry c inside it."""
        def build():
            d, state = self.d_total(k), Subspace(self.dims(k))
            table = [()]
            for c in range(self.n + 1):
                state.extend(d[block(self.n, c, k + 1 - c)])
                table.append(tuple(state.pivots))
            return table

        return self._get(("filtered", k), build)

    def dims(self, key):
        return len(basis(self.n, key)[0])

    def to_vec(self, key, element):
        _, idx = basis(self.n, key)
        return {idx[m]: c.const_value() for m, c in element.coeffs.items()}

    def to_element(self, key, vec):
        mons, _ = basis(self.n, key)
        return BigradedElement({mons[j]: ScalarExpr.const(x) for j, x in vec.items()})
