"""Reference computations the tests check nilcoh against; no command runs them.

The underlying real structure of a complex structure.  Realification uses
the real coframe phi^j = e^{2j-1} + i e^{2j}; on vectors the calibrated
convention is J e_{2j-1} = -e_{2j}, J e_{2j} = e_{2j-1}.  Through that
coframe come the real structure equations (`realify`), the rho-traces
tr(J o ad e_j) and the derived algebra (the Nakamura obstruction),
unimodularity, the real pair of a (2,0)-form and the real frame matrix of a
deformation.  Besides: whether a class is trivial, decided by solving for a
primitive (the route the wedge-class suite is checked against), the rank of
a matrix, whether a de Rham class lies in the pure-type sum, whether one
subspace contains another and the dimension of their quotient, |z|^2 of a
Gaussian rational, the rows of a block matrix over consecutive column
blocks with the split of a vector back into those blocks, the structure
equations of the product of two structures, and the exhaustive walk of the
symplectic witness grid, against which the descent of `find_symplectic` is
checked.
"""

import re
from bisect import bisect
from fractions import Fraction
from functools import reduce
from itertools import product as cartesian

from nilcoh.algebra import StructureError, SymplecticError
from nilcoh.cohomology import THEORY_TABLE, CohomologyGroup, _pure_type_classes, _shift
from nilcoh.dsl import parse, pretty
from nilcoh.exterior import BigradedElement, substitute
from nilcoh.gauss import GaussRat, InternalError
from nilcoh.linalg import Subspace, mat_mul, rref, solve, transpose
from nilcoh.scalar import S_I, ScalarExpr
from nilcoh.symplectic import closed_20_elements, is_nondegenerate


def mono(holo, anti):
    """The monomial f{holo}^F{anti} as nilcoh spells it: its sorted
    generator tokens, (0, i) for f_i and (1, i) for F_i."""
    return tuple((0, i) for i in holo) + tuple((1, i) for i in anti)


def realify(spec):
    """Underlying real structure equations and the complex structure J.

    Real coframe: e^{2j-1} = (phi^j + phi^jbar)/2,
                  e^{2j}   = -(i/2)(phi^j - phi^jbar).
    Returns a RealAlgebraSpec of dimension 2n.
    """
    if spec.params:
        raise StructureError("realification needs a fully assigned structure")
    n = spec.n
    real_eqs = []
    for dpj in spec.d_phi:
        real_eqs.extend(real_parts(dpj, n))
    # J on vectors (calibrated): J e_{2j-1} = -e_{2j}, J e_{2j} = e_{2j-1}
    dim = 2 * n
    j_mat = [[Fraction(0)] * dim for _ in range(dim)]
    for j in range(n):
        j_mat[2 * j + 1][2 * j] = Fraction(-1)  # J e_{2j-1} = -e_{2j}
        j_mat[2 * j][2 * j + 1] = Fraction(1)  # J e_{2j}  =  e_{2j-1}
    return RealAlgebraSpec(spec.name, dim, real_eqs, j_mat)


def _real_coframe(n):
    """phi^j -> e^{2j-1} + i e^{2j}, phi^jbar -> e^{2j-1} - i e^{2j}, with
    e^k the k-th unbarred generator of a 2n-generator algebra."""
    coframe = {}
    for j in range(1, n + 1):
        re, im = BigradedElement.gen(2 * j - 1), BigradedElement.gen(2 * j, coeff=S_I)
        coframe[(0, j)] = re + im
        coframe[(1, j)] = re - im
    return coframe


def complex_form_to_real(form, n):
    """Expand a complex invariant form in the real coframe e^1..e^{2n}.

    Returns {(a, b, ...): Fraction} with a < b < ...; raises if any
    coefficient fails to be real (the input must be a real form).
    """
    out = {}
    for m, c in substitute(form, _real_coframe(n)).items():
        idxs = tuple(i for _, i in m)  # every token is unbarred
        val = c.const_value()
        if val.im:
            raise InternalError(f"non-real structure constant {val} at e^{idxs}")
        out[idxs] = val.re
    return out


def real_parts(form, n):
    """The real forms (form + conj form)/2 and -(i/2)(form - conj form),
    each expanded in the real coframe e^1..e^{2n}."""
    conj = form.conj()
    half = ScalarExpr.const(GaussRat(Fraction(1, 2)))
    neg_half_i = ScalarExpr.const(GaussRat(0, Fraction(-1, 2)))
    return (
        complex_form_to_real((form + conj).scale(half), n),
        complex_form_to_real((form - conj).scale(neg_half_i), n),
    )


class RealAlgebraSpec:
    """Real structure equations de^k = sum a^k_{ij} e^i ^ e^j plus J."""

    __slots__ = ("name", "dim", "d_e", "j_mat")

    def __init__(self, name, dim, d_e, j_mat):
        self.name = name
        self.dim = dim
        self.d_e = d_e  # list of {(i, j): Fraction}, i < j, 1-based
        self.j_mat = j_mat  # J e_k = sum_m j_mat[m][k] e_m (0-based)

    def brackets(self):
        """Structure constants of the Lie bracket: [e_i, e_j] = sum c^k_ij e_k.

        From de^k = sum_{i<j} a^k_{ij} e^i ^ e^j and
        de^k(e_i, e_j) = -e^k([e_i, e_j]) we get c^k_ij = -a^k_{ij}.
        """
        c = {}
        for k, eq in enumerate(self.d_e, start=1):
            for (i, j), a in eq.items():
                c.setdefault((i, j), {})[k] = -a
        return c

    def rho(self):
        """rho_j = tr(J o ad e_j) for j = 1..dim, in one pass over the brackets.

        tr(J ad e_j) = sum_{r,k} J[r][k] e^k([e_j, e_r]), over the nonzero
        entries of J.
        """
        j_entries = [
            (r, k, x)
            for r, row in enumerate(self.j_mat, start=1)
            for k, x in enumerate(row, start=1)
            if x
        ]
        rhos = [Fraction(0)] * self.dim
        for (a, b), comps in self.brackets().items():
            for r, k, x in j_entries:
                if r == b:  # [e_a, e_b]
                    rhos[a - 1] += x * comps.get(k, 0)
                if r == a:  # [e_b, e_a] = -[e_a, e_b]
                    rhos[b - 1] -= x * comps.get(k, 0)
        return rhos

    def rho_report(self):
        """rho_j for all j, plus which e_j lie in the derived algebra."""
        rhos = self.rho()
        derived = self.derived_algebra()
        flags = [derived.contains({j: GaussRat(1)}) for j in range(self.dim)]
        # does the trace form restrict to zero on [g,g]?  (this, not the
        # per-vector flags, is what torsion-canonical-bundle arguments use)
        vanishes = all(
            sum(rhos[j] * x.re for j, x in row.items()) == 0 for row in derived.rows
        )
        return RhoReport(self.name, rhos, flags, derived.dim, vanishes)

    def in_derived(self, vec):
        """Is the given vector (2n rational coordinates) in [g,g]?"""
        vec = {j: GaussRat(x) for j, x in enumerate(vec) if x}
        return self.derived_algebra().contains(vec)

    def derived_algebra(self):
        """span{[e_i, e_j]} as a canonical Subspace (real entries in Q(i))."""
        vecs = [
            {k - 1: GaussRat(val) for k, val in comps.items()}
            for _, comps in sorted(self.brackets().items())
        ]
        return Subspace.span(self.dim, vecs)

    def unimodular(self):
        """tr(ad(e_j)) = 0 for all j."""
        traces = [Fraction(0)] * (self.dim + 1)
        for (a, b), comps in self.brackets().items():
            traces[a] += comps.get(b, 0)  # e^b([e_a, e_b])
            traces[b] -= comps.get(a, 0)  # e^a([e_b, e_a])
        return not any(traces)


class RhoReport:
    __slots__ = ("name", "rhos", "in_derived", "derived_dim", "rho_vanishes_on_derived")

    def __init__(self, name, rhos, in_derived, derived_dim, rho_vanishes_on_derived):
        self.name = name
        self.rhos = rhos
        self.in_derived = in_derived
        self.derived_dim = derived_dim
        self.rho_vanishes_on_derived = rho_vanishes_on_derived

    def as_dict(self):
        return {
            "name": self.name,
            "rho": [str(r) for r in self.rhos],
            "basis_vector_in_derived_algebra": list(self.in_derived),
            "derived_algebra_dim": self.derived_dim,
            "rho_vanishes_on_derived_algebra": self.rho_vanishes_on_derived,
        }


def real_pair(spec, omega):
    """Split a (2,0)-form into its real and imaginary invariant 2-forms.

    Both parts are expanded in the real coframe of realify; the returned
    pair (re, im) satisfies im = re(J., .) for the engine's J convention
    (the sign is pinned by the rho-trace calibration; relabeling J -> -J
    recovers the opposite-sign convention).  The compatibility identity is
    verified exactly and reported.
    """
    if set(omega.bidegrees()) - {(2, 0)}:
        raise SymplecticError("real pair is defined for (2,0)-forms")
    re, im = real_parts(omega, spec.n)
    j_mat = realify(spec).j_mat
    dim = len(j_mat)

    def pairing(form):
        """form(e_a, e_b) over all ordered pairs (0-based) with a nonzero value."""
        out = {}
        for (a, b), v in form.items():
            out[(a - 1, b - 1)], out[(b - 1, a - 1)] = v, -v
        return out

    mre, mim = pairing(re), pairing(im)
    compat = all(
        mim.get((a, b), 0) == sum(j_mat[c][a] * mre.get((c, b), 0) for c in range(dim))
        for a in range(dim)
        for b in range(dim)
    )
    def entries(form):
        return {f"e{a}^e{b}": str(v) for (a, b), v in sorted(form.items())}
    return {
        "re": entries(re),
        "im": entries(im),
        "compatibility_verified": compat,
    }


def real_frame_matrix(family, assign):
    """Real 2n x 2n matrix S with eps_t = S eps_0 on the real coframes.

    Column j of S gives the coordinates of the undeformed real frame vector
    e_j (dual basis) in the deformed real frame, which is what membership
    tests against the deformed structure constants need.
    """
    B = family.matrix_at(assign)
    n = len(B)
    S = []
    for i in range(n):
        # eta^i = eps^{2i-1} + i eps^{2i}: rows 2i-1 and 2i of S
        eta = BigradedElement.gen(i + 1)
        for k in range(n):
            eta = eta + BigradedElement.gen(k + 1, barred=True, coeff=B[i][k])
        for part in real_parts(eta, n):
            S.append([part.get((m,), Fraction(0)) for m in range(1, 2 * n + 1)])
    return S


class NotInNumerator(ValueError):
    """The form does not satisfy the closedness conditions of the theory."""


_CLOSED = {
    "de_rham": "d-closed",
    "dolbeault": "delbar-closed",
    "del": "del-closed",
    "bott_chern": "del- and delbar-closed",
    "aeppli": "del.delbar-closed",
}


def class_is_trivial(ops, theory, element):
    """Decide triviality with a certificate.

    Returns (True, primitive) where the primitive is an element (or a pair
    for Aeppli) mapping onto the form, or (False, reduced) with the canonical
    nonzero residue of the class modulo the denominator subspace.
    Raises NotInNumerator when the form is not closed for the theory.
    """
    if theory == "de_rham":
        degs = {p + q for p, q in element.bidegrees()}
        if len(degs) > 1:
            raise NotInNumerator("mixed total degree")
        key = degs.pop() if degs else 0
    else:
        bidegs = element.bidegrees()
        if len(bidegs) > 1:
            raise NotInNumerator("form is not of pure bidegree")
        key = bidegs.pop() if bidegs else (0, 0)
    if theory not in THEORY_TABLE:
        raise ValueError(f"unknown theory {theory!r}")
    num_op, images = THEORY_TABLE[theory]
    vec = ops.to_vec(key, element)
    if mat_mul([vec], transpose(ops.rows(num_op, key), ops.dims(key)))[0]:
        raise NotInNumerator(f"form is not {_CLOSED[theory]}")

    # solve for all primitives at once: [A | B] (x, y) = vec
    sources = [_shift(key, by) for _, by in images]
    blocks = [ops.dims(src) for src in sources]
    mats = {i: ops.rows(op, src) for i, ((op, _), src) in enumerate(zip(images, sources))}
    x = solve(assemble_block_rows(blocks, [mats]), vec, sum(blocks))
    if x is None:
        return False, ops.to_element(key, CohomologyGroup(theory, key, ops).denominator.reduce(vec))
    prims = [ops.to_element(src, part) for src, part in zip(sources, split_blocks(x, blocks))]
    return True, prims[0] if len(prims) == 1 else tuple(prims)


def class_in_pure_sum(ops, k, element):
    """Does the de Rham class of `element` lie in sum_{p+q=k} H^{p,q}_J?"""
    vec = ops.to_vec(k, element)
    if mat_mul([vec], transpose(ops.d_total(k), ops.dims(k)))[0]:
        raise NotInNumerator("form is not d-closed")
    classes = [c for _, c in _pure_type_classes(ops, k).values()]
    sum_space = reduce(Subspace.add, classes, Subspace(ops.dims(k)))
    return sum_space.contains(ops.image("d", k - 1).reduce(vec))


def rank_of(op_rows):
    return len(rref(op_rows)[0])


def contains_subspace(space, sub):
    """Does the Subspace `space` contain the Subspace `sub`?"""
    return not any(space.reduce(r) for r in sub.rows)


def quotient_dim(num, den, what="quotient"):
    """dim(num / den); raises InternalError unless den lies in num."""
    if not contains_subspace(num, den):
        raise InternalError(f"{what}: denominator escapes numerator")
    return num.dim - den.dim


def norm2(z):
    """|z|^2 = z * conj(z) of a GaussRat, read as an ordinary rational."""
    return (z * z.conj()).re


def assemble_block_rows(blocks, rows_of_blocks):
    """Rows of a block matrix whose unknowns are consecutive column blocks.

    blocks: list of column counts per unknown block.
    rows_of_blocks: list of {block_index: matrix_rows} row groups; the
      matrices of a group have the same number of rows, and each has at most
      blocks[i] columns, filling the first columns of its block.
    """
    offsets = [sum(blocks[:i]) for i in range(len(blocks))]
    a_rows = []
    for mats in rows_of_blocks:
        offs = [offsets[bi] for bi in mats]
        for parts in zip(*mats.values(), strict=True):
            row = {}
            for off, part in zip(offs, parts):
                for c, x in part.items():
                    row[off + c] = x
            a_rows.append(row)
    return a_rows


def split_blocks(vec, blocks):
    """The per-block vectors of vec over consecutive column blocks."""
    starts = [sum(blocks[:i]) for i in range(len(blocks))]
    parts = [{} for _ in blocks]
    for j, x in vec.items():
        b = bisect(starts, j) - 1
        parts[b][j - starts[b]] = x
    return parts


_GENERATOR = re.compile(r"\b([fF])([0-9]+)\b")


def product(text_a, text_b):
    """Structure-equation text of the product of two parameter-free
    structures: the generators of the second factor are renumbered to follow
    those of the first, so f1 of b becomes f(n_a + 1).  The product's
    invariant complex is the tensor product of the factors' double
    complexes."""
    a, b = parse(text_a), parse(text_b)
    if a.params or b.params:
        raise StructureError("a product takes parameter-free factors")

    def equations(spec, shift):
        return [_GENERATOR.sub(lambda m: f"{m[1]}{int(m[2]) + shift}", line)
                for line in pretty(spec).splitlines() if line.startswith("d ")]

    return "\n".join([f'algebra "{a.name}_x_{b.name}" dim {a.n + b.n}',
                      *equations(a, 0), *equations(b, a.n)]) + "\n"


def grid_walk(ops):
    """The first point of {0..m}^s, in lexicographic order, at which the
    combination of the closed (2,0) basis is non-degenerate (n = 2m even).

    One numeric wedge power per point.  Returns (witness coefficients,
    witness, points checked); the first two are None when no point is
    non-degenerate, and then every point was checked.
    """
    n = ops.n
    side = n // 2 + 1
    elems = closed_20_elements(ops)
    # the grid has at least one point, the empty one when s = 0
    for checked, point in enumerate(cartesian(range(side), repeat=len(elems)), 1):
        comb = BigradedElement.zero()
        for aj, e in zip(point, elems):
            if aj:
                comb = comb + e.scale(GaussRat(aj))
        if is_nondegenerate(comb, n):
            return [GaussRat(aj) for aj in point], comb, checked
    return None, None, checked
