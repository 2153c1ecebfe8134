"""Exact linear algebra and the memoized operator matrices."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh import linalg
from nilcoh.catalog import catalog, get
from nilcoh.deform import DeformationError, concretize
from nilcoh.dsl import parse_gauss
from nilcoh.exterior import BigradedElement, mono_bidegree
from nilcoh.gauss import GaussRat, ONE, ZERO
from nilcoh.scalar import S_ONE, ScalarEvalError
from nilcoh.linalg import (
    OperatorCache,
    Subspace,
    kernel_basis,
    mat_inverse,
    mat_mul,
    quotient_representatives,
    rref,
    solve,
    transpose,
)
from reference import contains_subspace, quotient_dim, rank_of

_V = [parse_gauss(s) for s in ["0", "1", "-1", "1/2", "i", "-i", "2", "(1+i)/3"]]


def _sp(rows):
    """Sparse rows of dense rows."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _densify(rows, width):
    return [tuple(r.get(j, ZERO) for j in range(width)) for r in rows]


def _m(rows):
    return _sp([[parse_gauss(str(x)) if not isinstance(x, GaussRat) else x for x in r]
                for r in rows])


def test_rref_canonical_and_idempotent():
    rows, pivots = rref(_m([[0, 2], [1, 1], [2, 4]]))
    assert pivots == [0, 1]
    assert rows == [{0: ONE}, {1: ONE}]
    again, _ = rref(rows)
    assert again == rows


def test_solve_and_inverse():
    a = _m([["1", "i"], ["0", "2"]])
    b = _m([["1+i", "2"]])[0]
    x = solve(a, b, 2)
    assert mat_mul([x], transpose(a, 2)) == [b]
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == _m([[1, 0], [0, 1]])


def test_kernel_basis_and_rank_nullity():
    a = _m([[1, 1, 0], [0, 0, 1]])
    kb = kernel_basis(a, 3)
    assert len(kb) == 1
    assert mat_mul(kb, transpose(a, 3)) == [{}]
    assert rank_of(a) + len(kb) == 3


def test_subspace_operations():
    amb = 4
    u = Subspace.span(amb, [_m([[1, 0, 1, 0]])[0], _m([[0, 1, 0, 0]])[0]])
    v = Subspace.span(amb, [_m([[1, 0, 1, 0]])[0], _m([[0, 0, 0, 1]])[0]])
    assert u.dim == v.dim == 2
    meet = u.intersect(v)
    assert meet.dim == 1 and meet.contains(_m([[1, 0, 1, 0]])[0])
    join = u.add(v)
    assert join.dim == 3
    assert contains_subspace(join, u) and contains_subspace(join, v)
    assert quotient_dim(join, meet) == 2
    assert u.add(Subspace(amb)) == u
    assert contains_subspace(Subspace.span(amb, [{i: ONE} for i in range(amb)]), join)


def test_reduce_is_canonical_modulo_subspace():
    amb = 3
    s = Subspace.span(amb, [_m([[1, 0, 2]])[0]])
    a = _m([[1, 1, 2]])[0]
    b = _m([[0, 1, 0]])[0]  # differ by the generator
    assert s.reduce(a) == s.reduce(b)
    assert not s.contains(a)
    assert s.contains(_m([[2, 0, 4]])[0])


def test_quotient_representatives_are_deterministic():
    amb = 3
    num = Subspace.span(amb, [_m([[1, 0, 0]])[0], _m([[0, 1, 0]])[0]])
    den = Subspace.span(amb, [_m([[1, 1, 0]])[0]])
    reps = quotient_representatives(num.rows, den)
    assert len(reps) == 1
    assert reps == quotient_representatives(num.rows, den)


def test_operator_cache_dimensions_and_rank_nullity(ops):
    cache = ops("example31")
    assert cache.dims((2, 0)) == 6
    assert cache.dims(2) == 28  # C(8, 2)
    for k in range(0, 9):
        op = cache.d_total(k)
        dom = cache.dims(k)
        assert rank_of(op) + len(kernel_basis(op, dom)) == dom


def test_operator_cache_memoises_subspaces(ops):
    cache = ops("example31")
    assert cache.kernel("d", 2) is cache.kernel("d", 2)
    assert cache.image("delbar", (1, 0)) is cache.image("delbar", (1, 0))
    assert cache.image("d", 1).ambient == cache.dims(2)
    # "d" on a bidegree is del stacked over delbar: the d-closed (p,q)-forms
    assert cache.rows("d", (1, 1)) == cache.del_pq(1, 1) + cache.delbar_pq(1, 1)
    assert cache.kernel("d", (1, 1)) == Subspace.span(
        cache.dims((1, 1)), kernel_basis(cache.rows("d", (1, 1)), cache.dims((1, 1)))
    )


def test_operators_compose_to_zero(ops):
    cache = ops("example31")
    n = cache.n
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q >= 2 * n:
                continue
            delbar2 = mat_mul(cache.delbar_pq(p, q + 1), cache.delbar_pq(p, q))
            assert rank_of(delbar2) == 0
            del2 = mat_mul(cache.del_pq(p + 1, q), cache.del_pq(p, q))
            assert rank_of(del2) == 0
            anti = [
                {j: s for j in r1.keys() | r2.keys()
                 if (s := r1.get(j, ZERO) + r2.get(j, ZERO))}
                for r1, r2 in zip(
                    mat_mul(cache.del_pq(p, q + 1), cache.delbar_pq(p, q)),
                    mat_mul(cache.delbar_pq(p + 1, q), cache.del_pq(p, q)),
                )
            ]
            assert rank_of(anti) == 0


def test_vec_element_round_trip(ops):
    cache = ops("torus4")
    basis, _ = linalg.basis(cache.n, (1, 1))
    for m in basis[:3]:
        el = BigradedElement({m: S_ONE})
        v = cache.to_vec((1, 1), el)
        assert (cache.to_element((1, 1), v) - el).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_V), min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_rank_nullity_random(rows):
    a = _sp(rows)
    assert rank_of(a) + len(kernel_basis(a, 4)) == 4


# ---------------------------------------------------------------------------
# reference routines: the elimination kernel must agree with them exactly


def _rref_reference(rows):
    """Column-by-column Gauss-Jordan elimination with first-nonzero pivots."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[: len(pivots)]], pivots


def _quotient_representatives_reference(vectors, den):
    """Greedy in order: keep v outside den + span(kept), one add per kept v."""
    reps = []
    span = den
    for v in vectors:
        if not span.contains(v):
            reps.append(v)
            span = span.add(Subspace.span(den.ambient, [v]))
    return reps


def _sparse_rows(width):
    """Dense rows over width columns with about half the entries zero:
    sparse rows give fill-in and vectors whose support misses some pivots."""
    return st.lists(st.one_of(st.just(_V[0]), st.sampled_from(_V)),
                    min_size=width, max_size=width)


_ROWS4 = st.lists(st.sampled_from(_V), min_size=4, max_size=4)
_ROWS7 = _sparse_rows(7)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ROWS7, max_size=5), st.lists(_ROWS7, min_size=1, max_size=6),
       st.lists(st.integers(0, 10), max_size=3))
def test_elimination_kernel_matches_references(den_rows, vectors, repeats):
    # repeated rows make dependent candidates likely
    vectors = vectors + [(den_rows + vectors)[i % len(den_rows + vectors)] for i in repeats]
    rows = den_rows + vectors
    red, pivots = rref(_sp(rows))
    assert (_densify(red, 7), pivots) == _rref_reference(rows)

    den = Subspace.span(7, _sp(den_rows))
    # copies of the row dicts: an edit in place would show on both sides of
    # a shallow copy
    kept_rows, kept_pivots = [dict(r) for r in den.rows], list(den.pivots)
    joined = den.add(Subspace.span(7, _sp(vectors)))
    assert (_densify(joined.rows, 7), joined.pivots) == _rref_reference(rows)

    reps = quotient_representatives(_sp(vectors), den)
    assert reps == _quotient_representatives_reference(_sp(vectors), den)
    assert len(reps) == joined.dim - den.dim
    assert (den.rows, den.pivots) == (kept_rows, kept_pivots)


def _check_echelon_state(state):
    """Pivots strictly increase, and each row has a leading 1 at its pivot
    and zeros at every other pivot."""
    pivots = state.pivots
    assert len(state.rows) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for row, c in zip(state.rows, pivots):
        assert min(row) == c and row[c] == ONE
        assert set(pivots) & row.keys() == {c}


def _fold(state, chunks, original=None):
    """Extend state by each chunk in turn.  After every extend the state is
    an echelon state, it is the reference RREF of all it has folded, extend
    returned exactly the vectors that raised the reference rank, and
    original, the memoised subspace state was copied from, is unchanged."""
    width = state.ambient
    if original is not None:
        kept = [dict(r) for r in original.rows], list(original.pivots)
    folded, rank = _densify(state.rows, width), state.dim
    for chunk in chunks:
        raised = state.extend(chunk)
        want = []
        for v in chunk:
            folded.append(_densify([v], width)[0])
            ref = _rref_reference(folded)
            if len(ref[1]) > rank:
                want.append(v)
                rank = len(ref[1])
        assert [id(v) for v in raised] == [id(v) for v in want]
        _check_echelon_state(state)
        assert (_densify(state.rows, width), state.pivots) == _rref_reference(folded)
        if original is not None:
            assert (original.rows, original.pivots) == kept


# memoised OperatorCache subspaces: (entry, "kernel" or "image", op, key)
_MEMOISED = [("iwasawa", "kernel", "d", 1), ("iwasawa", "image", "d", 1),
             ("frolicher_example", "kernel", "delbar", (1, 1)),
             ("example31", "image", "delbar", (1, 0))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, *_MEMOISED]), st.data())
def test_echelon_state_after_every_extend(ops, source, data):
    """Drawn vectors, with repeats of earlier ones and of the start rows,
    folded in chunks into a fresh state or into a copy of a memoised one."""
    if source is None:
        original, state = None, linalg.Subspace(7)
    else:
        name, kind, op, key = source
        original = getattr(ops(name), kind)(op, key)
        state = original.copy()
    vectors = _sp(data.draw(st.lists(_sparse_rows(state.ambient), min_size=1, max_size=6)))
    pool = state.rows + vectors
    vectors += [pool[i % len(pool)] for i in data.draw(st.lists(st.integers(0, 20), max_size=4))]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(vectors)), max_size=3)))
    bounds = [0, *cuts, len(vectors)]
    _fold(state, [vectors[a:b] for a, b in zip(bounds, bounds[1:])], original)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ROWS4, max_size=4), st.lists(_ROWS4, max_size=4))
def test_intersection_dimension_formula(u_rows, v_rows):
    u, v = Subspace.span(4, _sp(u_rows)), Subspace.span(4, _sp(v_rows))
    meet = u.intersect(v)
    assert meet.dim + u.add(v).dim == u.dim + v.dim
    assert contains_subspace(u, meet) and contains_subspace(v, meet)
    assert meet == Subspace.span(4, meet.rows)  # already canonical


# ---------------------------------------------------------------------------
# the coordinate layout: Lambda^k lists its (p,q) blocks in descending p


@pytest.mark.parametrize("n", range(1, 6))
def test_layout_blocks_partition_each_degree(n):
    for k in range(-1, 2 * n + 2):
        mons, index = linalg.basis(n, k)
        assert len(mons) == (comb(2 * n, k) if k >= 0 else 0)
        assert index == {m: i for i, m in enumerate(mons)}
        stop = 0
        for p in range(min(k, n), max(0, k - n) - 1, -1):
            cols = linalg.block(n, p, k - p)
            assert cols.start == stop
            assert mons[cols] == linalg.basis(n, (p, k - p))[0]
            stop = cols.stop
        assert stop == len(mons)
        # every holomorphic degree, also one Lambda^k lacks, is one column range
        for p in range(-1, n + 2):
            cols = linalg.block(n, p, k - p)
            assert cols.start <= cols.stop
            assert mons[cols] == tuple(m for m in mons if mono_bidegree(m)[0] == p)


# ---------------------------------------------------------------------------
# reference assembly: d through AlgebraSpec.d and BigradedElement on every
# source monomial, projected to the operator's target bidegree


def _assembly_reference(cache, src_key, dst_key, transform):
    src, _ = linalg.basis(cache.n, src_key)
    dst, dst_idx = linalg.basis(cache.n, dst_key)
    rows = [[ZERO] * len(src) for _ in dst]
    for j, m in enumerate(src):
        for mm, c in transform(BigradedElement({m: S_ONE})).coeffs.items():
            rows[dst_idx[mm]][j] = c.const_value()
    return rows


def _catalog_samples(ops):
    """Every catalog entry, at the base and at regular samples of its parameters."""
    for entry in catalog():
        params = entry.spec.params or (entry.family.params if entry.family else ())
        assigns = [{}] if not entry.spec.params else []
        assigns += [{p: s for p in params} for s in ("1/2", "(1+i)/3") if params]
        for assign in assigns:
            try:
                yield f"{entry.name}{assign}", ops(entry.name, **assign)
            except (DeformationError, ScalarEvalError):
                continue  # a singular sample


def test_assembly_matches_reference_on_catalog_samples(ops):
    checked = 0
    for label, cache in _catalog_samples(ops):
        d, n = cache.spec.d, cache.n
        for k in range(-1, 2 * n + 1):
            rows = cache.d_total(k)
            assert rows == _sp(_assembly_reference(cache, k, k + 1, d)), (label, k)
            assert all(x for r in rows for x in r.values()), (label, k)
        for p in range(-1, n + 1):
            for q in range(-1, n + 1):
                want = {
                    "del": _assembly_reference(
                        cache, (p, q), (p + 1, q), lambda e: d(e).project(p + 1, q)),
                    "delbar": _assembly_reference(
                        cache, (p, q), (p, q + 1), lambda e: d(e).project(p, q + 1)),
                    "dd": _assembly_reference(
                        cache, (p, q), (p + 1, q + 1),
                        lambda e: d(d(e).project(p, q + 1)).project(p + 1, q + 1)),
                }
                for op, ref in want.items():
                    rows = cache.rows(op, (p, q))
                    assert rows == _sp(ref), (label, op, p, q)
                    assert all(x for r in rows for x in r.values()), (label, op, p, q)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("name", [e.name for e in catalog()])
@settings(max_examples=4, deadline=None)
@given(st.sampled_from(["0", "1/2", "i/3", "-1/4+i/5"]))
def test_assembled_d_matches_symbolic_d_column_by_column(name, value):
    """Each column of d_total(k) is AlgebraSpec.d of its basis monomial, on
    the entry's structure and on its family, at one sample value."""
    entry = get(name)
    for target in (entry.spec, entry.family):
        if target is None:
            continue
        try:
            spec = concretize(target, {p: parse_gauss(value) for p in target.params})
            cache = OperatorCache(spec)
        except (DeformationError, ScalarEvalError):
            continue  # a singular frame or a vanishing denominator
        for k in range(2 * spec.n + 1):
            d = cache.d_total(k)
            for c, m in enumerate(linalg.basis(cache.n, k)[0]):
                column = {r: row[c] for r, row in enumerate(d) if c in row}
                assert cache.to_element(k + 1, column) == spec.d(BigradedElement({m: S_ONE}))
