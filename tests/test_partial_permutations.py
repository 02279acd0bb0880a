"""Differential tests of the partial-permutation core of SparseBlockOperator.

Every operator is drawn as raw moves and a scalar over a product or an
explicit basis with mixed int, str and tuple labels, zero columns included.
The oracle is a dense matrix built from the draw alone, never from the
operator: products, adjoints, equality, unitarity (the product check of
test_unitarity), the index pairing (the trace of P - u*Pu), the block ranks
of u - 1 (elimination by intlinalg.rank) and both dumps (the reference
writers of test_dump_streaming) are computed from it with plain loops."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dump_streaming import reference_json, reference_text
from test_unitarity import product_is_unitary_on

from coarsek.intlinalg import rank as matrix_rank
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    MarginError,
    OperatorError,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    Window,
    block_key,
    block_rank,
    diagonal_block_ranks,
    dump_lines,
    index_pairing,
    is_unitary_on,
    operator_to_json,
    propagation,
)

LABELS = st.recursive(
    st.integers(-3, 3) | st.text(alphabet="ab1", max_size=2),
    lambda inner: st.lists(inner, max_size=2).map(tuple),
    max_leaves=3,
)
SLOTS = st.integers(1, 3).map(Ordinal) | st.builds(CopyEdge, LABELS, st.integers(1, 2))


def bases(draw, vertices):
    """A product basis over vertices, or an explicit subset of one."""
    slots = draw(st.lists(SLOTS, unique=True, min_size=1, max_size=3))
    product = ProductBasis(vertices, slots)
    if draw(st.booleans()):
        return product
    return frozenset(b for b in product if draw(st.booleans()))


def draw_moves(draw, basis) -> tuple[dict, int]:
    """Raw moves and a scalar: with scalar 0 a partial injection of basis,
    with scalar 1 a permutation of the moved columns; some columns go to
    zero, and some moves are fixed points the constructor drops."""
    scalar = draw(st.integers(0, 1))
    moved = draw(st.lists(st.sampled_from(basis), unique=True)) if basis else []
    rows = draw(st.permutations(moved if scalar else basis))
    zero = draw(st.sets(st.sampled_from(moved))) if moved else set()
    return {c: None if c in zero else r for c, r in zip(moved, rows)}, scalar


def dense_of(domain, moves: dict, scalar: int) -> dict:
    """Every nonzero entry of the drawn matrix."""
    out = {}
    for c in domain:
        r = moves[c] if c in moves else (c if scalar else None)
        if r is not None:
            out[(r, c)] = 1
    return out


def dense_compose(a: dict, b: dict) -> dict:
    out: dict = {}
    for (k, c), bv in b.items():
        for (r, k2), av in a.items():
            if k2 == k:
                out[(r, c)] = out.get((r, c), 0) + av * bv
    return {key: v for key, v in out.items() if v}


def dense_adjoint(a: dict) -> dict:
    return {(c, r): v for (r, c), v in a.items()}


@st.composite
def operator_pairs(draw):
    """Two drawn operators over one basis, with their dense matrices."""
    vertices = draw(st.lists(LABELS, unique=True, min_size=1, max_size=3))
    domain = bases(draw, vertices)
    basis = sorted(domain, key=block_key)
    out = []
    for _ in range(2):
        moves, scalar = draw_moves(draw, basis)
        out.append((SparseBlockOperator(domain, moves, scalar), dense_of(domain, moves, scalar)))
    return out


def streamed(writer, a) -> str:
    buf = io.StringIO()
    writer(a, buf)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(operator_pairs())
def test_partial_permutations_behave_as_their_dense_matrices(pair):
    (a, da), (b, db) = pair
    d = a.domain
    assert a.entries == da and b.entries == db
    for r in d:
        for c in d:
            assert a.entry(r, c) == da.get((r, c), 0)
    ab = a.compose(b)
    assert ab.entries == dense_compose(da, db)
    assert ab.scalar == a.scalar * b.scalar
    assert a.adjoint().entries == dense_adjoint(da)
    assert a.adjoint().adjoint() == a
    assert (a == b) == (da == db) == (b == a)
    # the same matrix stored with scalar 0 over every column
    explicit = SparseBlockOperator(d, {c: r for (r, c) in da})
    assert a == explicit and explicit == a
    assert a.is_zero() == (not da)
    for region in (None, frozenset(), frozenset(list(d)[::2])):
        assert is_unitary_on(a, region) == product_is_unitary_on(a, region)
    assert streamed(dump_lines, a) == reference_text(a)
    assert streamed(operator_to_json, a) == reference_json(a)
    diagonal = diagonal_block_ranks(a)
    for x in {c.vertex for c in d}:
        for y in {c.vertex for c in d}:
            rows = [c.slot for c in d if c.vertex == x]
            cols = [c.slot for c in d if c.vertex == y]
            block = [
                [
                    da.get((BlockIndex(x, rs), BlockIndex(y, cs)), 0)
                    - (x == y and rs == cs)
                    for cs in cols
                ]
                for rs in rows
            ]
            assert block_rank(a, x, y) == matrix_rank(block)
            if x == y:
                assert diagonal[x] == matrix_rank(block)


# ---------------------------------------------------------------------------
# the line: propagation and the index pairing


@st.composite
def line_operators(draw):
    """A local partial permutation on a window of the line: each slot lane
    shifted one vertex either way or left alone, then a few exchanges of
    vectors at most one vertex apart and a few columns sent to zero."""
    window = Window(radius=draw(st.integers(0, 2)), margin=draw(st.integers(0, 5)))
    vertices = range(window.lo, window.hi + 1)
    domain = bases(draw, vertices)
    basis = sorted(domain, key=block_key)
    image = {b: b for b in basis}
    for slot in {b.slot for b in basis}:
        step = draw(st.integers(-1, 1))
        for x in vertices if step else ():
            if BlockIndex(x, slot) in domain:
                target = BlockIndex(x + step, slot)
                image[BlockIndex(x, slot)] = target if target in domain else None
    if basis:
        for p, q in draw(st.lists(st.tuples(st.sampled_from(basis), st.sampled_from(basis)), max_size=4)):
            if abs(p.vertex - q.vertex) <= 1:
                image[p], image[q] = image[q], image[p]
        for c in draw(st.sets(st.sampled_from(basis), max_size=2)):
            image[c] = None
    scalar = draw(st.integers(0, 1))
    return SparseBlockOperator(domain, image, scalar), dense_of(domain, image, scalar), window


def dense_index(a: dict, domain, window: Window):
    """The trace of P - u*Pu over the window interior, or the error the
    index pairing must raise."""
    p = max((abs(r.vertex - c.vertex) for (r, c) in a), default=0)
    if window.margin < 2 * p or window.radius < p:
        return MarginError
    interior = frozenset(b for b in domain if window.is_central(b.vertex))
    # a partial permutation is unitary on b when column b and row b each
    # hold one entry
    in_column = [sum(1 for (_, c) in a if c == b) for b in interior]
    in_row = [sum(1 for (r, _) in a if r == b) for b in interior]
    if set(in_column + in_row) - {1}:
        return OperatorError
    mass = {c: 1 for (r, c) in a if r.vertex >= 0}
    return sum((b.vertex >= 0) - mass.get(b, 0) for b in interior)


def outcome(fn, *args):
    try:
        return fn(*args)
    except OperatorError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(line_operators())
def test_index_pairing_is_the_dense_trace_on_the_line(case):
    a, da, window = case
    assert a.entries == da
    assert propagation(a) == max((abs(r.vertex - c.vertex) for (r, c) in da), default=0)
    assert outcome(index_pairing, a, window) == dense_index(da, a.domain, window)


# ---------------------------------------------------------------------------
# the constructor's refusals

DOMAIN = ProductBasis(range(2), (Ordinal(1), Ordinal(2)))
A, B, C = BlockIndex(0, Ordinal(1)), BlockIndex(0, Ordinal(2)), BlockIndex(1, Ordinal(1))
OUTSIDE = BlockIndex(5, Ordinal(1))


@pytest.mark.parametrize("scalar", [2, -1, True, 1.0])
def test_a_scalar_other_than_the_int_0_or_1_is_refused(scalar):
    with pytest.raises(OperatorError, match=rf"^scalar must be the integer 0 or 1, got {scalar!r}$"):
        SparseBlockOperator(DOMAIN, {}, scalar)


@pytest.mark.parametrize("scalar", [0, 1])
def test_an_image_outside_the_basis_is_refused(scalar):
    with pytest.raises(OperatorError, match=r"^row .* outside the declared basis$"):
        SparseBlockOperator(DOMAIN, {A: OUTSIDE}, scalar)
    with pytest.raises(OperatorError, match=r"^column .* outside the declared basis$"):
        SparseBlockOperator(DOMAIN, {OUTSIDE: A}, scalar)


@pytest.mark.parametrize("scalar", [0, 1])
def test_two_columns_into_one_row_are_refused(scalar):
    with pytest.raises(OperatorError, match=r"^two columns are sent into row "):
        SparseBlockOperator(DOMAIN, {A: C, B: C, C: None}, scalar)


def test_a_scalar_one_image_onto_a_fixed_vector_is_refused():
    with pytest.raises(OperatorError, match=r"^column .* is sent into row .* of a fixed vector$"):
        SparseBlockOperator(DOMAIN, {A: B}, 1)
    # with scalar 0 the vector B is zero, so its row is free
    assert SparseBlockOperator(DOMAIN, {A: B}, 0).entries == {(B, A): 1}


def test_stored_moves_are_canonical():
    # fixed points under scalar 1 and zero columns under scalar 0 are the
    # default, so they are not stored
    assert SparseBlockOperator(DOMAIN, {A: A, B: C, C: B}, 1).moves == {B: C, C: B}
    assert SparseBlockOperator(DOMAIN, {A: A, B: None}, 0).moves == {A: A}
    assert SparseBlockOperator(DOMAIN, {A: None}, 1).moves == {A: None}
