"""Differential tests: operators stored as their moved columns against the
full-matrix construction and dense reference arithmetic.

The reference builds every operator the old way, as a basis map over the
whole explicit basis with scalar 0 and every fixed vector stored as a move
onto itself, and computes products, adjoints, unitarity and the index
pairing from the materialised entries with plain loops."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek import corpus
from coarsek.intlinalg import rank as matrix_rank
from coarsek.k1_map import (
    _hybrid_intermediate,
    _unitary,
    compress_to_uniform,
    cycle_unitary,
    line_cycle_unitary,
    line_expansion,
    matching_correction,
    permutation_cycle_type,
)
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
    dump_lines,
    index_pairing,
    is_unitary_on,
    operator_to_json,
    propagation,
)
from helpers import block_rank, cycle_graph

# ---------------------------------------------------------------------------
# reference constructions over the full explicit basis


def reference_domain(g) -> frozenset:
    return frozenset(BlockIndex(x, e.id) for x in g.vertices for e in g.edges)


def reference_track_map(g, matching) -> dict:
    mapping = {}
    for x in g.vertices:
        route = matching[x]
        for e in g.edges:
            b = BlockIndex(x, e.id)
            if e.target == x:
                out = route[e]
                mapping[b] = BlockIndex(out.target, out.id)
            else:
                mapping[b] = b
    return mapping


def reference_cycle_unitary(g, matching) -> SparseBlockOperator:
    return SparseBlockOperator(reference_domain(g), reference_track_map(g, matching))


def reference_slot_permutation(domain, per_vertex) -> SparseBlockOperator:
    mapping = {
        b: BlockIndex(b.vertex, per_vertex.get(b.vertex, {}).get(b.slot, b.slot))
        for b in domain
    }
    return SparseBlockOperator(domain, mapping)


def reference_hybrid(g, alpha, beta):
    domain = reference_domain(g)
    mapping = {}
    for b in domain:
        e = next((e for e in g.in_edges(b.vertex) if e.id == b.slot), None)
        if e is None:
            mapping[b] = b
        else:
            mapping[b] = BlockIndex(alpha[b.vertex][e].target, beta[b.vertex][e].id)
    collision = None
    seen = {}
    for b in sorted(mapping, key=block_key):
        if mapping[b] in seen:
            collision = (seen[mapping[b]], b, mapping[b])
            break
        seen[mapping[b]] = b
    if collision is not None:
        return None, collision
    return SparseBlockOperator(domain, mapping), None


def reference_compression_swap(g) -> dict:
    """Entries of the conjugator of the compression, from its definition: at
    each vertex x the first in-count(x) expanded edges that are not ingoing
    trade places, in edge order, with the ingoing edges that are not among
    the first."""
    position = {e.id: i for i, e in enumerate(g.edges)}
    entries = {}
    for x in g.vertices:
        ins = {e.id for e in g.edges if e.target == x}
        first = {e.id for e in g.edges[: len(ins)]}
        out_of_place = sorted(first - ins, key=position.get)
        incoming = sorted(ins - first, key=position.get)
        swap = {**dict(zip(out_of_place, incoming)), **dict(zip(incoming, out_of_place))}
        for e in g.edges:
            entries[BlockIndex(x, swap.get(e.id, e.id)), BlockIndex(x, e.id)] = 1
    return entries


def reference_line_unitary(k, window, copy_permutations) -> SparseBlockOperator:
    lo, hi = window.lo, window.hi
    g = line_expansion(k, lo, hi)
    domain = reference_domain(g)
    slots = {e.id for e in g.edges}
    step = 1 if k > 0 else -1
    mapping = {}
    for x in range(lo, hi + 1):
        ins = sorted((e for e in g.edges if e.target == x), key=lambda e: e.id.copy)
        perm = copy_permutations.get(x)
        for j, e in enumerate(ins):
            out_copy = (perm[j] + 1) if perm is not None else e.id.copy
            out_slot = CopyEdge(e.id.edge + step, out_copy)
            if out_slot in slots and lo <= x + step <= hi:
                mapping[BlockIndex(x, e.id)] = BlockIndex(x + step, out_slot)
    for b in domain:
        is_track = b.slot.edge == (b.vertex - 1 if k > 0 else b.vertex)
        if b not in mapping and not is_track:
            mapping[b] = b
    return SparseBlockOperator(domain, mapping)


# ---------------------------------------------------------------------------
# dense reference arithmetic on materialised entries


def from_entries(domain, entries: dict) -> SparseBlockOperator:
    """The operator with the given entries, each 1, stored with scalar 0."""
    assert set(entries.values()) <= {1}
    return SparseBlockOperator(domain, {c: r for (r, c) in entries})


def dense_compose(a: dict, b: dict) -> dict:
    b_rows = {}
    for (k, c), bv in b.items():
        b_rows.setdefault(k, []).append((c, bv))
    out = {}
    for (r, k), av in a.items():
        for c, bv in b_rows.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + av * bv
    return {key: v for key, v in out.items() if v}


def dense_adjoint(a: dict) -> dict:
    return {(c, r): v for (r, c), v in a.items()}


def dense_is_unitary_on(a: dict, region) -> bool:
    for gram in (
        dense_compose(dense_adjoint(a), a),
        dense_compose(a, dense_adjoint(a)),
    ):
        for (r, c), v in gram.items():
            if (r in region or c in region) and v != (1 if r == c else 0):
                return False
        if any(gram.get((b, b), 0) != 1 for b in region):
            return False
    return True


def dense_index(a: dict, domain, window: Window):
    p = max((abs(r.vertex - c.vertex) for (r, c) in a), default=0)
    if window.margin < 2 * p or window.radius < p:
        return MarginError
    interior = {b for b in domain if window.is_central(b.vertex)}
    if not dense_is_unitary_on(a, interior):
        return OperatorError
    column_mass = {}
    for (r, c), v in a.items():
        if r.vertex >= 0:
            column_mass[c] = column_mass.get(c, 0) + v * v
    return sum((b.vertex >= 0) - column_mass.get(b, 0) for b in interior)


def outcome(fn, *args):
    try:
        return fn(*args)
    except OperatorError as exc:
        return type(exc)


def dumped(writer, a: SparseBlockOperator) -> str:
    buf = io.StringIO()
    writer(a, buf)
    return buf.getvalue()


def assert_same_operator(new: SparseBlockOperator, ref: SparseBlockOperator):
    assert new == ref and ref == new
    assert new.domain == ref.domain and ref.domain == new.domain
    assert len(new.domain) == len(ref.domain)
    assert new.entries == ref.entries
    for writer in (dump_lines, operator_to_json):
        assert dumped(writer, new) == dumped(writer, ref)


def assert_same_algebra(new: SparseBlockOperator, ref: SparseBlockOperator):
    dense = ref.entries
    adj = new.adjoint()
    assert adj == ref.adjoint()
    assert adj.entries == dense_adjoint(dense)
    for product, expected in (
        (new.compose(adj), dense_compose(dense, dense_adjoint(dense))),
        (adj.compose(new), dense_compose(dense_adjoint(dense), dense)),
        (new.compose(new), dense_compose(dense, dense)),
    ):
        assert product.entries == expected
        assert product == from_entries(ref.domain, expected)
    # mixed representations multiply and compare like the same matrices
    assert new.compose(ref) == ref.compose(ref) == ref.compose(new)
    assert is_unitary_on(new) == is_unitary_on(ref) == dense_is_unitary_on(dense, ref.domain)
    assert permutation_cycle_type(new) == permutation_cycle_type(ref)


# ---------------------------------------------------------------------------
# finite cycles from the corpus


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_cycle_unitary_matches_full_construction(seed):
    rng = random.Random(seed)
    g = corpus.random_graph(rng, max_vertices=8, max_edges=12)
    gamma = corpus.random_cycle(rng, g)
    cu = cycle_unitary(gamma)
    ref = reference_cycle_unitary(cu.expanded, cu.matching)
    assert_same_operator(cu.u, ref)
    assert_same_algebra(cu.u, ref)
    assert is_unitary_on(cu.u)
    assert len(cu.u.moves) <= len(cu.expanded.edges)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_rerouted_matchings_and_corrections_match_full_construction(seed):
    rng = random.Random(seed)
    g = corpus.random_graph(rng, max_vertices=7, max_edges=12)
    # sums of fundamental cycles reroute to other target vertices, where
    # the hybrid lands on fixed vectors; multiples of one cycle never do
    if seed % 2:
        gamma = corpus.random_multiplicity_cycle(rng, g)
    else:
        gamma = corpus.random_cycle(rng, g, nonzero=True)
    if gamma is None or not gamma.coeffs:
        gamma = corpus.figure_eight()[1]
    cu = cycle_unitary(gamma)
    ex, alpha = cu.expanded, cu.matching
    beta = corpus.random_matching(rng, ex)
    u_beta = _unitary(ex, beta)
    assert_same_operator(u_beta, reference_cycle_unitary(ex, beta))
    correction = matching_correction(ex, alpha, beta)
    per_vertex = {}
    for x in ex.vertices:
        alpha_inv = {out: e for e, out in alpha[x].items()}
        per_vertex[x] = {e.id: alpha_inv[beta[x][e]].id for e in ex.in_edges(x)}
    ref_corr = reference_slot_permutation(reference_domain(ex), per_vertex)
    assert_same_operator(correction, ref_corr)
    assert_same_algebra(correction, ref_corr)
    hybrid, collision = _hybrid_intermediate(ex, alpha, beta)
    ref_hybrid, ref_collision = reference_hybrid(ex, alpha, beta)
    assert collision == ref_collision
    if collision is None:
        assert_same_operator(hybrid, ref_hybrid)
        assert_same_algebra(hybrid, ref_hybrid)
    else:
        assert hybrid is None and ref_hybrid is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_compression_matches_dense_conjugation(seed):
    rng = random.Random(seed)
    g = corpus.random_graph(rng, max_vertices=7, max_edges=10)
    gamma = corpus.random_cycle(rng, g)
    cu = cycle_unitary(gamma)
    if not cu.expanded.edges:
        return
    res = compress_to_uniform(cu)
    ex = cu.expanded
    number = {e.id: i for i, e in enumerate(ex.edges, start=1)}
    t = reference_compression_swap(ex)
    conj = dense_compose(dense_compose(dense_adjoint(t), cu.u.entries), t)

    def relabel(b):
        return BlockIndex(b.vertex, Ordinal(number[b.slot]))

    ref = from_entries(
        frozenset(relabel(b) for b in reference_domain(ex)),
        {(relabel(r), relabel(c)): v for (r, c), v in conj.items()},
    )
    assert_same_operator(res.u_tilde, ref)
    assert res.round_trip_ok and res.confinement_ok


# ---------------------------------------------------------------------------
# line windows


@st.composite
def line_cases(draw):
    k = draw(st.integers(-3, 3))
    window = Window(radius=draw(st.integers(0, 5)), margin=draw(st.integers(0, 6)))
    perms = {}
    if k:
        vertices = st.integers(window.lo, window.hi)
        for x in draw(st.lists(vertices, max_size=4, unique=True)):
            perms[x] = tuple(draw(st.permutations(range(abs(k)))))
    return k, window, perms


@settings(max_examples=50, deadline=None)
@given(line_cases())
def test_line_unitary_matches_full_construction(case):
    k, window, perms = case
    cu = line_cycle_unitary(k, window, perms)
    ref = reference_line_unitary(k, window, perms)
    assert_same_operator(cu.u, ref)
    assert_same_algebra(cu.u, ref)
    interior = window.interior(cu.u.domain)
    assert interior == window.interior(ref.domain)
    assert is_unitary_on(cu.u, interior) == is_unitary_on(ref, interior)
    assert is_unitary_on(cu.u, interior) == dense_is_unitary_on(ref.entries, interior)
    got = outcome(index_pairing, cu.u, window)
    assert got == outcome(index_pairing, ref, window)
    assert got == dense_index(ref.entries, ref.domain, window)
    assert len(cu.u.moves) <= len(cu.expanded.edges)


def test_line_index_pairing_matches_dense_reference_on_all_classes():
    window = Window(radius=5, margin=6)
    for k in range(-3, 4):
        ref = reference_line_unitary(k, window, {})
        assert index_pairing(line_cycle_unitary(k, window).u, window) == -k
        assert dense_index(ref.entries, ref.domain, window) == -k


LINE_DOMAIN = ProductBasis(range(-2, 3), (Ordinal(1), Ordinal(2)))
LINE_BASIS = sorted(LINE_DOMAIN, key=block_key)


@st.composite
def local_signed_permutations(draw):
    """Each slot lane shifted one vertex either way, truncated at the ends,
    or left for disjoint swaps of vectors at most one vertex apart; stored
    against a scalar of 0 or 1, with a few other columns sent to zero."""
    s = draw(st.integers(0, 1))
    image = {}
    for slot in LINE_DOMAIN.slots:
        step = draw(st.integers(-1, 1))
        for x in LINE_DOMAIN.vertices if step else ():
            target = BlockIndex(x + step, slot)
            image[BlockIndex(x, slot)] = target if target in LINE_DOMAIN else None
    pairs = st.tuples(st.sampled_from(LINE_BASIS), st.sampled_from(LINE_BASIS))
    for x, y in draw(st.lists(pairs, max_size=5)):
        if abs(x.vertex - y.vertex) <= 1 and x not in image and y not in image:
            image[x], image[y] = y, x
    zero = draw(st.sets(st.sampled_from(LINE_BASIS), max_size=2))
    moves = dict(image)
    for c in LINE_BASIS:
        if c not in image:
            # with scalar 0 a fixed vector is a move onto itself
            moves[c] = None if c in zero else c
    return SparseBlockOperator(LINE_DOMAIN, moves, s)


@settings(max_examples=200, deadline=None)
@given(local_signed_permutations(), st.integers(0, 2), st.integers(0, 4))
def test_index_pairing_matches_dense_reference_at_any_scalar(a, radius, margin):
    window = Window(radius=radius, margin=margin)
    assert outcome(index_pairing, a, window) == dense_index(a.entries, a.domain, window)


# ---------------------------------------------------------------------------
# arbitrary splits of the same matrix


DOMAIN = ProductBasis(range(3), (Ordinal(1), Ordinal(2)))


@st.composite
def split_operators(draw):
    """A partial permutation with a random scalar and random moves, some
    to zero, plus the same matrix stored with scalar 0 over the explicit
    basis."""
    basis = sorted(DOMAIN)
    scalar = draw(st.integers(0, 1))
    moved = draw(st.lists(st.sampled_from(basis), unique=True))
    rows = draw(st.permutations(moved if scalar else basis))
    zero = draw(st.sets(st.sampled_from(basis)))
    op = SparseBlockOperator(
        DOMAIN, {c: None if c in zero else r for c, r in zip(moved, rows)}, scalar
    )
    return op, from_entries(frozenset(basis), op.entries)


@settings(max_examples=80, deadline=None)
@given(split_operators(), split_operators())
def test_arbitrary_splits_behave_as_their_matrices(pair_a, pair_b):
    a, a_ref = pair_a
    b, b_ref = pair_b
    assert_same_operator(a, a_ref)
    assert_same_algebra(a, a_ref)
    assert a.compose(b).entries == dense_compose(a_ref.entries, b_ref.entries)
    assert a.compose(b) == a_ref.compose(b_ref) == a.compose(b_ref)
    assert (a == b) == (a_ref.entries == b_ref.entries)
    assert a.is_zero() == (not a_ref.entries)
    for r in DOMAIN:
        for c in DOMAIN:
            assert a.entry(r, c) == a_ref.entries.get((r, c), 0)
    slots = DOMAIN.slots
    for x in range(3):
        for y in range(3):
            # the block of a - 1
            block = [
                [
                    a_ref.entry(BlockIndex(x, rs), BlockIndex(y, cs)) - (x == y and rs == cs)
                    for cs in slots
                ]
                for rs in slots
            ]
            assert block_rank(a, x, y) == block_rank(a_ref, x, y) == matrix_rank(block)
    assert propagation(a) == propagation(a_ref)
    for region in (DOMAIN, frozenset(), frozenset(bb for bb in DOMAIN if bb.vertex == 1)):
        assert is_unitary_on(a, region) == dense_is_unitary_on(a_ref.entries, region)


def test_identity_equals_explicit_diagonal():
    for dom in (DOMAIN, frozenset(DOMAIN), ProductBasis((), (Ordinal(1),))):
        one = SparseBlockOperator.identity(dom)
        explicit = SparseBlockOperator(dom, {b: b for b in dom})
        assert one == explicit and explicit == one
        assert one.entries == explicit.entries
        assert dumped(dump_lines, one) == dumped(dump_lines, explicit)
        assert one.compose(explicit) == explicit.compose(one) == one
        assert explicit.adjoint() == one
    assert SparseBlockOperator.identity(DOMAIN) != SparseBlockOperator(DOMAIN)
    # the scalar-1 identity with every column sent to zero is the zero map
    zeroed = SparseBlockOperator(DOMAIN, {b: None for b in DOMAIN}, 1)
    assert zeroed == SparseBlockOperator(DOMAIN) and zeroed.is_zero()
    assert SparseBlockOperator(DOMAIN) == zeroed


def test_product_basis_is_the_set_of_its_vectors():
    explicit = frozenset(DOMAIN)
    assert len(explicit) == len(DOMAIN) == 6
    assert DOMAIN == explicit and explicit == DOMAIN
    assert BlockIndex(2, Ordinal(2)) in DOMAIN
    assert BlockIndex(3, Ordinal(1)) not in DOMAIN
    assert ProductBasis((), (Ordinal(1),)) == ProductBasis((0,), ()) == frozenset()
    assert DOMAIN != ProductBasis(range(3), (Ordinal(1),))
    with pytest.raises(OperatorError):
        ProductBasis((0, 0), (Ordinal(1),))


def test_moves_must_stay_injective():
    a, b = BlockIndex(0, Ordinal(1)), BlockIndex(0, Ordinal(2))
    with pytest.raises(OperatorError):
        # b stays fixed, so a cannot land on it too
        SparseBlockOperator(DOMAIN, {a: b}, 1)
    swap = SparseBlockOperator(DOMAIN, {a: b, b: a}, 1)
    assert swap == SparseBlockOperator(DOMAIN, {v: {a: b, b: a}.get(v, v) for v in DOMAIN})


# ---------------------------------------------------------------------------
# storage scales with the moved vectors, not with the basis


@pytest.mark.parametrize("k", [-3, -1, 1, 2])
@pytest.mark.parametrize("radius", [8, 32, 64])
def test_line_defect_storage_is_linear_in_expanded_edges(k, radius):
    cu = line_cycle_unitary(k, Window(radius=radius, margin=8))
    edges = len(cu.expanded.edges)
    assert len(cu.u.moves) <= edges < len(cu.u.domain)


def test_cycle_defect_storage_is_linear_in_expanded_edges():
    rng = random.Random(5)
    for _ in range(20):
        g = corpus.random_graph(rng)
        cu = cycle_unitary(corpus.random_cycle(rng, g))
        assert len(cu.u.moves) <= len(cu.expanded.edges)
    g = cycle_graph(64)
    cu = cycle_unitary(corpus.random_cycle(random.Random(0), g))
    assert len(cu.u.moves) <= len(cu.expanded.edges)
