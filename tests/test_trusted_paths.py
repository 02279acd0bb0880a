"""Differential tests: the derived objects that skip the entry checks against
the same objects rebuilt through the checking constructors.

compose and adjoint build operators, chain +, -, scaled and boundary build
chains, expand_graph builds its multigraph and boundary_witness its seven
operators without checking their input again.  The operator constructor
checks each moved vector once and cycle_unitary builds the canonical
matching of a cycle unchecked.  Each result must equal, field by field,
what the checking constructor makes of a reference computation."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.chains import Chain0, Chain1, boundary, is_cycle
from coarsek.corpus import random_cycle
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import (
    ExpandedGraph,
    boundary_witness,
    expand_graph,
    order_matched_involution,
)
from coarsek.k1_map import NonCycleError, canonical_matching, cycle_unitary
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    OperatorError,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    block_key,
)

LABELS = st.recursive(
    st.integers(-3, 3) | st.text(alphabet="ab1", max_size=2),
    lambda inner: st.lists(inner, max_size=2).map(tuple),
    max_leaves=3,
)
SCALARS = st.sampled_from([0, 1])

# ---------------------------------------------------------------------------
# operators


def bases(draw):
    """A product basis, or an explicit subset of one."""
    vertices = draw(st.lists(LABELS, unique=True, min_size=1, max_size=3))
    slots = draw(
        st.lists(
            st.integers(1, 3).map(Ordinal) | st.builds(CopyEdge, LABELS, st.integers(1, 2)),
            unique=True,
            min_size=1,
            max_size=3,
        )
    )
    product = ProductBasis(vertices, slots)
    if draw(st.booleans()):
        return product
    return frozenset(b for b in product if draw(st.booleans()))


def partial_permutation(draw, domain) -> SparseBlockOperator:
    """A random partial permutation over domain, some columns sent to zero."""
    basis = sorted(domain, key=block_key)
    scalar = draw(SCALARS)
    moved = draw(st.lists(st.sampled_from(basis), unique=True, max_size=8)) if basis else []
    rows = draw(st.permutations(moved if scalar else basis))
    zero = draw(st.sets(st.sampled_from(moved))) if moved else set()
    moves = {c: None if c in zero else r for c, r in zip(moved, rows)}
    return SparseBlockOperator(domain, moves, scalar)


@st.composite
def operator_pairs(draw):
    """Two partial permutations over one basis, a product or an explicit
    subset of one."""
    domain = bases(draw)
    return partial_permutation(draw, domain), partial_permutation(draw, domain)


def matrix(a: SparseBlockOperator) -> dict:
    """Every entry of a, zeros included, as a dense dict."""
    return {(r, c): a.entry(r, c) for r in a.domain for c in a.domain}


def assert_checked_rebuild(got: SparseBlockOperator, domain, dense: dict, scalar: int):
    """got is the partial permutation dense stored against scalar, over the
    shared domain."""
    moves = {}
    for c in domain:
        rows = [r for r in domain if dense[(r, c)]]
        assert [dense[(r, c)] for r in rows] in ([], [1])
        moves[c] = rows[0] if rows else None
    want = SparseBlockOperator(domain, moves, scalar)
    assert got.domain is domain
    assert got.scalar == want.scalar
    assert got.moves == want.moves


@settings(max_examples=200, deadline=None)
@given(operator_pairs())
def test_derived_operators_equal_their_checked_rebuilds(pair):
    a, b = pair
    d = a.domain
    ma, mb = matrix(a), matrix(b)
    product = {
        (r, c): sum(ma[(r, k)] * mb[(k, c)] for k in d) for r in d for c in d
    }
    assert_checked_rebuild(a.compose(b), d, product, a.scalar * b.scalar)
    assert_checked_rebuild(
        a.adjoint(), d, {(c, r): v for (r, c), v in ma.items()}, a.scalar
    )
    # a product that sends every column to zero
    zero = SparseBlockOperator(d, {}, 0)
    assert_checked_rebuild(a.compose(zero), d, {key: 0 for key in ma}, 0)


STRAY = BlockIndex(("stray",), Ordinal(9))  # in no basis drawn here


@st.composite
def moves_cases(draw):
    """A basis and moves on it: a partial bijection with None images, or
    any map, with a key or an image outside the basis now and then."""
    domain = bases(draw)
    pool = sorted(domain, key=block_key) + [STRAY] * draw(st.integers(0, 1))
    keys = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6)) if pool else []
    if draw(st.booleans()):
        images = [
            None if draw(st.integers(0, 3)) == 0 else img
            for img in draw(st.permutations(keys))
        ]
    else:
        images = [draw(st.sampled_from(pool + [None])) for _ in keys]
        if keys and draw(st.integers(0, 3)) == 0:
            images[-1] = STRAY
    return domain, dict(zip(keys, images))


def reference_moves(domain, moves: dict) -> dict:
    """The stored moves of the identity with each moved column replaced,
    or OperatorError when that is no partial permutation of domain."""
    images = [img for img in moves.values() if img is not None]
    if not set(moves) <= set(domain):
        return OperatorError
    if len(set(images)) != len(images) or not set(images) <= set(moves):
        return OperatorError
    return {src: img for src, img in moves.items() if img != src}


@settings(max_examples=300, deadline=None)
@given(moves_cases())
def test_from_moves_equals_the_checked_construction(case):
    domain, moves = case
    want = reference_moves(domain, moves)
    if want is OperatorError:
        with pytest.raises(OperatorError):
            SparseBlockOperator(domain, moves, 1)
        return
    got = SparseBlockOperator(domain, moves, 1)
    assert got.domain is domain
    assert got.scalar == 1
    assert list(got.moves.items()) == list(want.items())
    # against the whole basis map stored with scalar 0
    full = {b: moves.get(b, b) for b in domain}
    assert got == SparseBlockOperator(domain, full, 0)


# ---------------------------------------------------------------------------
# expand_graph


@st.composite
def host_cycles(draw):
    """A multigraph with mixed int/str/tuple ids and parallel edges, and a
    1-chain on it (negative coefficients included) whose coefficients are
    stored in a shuffled order."""
    vertices = draw(st.lists(LABELS, unique=True, min_size=2, max_size=4))
    ids = draw(st.lists(LABELS, unique=True, max_size=6))
    edges = []
    for eid in ids:
        source, target = draw(st.permutations(vertices))[:2]
        edges.append(Edge(eid, source, target))
    g = OrientedGraph(vertices, edges)
    coeffs = {eid: draw(st.integers(-3, 3)) for eid in draw(st.permutations(ids))}
    return g, Chain1(g, coeffs)


def reference_expansion(g: OrientedGraph, gamma: Chain1) -> OrientedGraph:
    """The copies in coefficient order, sorted by the checking constructor."""
    edges = []
    for eid, coeff in gamma.coeffs.items():
        e = g.edge(eid)
        src, tgt = (e.source, e.target) if coeff > 0 else (e.target, e.source)
        for c in range(1, abs(coeff) + 1):
            edges.append(Edge(CopyEdge(eid, c), src, tgt))
    return OrientedGraph(g.vertices, edges)


@settings(max_examples=200, deadline=None)
@given(host_cycles())
def test_expand_graph_equals_the_checked_construction(case):
    g, gamma = case
    ex = expand_graph(g, gamma)
    ref = reference_expansion(g, gamma)
    assert isinstance(ex, ExpandedGraph)
    assert ex.vertices == ref.vertices
    assert ex.edges == ref.edges
    for x in ref.vertices:
        assert ex.in_edges(x) == ref.in_edges(x)
        assert ex.out_edges(x) == ref.out_edges(x)
        assert {y for y in ref.vertices if ex.adjacent(x, y)} == ref.neighbors(x)
    for e in ref.edges:
        assert ex.edge(e.id) == e


# ---------------------------------------------------------------------------
# chains


@settings(max_examples=200, deadline=None)
@given(host_cycles(), st.data())
def test_derived_chains_equal_their_checked_rebuilds(case, data):
    g, a = case
    ids = [e.id for e in g.edges]
    b_coeffs = {eid: data.draw(st.integers(-2, 2)) for eid in ids}
    if ids:
        for eid in data.draw(st.lists(st.sampled_from(ids), max_size=3)):
            b_coeffs[eid] = -a.coeff(eid)  # cancels a on this edge
    b = Chain1(g, b_coeffs)

    def same(got, cls, coeffs):
        want = cls(g, coeffs)
        assert type(got) is cls and got.graph is g
        assert got.coeffs == want.coeffs

    same(a + b, Chain1, {k: a.coeff(k) + b.coeff(k) for k in ids})
    same(a - b, Chain1, {k: a.coeff(k) - b.coeff(k) for k in ids})
    same(a - a, Chain1, {})
    same(-a, Chain1, {k: -a.coeff(k) for k in ids})
    for n in (-1, 0, 1, 2):
        same(a.scaled(n), Chain1, {k: n * a.coeff(k) for k in ids})
    net = {x: 0 for x in g.vertices}
    for e in g.edges:
        net[e.target] += a.coeff(e.id)
        net[e.source] -= a.coeff(e.id)
    d = boundary(a)
    same(d, Chain0, net)
    same(d + (-d), Chain0, {})
    assert is_cycle(a) == (not any(net.values()))


# ---------------------------------------------------------------------------
# cycle_unitary


@settings(max_examples=200, deadline=None)
@given(host_cycles(), st.integers(0, 2**16))
def test_cycle_unitary_matching_equals_the_checked_construction(case, seed):
    """Cycles drawn from the fundamental cycles of the host, and the host's
    own chain, which is mostly not a cycle."""
    g, chain = case
    gamma = chain if seed % 4 == 0 else random_cycle(random.Random(seed), g)
    ex = expand_graph(g, gamma)
    if not is_cycle(gamma):
        with pytest.raises(NonCycleError) as want:
            canonical_matching(ex)
        with pytest.raises(NonCycleError) as got:
            cycle_unitary(gamma)
        assert got.value.vertex == want.value.vertex
        assert str(got.value) == str(want.value)
        return
    want = canonical_matching(ex)
    cu = cycle_unitary(gamma)
    assert cu.matching.expanded is cu.expanded
    assert [(x, list(m.items())) for x, m in cu.matching.per_vertex.items()] == [
        (x, list(m.items())) for x, m in want.per_vertex.items()
    ]
    assert cu.u == cycle_unitary(gamma, want).u


# ---------------------------------------------------------------------------
# boundary_witness

ISOLATED = ("isolated", 99)  # no label of LABELS


def reference_witness(gamma: Chain1) -> tuple[dict, dict]:
    """The witness operators through the checking constructor, and the
    checks walking every vertex of the host."""
    g = expand_graph(gamma.graph, gamma)
    c = boundary(gamma)
    ceiling = max(
        (max(g.in_count(x), g.out_count(x)) for x in g.vertices), default=0
    )
    dom = frozenset(
        {BlockIndex(e.source, e.id) for e in g.edges}
        | {BlockIndex(e.target, e.id) for e in g.edges}
        | {BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, ceiling + 1)}
    )

    def diag(blocks):
        return SparseBlockOperator(dom, {b: b for b in blocks})

    def exchange(count, edges_at):
        moves = {}
        for x in g.vertices:
            ordinals = [Ordinal(i) for i in range(1, count(x) + 1)]
            swaps = order_matched_involution(ordinals, [e.id for e in edges_at(x)])
            moves.update({BlockIndex(x, a): BlockIndex(x, b) for a, b in swaps.items()})
        return SparseBlockOperator(dom, moves, 1)

    ops = {
        "v": SparseBlockOperator(
            dom,
            {BlockIndex(e.source, e.id): BlockIndex(e.target, e.id) for e in g.edges},
        ),
        "source_projection": diag(BlockIndex(e.source, e.id) for e in g.edges),
        "target_projection": diag(BlockIndex(e.target, e.id) for e in g.edges),
        "in_rank_projection": diag(
            BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, g.in_count(x) + 1)
        ),
        "out_rank_projection": diag(
            BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, g.out_count(x) + 1)
        ),
        "exchange_in": exchange(g.in_count, g.in_edges),
        "exchange_out": exchange(g.out_count, g.out_edges),
    }
    v = ops["v"]
    vv, ww = v.adjoint().compose(v), v.compose(v.adjoint())
    in_ranks = Counter(b.vertex for b, r in ww.moves.items() if r == b)
    out_ranks = Counter(b.vertex for b, r in vv.moves.items() if r == b)

    def conjugates(t, p, q):
        return t.compose(p).compose(t.adjoint()) == q

    checks = {
        "initial_projection": vv == ops["source_projection"],
        "final_projection": ww == ops["target_projection"],
        "in_ranks": all(in_ranks[x] == g.in_count(x) for x in g.vertices),
        "out_ranks": all(out_ranks[x] == g.out_count(x) for x in g.vertices),
        "in_exchange": conjugates(
            ops["exchange_in"], ops["target_projection"], ops["in_rank_projection"]
        ),
        "out_exchange": conjugates(
            ops["exchange_out"], ops["source_projection"], ops["out_rank_projection"]
        ),
        "rank_bookkeeping": all(
            g.in_count(x) - g.out_count(x) == c.coeff(x) for x in g.vertices
        ),
        "adjacency": all(
            r.vertex == col.vertex or g.adjacent(r.vertex, col.vertex)
            for col, r in v.moves.items()
        ),
    }
    return ops, checks


@settings(max_examples=200, deadline=None)
@given(host_cycles())
def test_witness_operators_equal_their_checked_rebuilds(case):
    """Parallel edges, negative coefficients and an isolated vertex."""
    host, gamma = case
    g = OrientedGraph([*host.vertices, ISOLATED], host.edges)
    gamma = Chain1(g, gamma.coeffs)
    w = boundary_witness(gamma)
    ops, checks = reference_witness(gamma)
    for name, want in ops.items():
        got = getattr(w, name)
        assert got.domain == want.domain
        assert got.scalar == want.scalar
        assert got.moves == want.moves
    assert w.checks == checks
    assert w.ok


def test_a_witness_fault_at_an_untouched_vertex_fails_both_rank_checks(monkeypatch):
    g = OrientedGraph(
        [0, 1, 2, ISOLATED], [Edge("a", 0, 1), Edge("b", 1, 2), Edge("c", 2, 0)]
    )
    gamma = Chain1(g, {"a": 1, "b": 1, "c": 1})
    assert boundary_witness(gamma).ok
    far = BlockIndex(ISOLATED, Ordinal(1))
    real = SparseBlockOperator._trusted.__func__
    built = []

    def first_gets_a_fault(cls, domain, moves, scalar):
        a = real(cls, domain, moves, scalar)
        if not built:
            a.moves[far] = far
        built.append(a)
        return a

    monkeypatch.setattr(SparseBlockOperator, "_trusted", classmethod(first_gets_a_fault))
    w = boundary_witness(gamma)
    assert w.v.moves[far] == far  # V is the faulty operator
    assert not w.checks["in_ranks"]
    assert not w.checks["out_ranks"]
