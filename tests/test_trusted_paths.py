"""Differential tests: the derived objects that skip the entry checks against
the same objects rebuilt through the checking constructors.

compose and adjoint build operators, chain +, -, scaled and boundary build
chains, expand_graph builds its multigraph, a line window its graph and
line_expansion its chain, and boundary_witness its seven operators without
checking their input again.  The operator constructor
checks each moved vector once and cycle_unitary counts flows only when
the chain is no cycle.  Each result must equal, field by field,
what the checking constructor makes of a reference computation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.chains import Chain0, Chain1, ChainError, boundary, is_cycle
from coarsek.corpus import random_cycle
from coarsek.graphs import BandedZGraph, Edge, GraphError, OrientedGraph
from coarsek.k0_map import boundary_witness, expand_graph
from coarsek.k1_map import NonCycleError, _unitary, cycle_unitary, line_expansion
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    OperatorError,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    block_key,
)
from helpers import reference_witness

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
    by_id = {e.id: e for e in g.edges}
    edges = []
    for eid, coeff in gamma.coeffs.items():
        e = by_id[eid]
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
    assert isinstance(ex, OrientedGraph)
    assert ex.vertices == ref.vertices
    assert ex.edges == ref.edges
    for x in ref.vertices:
        assert ex.in_edges(x) == ref.in_edges(x)
        assert ex.out_edges(x) == ref.out_edges(x)
        assert {y for y in ref.vertices if ex.adjacent(x, y)} == ref.neighbors(x)
    for e in ref.edges:
        assert ex._by_id[e.id] == e


# ---------------------------------------------------------------------------
# line windows


def assert_same_graph(got: OrientedGraph, ref: OrientedGraph) -> None:
    assert got.vertices == ref.vertices
    assert got.edges == ref.edges
    for x in ref.vertices:
        assert got.in_edges(x) == ref.in_edges(x)
        assert got.out_edges(x) == ref.out_edges(x)
    for e in ref.edges:
        assert got._by_id[e.id] == e


def checked_window(per_cell: int, lo: int, hi: int) -> OrientedGraph:
    """The window rebuilt by the checking constructor from unordered sets."""
    cells = range(lo, hi) if per_cell else ()
    return OrientedGraph(set(range(lo, hi + 1)), {Edge(n, n, n + 1) for n in cells})


WINDOWS = [(0, 0), (-3, -3), (-5, -1), (-4, 3), (2, 7)]


@pytest.mark.parametrize("per_cell", [0, 1])
@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_line_window_equals_the_checked_construction(per_cell, lo, hi):
    got = BandedZGraph(per_cell).window(lo, hi)
    assert_same_graph(got, checked_window(per_cell, lo, hi))


def test_an_empty_line_window_is_refused():
    with pytest.raises(GraphError, match="empty window"):
        BandedZGraph().window(1, 0)


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2])
@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_line_expansion_equals_expand_graph_over_a_checked_chain(k, lo, hi):
    graph = checked_window(1, lo, hi)
    ref = expand_graph(graph, Chain1(graph, {n: k for n in range(lo, hi)}))
    got = line_expansion(k, lo, hi)
    assert isinstance(got, OrientedGraph)
    assert_same_graph(got, ref)
    for x in ref.vertices:
        assert {y for y in ref.vertices if got.adjacent(x, y)} == ref.neighbors(x)


@pytest.mark.parametrize("k", [1.5, True, "2"])
def test_line_expansion_refuses_what_the_chain_constructor_refuses(k):
    graph = checked_window(1, -2, 2)
    with pytest.raises(ChainError) as checked:
        Chain1(graph, {n: k for n in range(-2, 2)})
    with pytest.raises(ChainError) as trusted:
        line_expansion(k, -2, 2)
    assert str(trusted.value) == str(checked.value)


def test_edge_keeps_its_fields_repr_and_hash():
    e = Edge("e1", 0, (1, "a"))
    assert (e.id, e.source, e.target) == ("e1", 0, (1, "a"))
    assert Edge(id="e1", source=0, target=(1, "a")) == e
    assert repr(e) == "Edge(id='e1', source=0, target=(1, 'a'))"
    assert hash(e) == hash(("e1", 0, (1, "a")))


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
    same(a + -b, Chain1, {k: a.coeff(k) - b.coeff(k) for k in ids})
    same(a + -a, Chain1, {})
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
    flows = [(x, len(ex.in_edges(x)), len(ex.out_edges(x))) for x in ex.vertices]
    unbalanced = [f for f in flows if f[1] != f[2]]
    assert is_cycle(gamma) == (not unbalanced)
    if unbalanced:
        with pytest.raises(NonCycleError) as got:
            cycle_unitary(gamma)
        assert got.value.vertex == unbalanced[0][0]
        assert str(got.value) == str(NonCycleError(*unbalanced[0]))
        return
    want = {x: dict(zip(ex.in_edges(x), ex.out_edges(x))) for x in ex.vertices}
    cu = cycle_unitary(gamma)
    assert [(x, list(m.items())) for x, m in cu.matching.items()] == [
        (x, list(m.items())) for x, m in want.items()
    ]
    assert cu.u == _unitary(ex, want)


# ---------------------------------------------------------------------------
# boundary_witness

ISOLATED = ("isolated", 99)  # no label of LABELS


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
