"""Differential tests for the random corpus that `coarsek verify` runs on.

The corpus generators build their graphs and chains from parts they make
valid, so they skip the checking constructors: OrientedGraph._trusted,
FiniteChain._trusted and tuple.__new__ for the NamedTuples.  So do
fundamental_cycle, and build_projection_pair and boundary_witness for their
basis vectors.  Over 200 seeds each result must equal what the checking
constructors make of the same parts, in the same order, and each generator
must draw the same random numbers as its reference below, which is the
generator written with the checking constructors.

The witness basis is a frozenset, whose iteration order follows the hash
seed, so CI also runs this file under pinned hash seeds."""

import random
import signal
from itertools import combinations

import pytest

from coarsek import corpus
from coarsek.chains import (
    Chain0,
    Chain1,
    boundary,
    fundamental_cycle,
    is_cycle,
    spanning_forest,
)
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import boundary_witness, build_projection_pair
from coarsek.operators import BlockIndex, Ordinal, ProductBasis, SparseBlockOperator
from helpers import reference_witness

SEEDS = range(200)

# ---------------------------------------------------------------------------
# references: the generators through the checking constructors


def reference_random_graph(rng, max_vertices=30, max_edges=60):
    n = rng.randint(2, max_vertices)
    pairs = list(combinations(range(n), 2))
    cap = min(max_edges, len(pairs))
    m = rng.randint(min(1, cap), cap)
    chosen = rng.sample(pairs, m)
    edges = []
    for i, (u, v) in enumerate(sorted(chosen)):
        if rng.random() < 0.5:
            u, v = v, u
        edges.append(Edge(f"e{i}", u, v))
    return OrientedGraph(range(n), edges)


def reference_tree_edges(rng, n):
    edges = []
    for i in range(1, n):
        p = rng.randrange(i)
        u, v = (p, i) if rng.random() < 0.5 else (i, p)
        edges.append(Edge(f"t{i}", u, v))
    return edges


def reference_tree_plus_edges(rng, n, extra):
    edges = reference_tree_edges(rng, n)
    for i in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append(Edge(f"x{i}", u, v))
    return OrientedGraph(range(n), edges)


def reference_random_chain1(rng, g, bound=3):
    if not g.edges:
        return Chain1(g, {})
    m = rng.randint(1, min(len(g.edges), 8))
    picked = rng.sample(list(g.edges), m)
    return Chain1(
        g, {e.id: rng.choice([v for v in range(-bound, bound + 1) if v]) for e in picked}
    )


def reference_random_chain0(rng, g, bound=3):
    m = rng.randint(1, min(len(g.vertices), 8))
    picked = rng.sample(list(g.vertices), m)
    return Chain0(
        g, {v: rng.choice([x for x in range(-bound, bound + 1) if x]) for v in picked}
    )


def reference_pair_operators(values: dict) -> tuple:
    """f and g of the projection pair of the chain values, with every basis
    vector built by the NamedTuple constructors."""
    ceiling = max((abs(v) for v in values.values()), default=0)
    dom = ProductBasis(values, [Ordinal(i) for i in range(1, ceiling + 1)])
    f_moves, g_moves = {}, {}
    for x, cx in values.items():
        for i in range(1, abs(cx) + 1):
            b = BlockIndex(x, Ordinal(i))
            (f_moves if cx > 0 else g_moves)[b] = b
    return SparseBlockOperator(dom, f_moves), SparseBlockOperator(dom, g_moves)


# ---------------------------------------------------------------------------
# comparisons


def assert_checked_graph(got: OrientedGraph, rng: random.Random) -> None:
    """got is what the checking constructor makes of its own parts, handed
    over in a shuffled order: same vertices and the same edges in the same
    order, each an Edge."""
    vertices, edges = list(got.vertices), list(got.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    want = OrientedGraph(vertices, edges)
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert all(type(e) is Edge for e in got.edges)
    assert got == want and want == got


def assert_same_chain(got, want) -> None:
    assert type(got) is type(want)
    assert got == want
    assert list(got.coeffs.items()) == list(want.coeffs.items())


def assert_checked_chain(got) -> None:
    assert_same_chain(got, type(got)(got.graph, got.coeffs))


def assert_same_operator(got: SparseBlockOperator, want: SparseBlockOperator) -> None:
    assert got.domain == want.domain
    assert got.scalar == want.scalar
    assert got.moves == want.moves


# ---------------------------------------------------------------------------
# graphs


@pytest.mark.parametrize("sizes", [(30, 60), (12, 24), (14, 28), (10, 15)])
def test_random_graphs_equal_the_checked_construction(sizes):
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = corpus.random_graph(rng, *sizes)
        want = reference_random_graph(ref_rng, *sizes)
        assert (got.vertices, got.edges) == (want.vertices, want.edges)
        assert rng.getstate() == ref_rng.getstate()
        assert_checked_graph(got, random.Random(-seed))


def test_trees_and_trees_with_extra_edges_equal_the_checked_construction():
    for seed in SEEDS:
        n, extra = seed % 12 + 1, seed % 9
        rng, ref_rng = random.Random(seed), random.Random(seed)
        tree = corpus.tree_plus_edges(rng, n, 0)
        assert tree == OrientedGraph(range(n), reference_tree_edges(ref_rng, n))
        assert_checked_graph(tree, random.Random(-seed))
        if n < 2:
            continue  # no extra edge joins two distinct vertices
        got = corpus.tree_plus_edges(rng, n, extra)
        want = reference_tree_plus_edges(ref_rng, n, extra)
        assert (got.vertices, got.edges) == (want.vertices, want.edges)
        assert rng.getstate() == ref_rng.getstate()
        assert_checked_graph(got, random.Random(-seed))


def test_extra_edges_on_fewer_than_two_vertices_are_refused_at_once():
    # an extra edge needs two distinct endpoints; a generator that redraws
    # the second one would loop forever, so an alarm turns a hang into a
    # failure
    def hang(signum, frame):
        raise TimeoutError("tree_plus_edges did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for n, extra in ((1, 1), (1, 4), (0, 1)):
            rng = random.Random(0)
            state = rng.getstate()
            with pytest.raises(ValueError, match=f"extra = {extra} needs n >= 2, got n = {n}"):
                corpus.tree_plus_edges(rng, n, extra)
            assert rng.getstate() == state  # refused before anything is drawn
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", range(6))
def test_all_connected_graphs_equal_the_checked_construction(n):
    shuffler = random.Random(n)
    for g in corpus.all_connected_graphs(n):
        assert_checked_graph(g, shuffler)


def test_a_graph_equals_itself_and_its_checked_rebuild():
    g = corpus.random_graph(random.Random(0))
    rebuilt = OrientedGraph(g.vertices, g.edges)
    assert g == g and g == rebuilt and rebuilt == g
    assert g != OrientedGraph(g.vertices, g.edges[1:])


# ---------------------------------------------------------------------------
# chains


def test_random_chains_equal_the_checked_construction():
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        g = corpus.random_graph(rng)
        ref_g = reference_random_graph(ref_rng)
        assert_same_chain(corpus.random_chain1(rng, g), reference_random_chain1(ref_rng, ref_g))
        assert_same_chain(corpus.random_chain0(rng, g), reference_random_chain0(ref_rng, ref_g))
        assert rng.getstate() == ref_rng.getstate()


def test_a_graph_without_edges_has_the_zero_random_chain():
    g = OrientedGraph([0, 1], [])
    rng, ref_rng = random.Random(5), random.Random(5)
    assert_same_chain(corpus.random_chain1(rng, g), reference_random_chain1(ref_rng, g))
    assert rng.getstate() == ref_rng.getstate()


def test_fundamental_and_random_cycles_equal_the_checked_construction():
    for seed in SEEDS:
        rng = random.Random(seed)
        g = corpus.random_graph(rng, 14, 28)
        _, up = spanning_forest(g)
        tree = {e.id for e in up.values() if e is not None}
        for e in g.edges:
            if e.id not in tree:
                gamma = fundamental_cycle(g, up, e)
                assert_checked_chain(gamma)
                assert gamma.coeff(e.id) == 1 and is_cycle(gamma)
        for gamma in (corpus.random_cycle(rng, g), corpus.random_multiplicity_cycle(rng, g)):
            if gamma is not None:
                assert_checked_chain(gamma)
                assert is_cycle(gamma)


def test_boundaries_of_random_chains_equal_the_checked_construction():
    for seed in SEEDS:
        rng = random.Random(seed)
        g = corpus.random_graph(rng)
        gamma = corpus.random_chain1(rng, g)
        by_id = {e.id: e for e in g.edges}
        net = {}
        for eid, v in gamma.coeffs.items():
            e = by_id[eid]
            net[e.target] = net.get(e.target, 0) + v
            net[e.source] = net.get(e.source, 0) - v
        d = boundary(gamma)
        assert d == Chain0(g, net)
        assert is_cycle(gamma) == d.is_zero()


# ---------------------------------------------------------------------------
# projection pairs and witnesses


def test_projection_pairs_equal_the_reference_built_by_namedtuples():
    for seed in SEEDS:
        rng = random.Random(seed)
        g = corpus.random_graph(rng)
        for c in (boundary(corpus.random_chain1(rng, g)), corpus.random_chain0(rng, g)):
            pair = build_projection_pair(c)
            values = {x: c.coeff(x) for x in g.vertices}
            want_f, want_g = reference_pair_operators(values)
            assert_same_operator(pair.f, want_f)
            assert_same_operator(pair.g, want_g)


def test_witnesses_of_random_chains_equal_the_reference_built_by_namedtuples():
    for seed in SEEDS:
        rng = random.Random(seed)
        g = corpus.random_graph(rng)
        gamma = corpus.random_chain1(rng, g)
        w = boundary_witness(gamma)
        ops, checks = reference_witness(gamma)
        for name, want in ops.items():
            assert_same_operator(getattr(w, name), want)
        assert w.checks == checks
