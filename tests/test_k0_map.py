import random

import pytest

from coarsek.chains import BandedZChain, Chain0, Chain1, boundary, uniform_bound
from coarsek.corpus import random_chain0, random_chain1, random_graph
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import (
    boundary_witness,
    build_projection_pair,
    expand_graph,
    k0_signature,
    order_matched_involution,
    slot_ceiling,
)
from coarsek.operators import BlockIndex, CopyEdge, Ordinal, Window
from helpers import triangle_with_chord_orientation


def single_edge():
    return OrientedGraph([0, 1], [Edge("e", 0, 1)])


def test_zero_chain_gives_zero_projections():
    g = single_edge()
    pair = build_projection_pair(Chain0(g, {}))
    assert pair.f.is_zero() and pair.g.is_zero()
    assert k0_signature(pair) == 0


def test_signed_chain_splits_between_f_and_g():
    g = OrientedGraph(["a", "b", "c"], [])
    pair = build_projection_pair(Chain0(g, {"a": 2, "b": -1}))
    f_blocks = {(r.vertex, r.slot) for (r, _) in pair.f.entries}
    g_blocks = {(r.vertex, r.slot) for (r, _) in pair.g.entries}
    assert f_blocks == {("a", Ordinal(1)), ("a", Ordinal(2))}
    assert g_blocks == {("b", Ordinal(1))}
    assert k0_signature(pair) == 1


def test_pair_is_projection_valued_and_orthogonal():
    rng = random.Random(2)
    for _ in range(25):
        g = random_graph(rng, max_vertices=10, max_edges=15)
        c = random_chain0(rng, g)
        pair = build_projection_pair(c)
        f, gg = pair.f, pair.g
        assert f.compose(f) == f and f.adjoint() == f
        assert gg.compose(gg) == gg and gg.adjoint() == gg
        assert f.compose(gg).is_zero()
        swapped = build_projection_pair(-c)
        assert swapped.f == gg and swapped.g == f
        assert k0_signature(pair) == c.total()


def test_uniformly_finite_chain_lives_in_small_corner():
    c = BandedZChain(0, 2, -3, 0, (1, -2))
    pair = build_projection_pair(c, Window(radius=6, margin=0))
    bound = uniform_bound(c)
    assert slot_ceiling(pair) <= bound - 1


def test_expand_graph_multiplicity():
    g = single_edge()
    ex = expand_graph(g, Chain1(g, {"e": 3}))
    assert len(ex.edges) == 3
    assert len(ex.in_edges(1)) == 3 and len(ex.out_edges(0)) == 3
    assert len(ex.in_edges(0)) == 0


def test_expand_graph_orientation_flip():
    g = single_edge()
    ex = expand_graph(g, Chain1(g, {"e": -1}))
    assert len(ex.edges) == 1
    e = ex.edges[0]
    assert (e.source, e.target) == (1, 0)


def test_expand_graph_zero():
    g = single_edge()
    assert expand_graph(g, Chain1(g, {})).edges == ()


def test_witness_on_single_edge():
    g = single_edge()
    w = boundary_witness(Chain1(g, {"e": 1}))
    assert w.ok
    slot = CopyEdge("e", 1)
    assert w.v.entries == {(BlockIndex(1, slot), BlockIndex(0, slot)): 1}
    vv = w.v.adjoint().compose(w.v)
    ww = w.v.compose(w.v.adjoint())
    assert vv.entries == {(BlockIndex(0, slot), BlockIndex(0, slot)): 1}
    assert ww.entries == {(BlockIndex(1, slot), BlockIndex(1, slot)): 1}
    assert w.chain.coeffs == {1: 1, 0: -1}


def test_witness_on_zero_chain():
    g = single_edge()
    w = boundary_witness(Chain1(g, {}))
    assert w.v.is_zero()
    assert w.source_projection.is_zero() and w.target_projection.is_zero()
    assert w.ok


def test_witness_on_triangle_cycle():
    g, gamma = triangle_with_chord_orientation()
    w = boundary_witness(gamma)
    assert w.ok
    assert w.chain.is_zero()
    for x in range(3):
        assert len(w.expanded.in_edges(x)) == 1
        assert len(w.expanded.out_edges(x)) == 1
    # three tracks, one per vertex pair along the cycle
    assert len(w.v.entries) == 3


def test_witness_identities_on_random_corpus():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, max_vertices=12, max_edges=20)
        gamma = random_chain1(rng, g)
        w = boundary_witness(gamma)
        assert w.ok, {k: v for k, v in w.checks.items() if not v}
        c = boundary(gamma)
        assert w.chain == c
        assert k0_signature(build_projection_pair(c)) == 0


def test_order_matched_involution_rejects_unbalanced():
    with pytest.raises(ValueError):
        order_matched_involution([Ordinal(1)], [])


def test_order_matched_involution_with_overlap():
    s1 = [Ordinal(1), Ordinal(2)]
    s2 = [Ordinal(2), Ordinal(3)]
    m = order_matched_involution(s1, s2)
    assert m == {Ordinal(1): Ordinal(3), Ordinal(3): Ordinal(1)}
