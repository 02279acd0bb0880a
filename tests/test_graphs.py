import random
from fractions import Fraction
from itertools import combinations

import pytest

from coarsek.corpus import complete_graph, path_graph, random_graph
from coarsek.graphs import (
    UNREACHABLE,
    BandedZGraph,
    Edge,
    GraphError,
    OrientedGraph,
    check_bounded_geometry,
    graph_from_json,
    graph_metric,
    graph_to_json,
    rips_graph,
)


def test_path_metric():
    m = graph_metric(path_graph(3))
    assert m.dist(0, 2) == 2
    assert m.dist(2, 0) == 2
    assert m.dist(1, 1) == 0


def test_single_vertex_metric():
    m = graph_metric(OrientedGraph([0], []))
    assert m.points == (0,)
    assert m.dist(0, 0) == 0


def test_disconnected_pair_is_unreachable():
    m = graph_metric(OrientedGraph(["a", "b"], []))
    assert m.dist("a", "b") is UNREACHABLE


def test_loops_are_rejected():
    with pytest.raises(GraphError):
        OrientedGraph([0], [Edge("l", 0, 0)])


def test_rips_on_three_collinear_points():
    m = graph_metric(path_graph(3))
    g1 = rips_graph(m, 1)
    assert {(e.source, e.target) for e in g1.edges} == {(0, 1), (1, 2)}
    g2 = rips_graph(m, 2)
    assert {(e.source, e.target) for e in g2.edges} == {(0, 1), (0, 2), (1, 2)}
    g_half = rips_graph(m, Fraction(1, 2))
    assert g_half.edges == ()


def test_rips_monotone_in_alpha():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, max_vertices=10, max_edges=16)
        m = graph_metric(g)
        small = {(e.source, e.target) for e in rips_graph(m, 1).edges}
        for alpha in (Fraction(3, 2), 2, 3):
            big = {(e.source, e.target) for e in rips_graph(m, alpha).edges}
            assert small <= big
            small = big


def test_rips_orientation_and_degree_bound():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, max_vertices=9, max_edges=14)
        m = graph_metric(g)
        r = rips_graph(m, 2)
        for e in r.edges:
            assert e.source < e.target
            assert e.source != e.target
        k1 = check_bounded_geometry(r, 1)
        for v in r.vertices:
            assert r.degree(v) < k1


def test_bounded_geometry_line():
    # oracle: enumerate a ball on a realized window of the periodic cell
    g = BandedZGraph()
    for r in (1, 3):
        window = g.window(-r - 2, r + 2)
        ball = [x for x in window.vertices if g.dist(x, 0) <= r]
        assert check_bounded_geometry(g, r) == len(ball) + 1
    assert check_bounded_geometry(g, 1) == 4


def test_bounded_geometry_single_vertex():
    g = OrientedGraph([0], [])
    for r in (1, 2, 5):
        assert check_bounded_geometry(g, r) == 2


def test_bounded_geometry_complete_graph():
    # ball of radius 1 is the whole graph
    assert check_bounded_geometry(complete_graph(5), 1) == 6


def test_metric_axioms_exhaustive_on_small_graphs():
    rng = random.Random(17)
    graphs = [random_graph(rng, max_vertices=12, max_edges=20) for _ in range(15)]
    graphs.append(path_graph(12))
    graphs.append(complete_graph(5))
    for g in graphs:
        m = graph_metric(g)
        for u in m.points:
            assert m.dist(u, u) == 0
        for u, v in combinations(m.points, 2):
            d = m.dist(u, v)
            assert d == m.dist(v, u)
            if d is not UNREACHABLE:
                assert d >= 1
        for u, v in combinations(m.points, 2):
            for w in m.points:
                duv, duw, dwv = m.dist(u, v), m.dist(u, w), m.dist(w, v)
                if duw is not UNREACHABLE and dwv is not UNREACHABLE:
                    assert duv is not UNREACHABLE
                    assert duv <= duw + dwv


def test_graph_json_round_trip():
    g = OrientedGraph(
        ["a", "b", 3],
        [Edge("e1", "a", "b"), Edge("e2", 3, "a")],
    )
    assert graph_from_json(graph_to_json(g)) == g


def test_banded_json_round_trip():
    g = BandedZGraph()
    data = graph_to_json(g)
    assert data == {"kind": "banded_z", "edges_per_cell": 1, "perturbation": None}
    back = graph_from_json(data)
    assert back == g and not back.is_edgeless


def test_banded_window_realization():
    g = BandedZGraph()
    w = g.window(-2, 2)
    assert w.vertices == (-2, -1, 0, 1, 2)
    assert [e.id for e in w.edges] == [-2, -1, 0, 1]
    edgeless = BandedZGraph(edges_per_cell=0)
    assert edgeless.window(0, 3).edges == ()


def test_edgeless_banded_json_round_trip():
    g = BandedZGraph(edges_per_cell=0)
    data = graph_to_json(g)
    assert data == {"kind": "banded_z", "edges_per_cell": 0, "perturbation": None}
    back = graph_from_json(data)
    assert back == g and back.is_edgeless
    assert graph_from_json({"kind": "banded_z"}) == BandedZGraph()


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "banded_z", "perturbation": {"drop": [0]}}, "perturbation must be null"),
        ({"kind": "banded_z", "perturbation": [1]}, "perturbation must be null"),
        ({"kind": "banded_z", "edges_per_cell": 2}, "edges_per_cell must be 0 or 1"),
        ({"kind": "banded_z", "edges_per_cell": -1}, "edges_per_cell must be 0 or 1"),
    ],
)
def test_removed_banded_shapes_are_rejected_by_field(data, message):
    with pytest.raises(GraphError, match=message):
        graph_from_json(data)
