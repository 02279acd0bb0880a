import pytest

from coarsek.graphs import (
    BandedZGraph,
    Edge,
    GraphError,
    OrientedGraph,
    graph_from_json,
)
from helpers import graph_to_json


def test_loops_are_rejected():
    with pytest.raises(GraphError):
        OrientedGraph([0], [Edge("l", 0, 0)])


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
