"""Fixtures and JSON writers that only the tests use: small named graphs,
and graph and chain files in the format the command line reads."""

from coarsek.chains import BandedZChain, Chain1
from coarsek.graphs import BandedZGraph, Edge, GraphError, OrientedGraph

# ---------------------------------------------------------------------------
# small named graphs


def path_graph(n: int) -> OrientedGraph:
    return OrientedGraph(
        range(n), [Edge(f"e{i}", i, i + 1) for i in range(n - 1)]
    )


def cycle_graph(n: int) -> OrientedGraph:
    edges = [Edge(f"e{i}", i, (i + 1) % n) for i in range(n)]
    return OrientedGraph(range(n), edges)


def triangle_with_chord_orientation() -> tuple[OrientedGraph, Chain1]:
    """Triangle oriented 0->1, 1->2, 0->2 and the cycle e01 + e12 - e02."""
    g = OrientedGraph(
        range(3),
        [Edge("e01", 0, 1), Edge("e12", 1, 2), Edge("e02", 0, 2)],
    )
    return g, Chain1(g, {"e01": 1, "e12": 1, "e02": -1})


# ---------------------------------------------------------------------------
# JSON writers, the inverses of graph_from_json and chain_from_json


def graph_to_json(g) -> dict:
    if isinstance(g, BandedZGraph):
        return {
            "kind": "banded_z",
            "edges_per_cell": g.edges_per_cell,
            "perturbation": None,
        }
    for v in g.vertices:
        if not isinstance(v, (int, str)):
            raise GraphError("only int or str vertex ids are serializable")
    for e in g.edges:
        if not isinstance(e.id, (int, str)):
            raise GraphError("only int or str edge ids are serializable")
    return {
        "kind": "finite",
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "source": e.source, "target": e.target} for e in g.edges
        ],
    }


def chain_to_json(chain) -> dict:
    if isinstance(chain, BandedZChain):
        return {
            "degree": chain.degree,
            "tail_left": chain.tail_left,
            "tail_right": chain.tail_right,
            "window_start": chain.window_start,
            "window_values": list(chain.window_values),
        }
    return {
        "degree": chain.degree,
        "coeffs": {str(k): v for k, v in sorted(chain.coeffs.items(), key=lambda kv: str(kv[0]))},
    }
