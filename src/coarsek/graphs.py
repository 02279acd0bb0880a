"""Oriented graphs, the banded line and the reader of their JSON files.

Two shapes of graph are supported: arbitrary finite oriented graphs, and the
banded description of the integer line (vertex set Z, with the cell edge
[n, n+1] for every n or with no edges at all).  These are exactly the shapes
needed by the homology-to-K-theory constructions.  The vertex set is a metric
space with unit edges, but the constructions only ever use that metric as
adjacency in the expanded multigraph of a finite graph and as |x - y| on the
line (operators.propagation), so no general metric is built here.  Nothing
here uses floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Union

Label = Union[int, str, tuple]
_LABEL_TYPES = (int, str, tuple)


class GraphError(ValueError):
    pass


def idkey(x) -> tuple:
    """Total order on mixed int/str/tuple labels (ints first, then strings,
    then tuples of labels)."""
    if isinstance(x, bool):
        raise GraphError("boolean labels are not allowed")
    if isinstance(x, int):
        return (0, x, "")
    if isinstance(x, str):
        return (1, 0, x)
    if isinstance(x, tuple):
        return (2, tuple(idkey(part) for part in x), "")
    raise GraphError(f"unsupported label type: {type(x).__name__}")


class Edge(NamedTuple):
    id: Label
    source: Label
    target: Label


class OrientedGraph:
    """Finite oriented graph.  Immutable after construction.

    Parallel edges are allowed (they get distinct ids); loops are rejected:
    an edge from a vertex to itself has zero boundary and the operator
    constructions would need an arbitrary tie-break for it, so nothing in
    this library produces or consumes one.

    The constructor checks its input (distinct ids, endpoints that are
    vertices and labels, not True or 1.0 for the vertex 1, no loop) and
    sorts it; _trusted does neither, for derived graphs.  The edge and
    adjacency indexes are built on first use, so a graph that is only
    iterated, as a line window handed to expand_graph, never pays for them.
    """

    def __init__(self, vertices: Iterable[Label], edges: Iterable[Edge]):
        vs = list(vertices)
        vset = set(vs)
        if len(vset) != len(vs):
            raise GraphError("duplicate vertex ids")
        es = list(edges)
        ids = [e.id for e in es]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate edge ids")
        for eid, s, t in es:
            if s not in vset or t not in vset:
                raise GraphError(f"edge {eid!r} has endpoint outside the graph")
            if type(s) not in _LABEL_TYPES or type(t) not in _LABEL_TYPES:
                idkey(s), idkey(t)  # refuses True, 1.0 and the like
            if s == t:
                raise GraphError(f"edge {eid!r} is a loop")
        self.vertices = tuple(sorted(vs, key=idkey))
        self.edges = tuple(sorted(es, key=lambda e: idkey(e.id)))

    @classmethod
    def _trusted(cls, vertices: tuple, edges: tuple) -> "OrientedGraph":
        """The graph on valid vertices and edges, each sorted by idkey."""
        g = cls.__new__(cls)
        g.vertices, g.edges = vertices, edges
        return g

    @cached_property
    def _by_id(self) -> dict[Label, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _ends(self) -> tuple[dict[Label, list[Edge]], dict[Label, list[Edge]]]:
        """The ingoing and the outgoing edges of every vertex, in edge order."""
        ins: dict[Label, list[Edge]] = {v: [] for v in self.vertices}
        outs: dict[Label, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            outs[e.source].append(e)
            ins[e.target].append(e)
        return ins, outs

    @cached_property
    def _near(self) -> dict[Label, set[Label]]:
        return {}

    def has_vertex(self, v: Label) -> bool:
        return v in self._ends[1]

    def has_edge_id(self, edge_id: Label) -> bool:
        return edge_id in self._by_id

    def out_edges(self, v: Label) -> list[Edge]:
        return self._ends[1][v]

    def in_edges(self, v: Label) -> list[Edge]:
        return self._ends[0][v]

    def degree(self, v: Label) -> int:
        ins, outs = self._ends
        return len(outs[v]) + len(ins[v])

    def neighbors(self, v: Label) -> set[Label]:
        ins, outs = self._ends
        return {e.target for e in outs[v]} | {e.source for e in ins[v]}

    def adjacent(self, x: Label, y: Label) -> bool:
        # the neighbours of x are memoised: collecting them costs O(valence)
        if x not in self._near:
            self._near[x] = self.neighbors(x)
        return y in self._near[x]

    def far_moves(self, op) -> list:
        """(column, row) of each move of the operator op between two vertices
        that no edge joins, in the order op stores its moves."""
        return [
            (c, r)
            for c, r in op.moves.items()
            if r is not None and r.vertex != c.vertex and not self.adjacent(r.vertex, c.vertex)
        ]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, OrientedGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"OrientedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class BandedZGraph:
    """Vertex set Z with the standard line metric |i - j|.

    With ``edges_per_cell`` 1 this is the Cayley graph of Z: one edge, with
    id n, from n to n+1 for every n.  With 0 it is the edgeless line.  The
    metric is the ambient line metric also when there are no edges.
    """

    edges_per_cell: int = 1

    def __post_init__(self):
        if self.edges_per_cell not in (0, 1):
            raise GraphError(
                f"edges_per_cell must be 0 or 1, got {self.edges_per_cell!r}"
            )

    @property
    def is_edgeless(self) -> bool:
        return self.edges_per_cell == 0

    def window(self, lo: int, hi: int) -> OrientedGraph:
        """Materialize the subgraph on vertices lo..hi as a finite graph.
        It is valid by construction: the int ids ascend, which is idkey
        order, every cell joins two window vertices and none is a loop.
        tuple.__new__ builds each Edge without the NamedTuple's Python-level
        constructor."""
        if lo > hi:
            raise GraphError("empty window")
        cells = range(lo, hi) if self.edges_per_cell else ()
        new = tuple.__new__
        return OrientedGraph._trusted(
            tuple(range(lo, hi + 1)), tuple([new(Edge, (n, n, n + 1)) for n in cells])
        )


Graph = Union[OrientedGraph, BandedZGraph]


# ---------------------------------------------------------------------------
# JSON input


def json_keys(field: str, labels) -> dict[str, Label]:
    """{str(label): label}: files and reports key labels by their string,
    so two labels with one string, such as 1 and "1", are refused."""
    seen: dict[str, Label] = {}
    for x in labels:
        key = str(x)
        if key in seen:
            raise GraphError(
                f"{field}: ids {seen[key]!r} and {x!r} collide as JSON keys"
            )
        seen[key] = x
    return seen


def refuse_unknown_keys(data: dict, known: frozenset, error=GraphError, where: str = "") -> None:
    """A misspelt or extra key is refused, not read as absent; the message
    names the first unknown key in file order."""
    if not data.keys() <= known:
        key = next(k for k in data if k not in known)
        raise error(f"{where}unknown key {key!r}")


_FINITE_KEYS = frozenset({"kind", "vertices", "edges"})
_BANDED_KEYS = frozenset({"kind", "edges_per_cell", "perturbation"})
_EDGE_KEYS = frozenset({"id", "source", "target"})


def _list_field(data: dict, field: str) -> list:
    value = data.get(field, [])
    if not isinstance(value, list):
        raise GraphError(f"{field} must be a list, got {value!r}")
    return value


def graph_from_json(data: dict) -> Graph:
    kind = data.get("kind")
    if kind == "finite":
        refuse_unknown_keys(data, _FINITE_KEYS)
        edges = []
        for i, e in enumerate(_list_field(data, "edges")):
            if not isinstance(e, dict) or e.keys() != _EDGE_KEYS:
                if isinstance(e, dict) and _EDGE_KEYS <= e.keys():
                    refuse_unknown_keys(e, _EDGE_KEYS, where=f"edges[{i}]: ")
                raise GraphError(
                    f"edges[{i}] must be an object with id, source and target, "
                    f"got {e!r}"
                )
            edges.append(Edge(id=e["id"], source=e["source"], target=e["target"]))
        g = OrientedGraph(_list_field(data, "vertices"), edges)
        json_keys("vertices", g.vertices)
        json_keys("edges", [e.id for e in g.edges])
        return g
    if kind == "banded_z":
        refuse_unknown_keys(data, _BANDED_KEYS)
        if data.get("perturbation") is not None:
            raise GraphError(
                f"perturbation must be null or absent, got {data['perturbation']!r}"
            )
        per_cell = data.get("edges_per_cell", 1)
        if isinstance(per_cell, bool) or not isinstance(per_cell, int):
            raise GraphError(f"edges_per_cell must be an integer, got {per_cell!r}")
        return BandedZGraph(edges_per_cell=per_cell)
    raise GraphError(f"unknown graph kind: {kind!r}")
