"""Oriented graphs, their vertex path metric, Rips graphs and bounded geometry.

Two shapes of graph are supported: arbitrary finite oriented graphs, and the
banded description of the integer line (vertex set Z with the standard metric,
periodic cell edges [n, n+1] plus an optional finite perturbation).  These are
exactly the shapes needed by the homology-to-K-theory constructions; distances
are exact integers throughout and nothing here uses floating point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

Label = Union[int, str, tuple]

#: sentinel for pairs with no connecting path
UNREACHABLE = None


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


@dataclass(frozen=True)
class Edge:
    id: Label
    source: Label
    target: Label


class OrientedGraph:
    """Finite oriented graph.  Immutable after construction.

    Parallel edges are allowed (they get distinct ids); loops are rejected:
    an edge from a vertex to itself has zero boundary and the operator
    constructions would need an arbitrary tie-break for it, so nothing in
    this library produces or consumes one.
    """

    kind = "finite"

    def __init__(self, vertices: Iterable[Label], edges: Iterable[Edge]):
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise GraphError("duplicate vertex ids")
        self.vertices = tuple(sorted(vs, key=idkey))
        es = list(edges)
        ids = [e.id for e in es]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate edge ids")
        vset = set(vs)
        for e in es:
            if e.source not in vset or e.target not in vset:
                raise GraphError(f"edge {e.id!r} has endpoint outside the graph")
            if e.source == e.target:
                raise GraphError(f"edge {e.id!r} is a loop")
        self.edges = tuple(sorted(es, key=lambda e: idkey(e.id)))
        self._by_id = {e.id: e for e in self.edges}
        self._out: dict[Label, list[Edge]] = {v: [] for v in self.vertices}
        self._in: dict[Label, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            self._out[e.source].append(e)
            self._in[e.target].append(e)

    def edge(self, edge_id: Label) -> Edge:
        return self._by_id[edge_id]

    def has_vertex(self, v: Label) -> bool:
        return v in self._out

    def has_edge_id(self, edge_id: Label) -> bool:
        return edge_id in self._by_id

    def out_edges(self, v: Label) -> list[Edge]:
        return self._out[v]

    def in_edges(self, v: Label) -> list[Edge]:
        return self._in[v]

    def degree(self, v: Label) -> int:
        return len(self._out[v]) + len(self._in[v])

    def neighbors(self, v: Label) -> set[Label]:
        return {e.target for e in self._out[v]} | {e.source for e in self._in[v]}

    def __eq__(self, other):
        return (
            isinstance(other, OrientedGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"OrientedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class FiniteMetricSpace:
    """Finite set of points with an exact integer metric; pairs in different
    path components are at UNREACHABLE distance."""

    def __init__(self, points: Iterable[Label], dist: dict[tuple[Label, Label], int]):
        self.points = tuple(sorted(points, key=idkey))
        self._d = dict(dist)
        pset = set(self.points)
        for (u, v), d in self._d.items():
            if u not in pset or v not in pset:
                raise GraphError("distance entry for unknown point")
            if d < 0:
                raise GraphError("negative distance")
            if (u == v) != (d == 0):
                raise GraphError("d(x,y)=0 iff x=y is violated")
            if self._d.get((v, u)) != d:
                raise GraphError("asymmetric distance")

    def dist(self, u: Label, v: Label) -> Optional[int]:
        if u == v:
            return 0
        return self._d.get((u, v), UNREACHABLE)

    def ball(self, x: Label, r: int) -> set[Label]:
        out = set()
        for y in self.points:
            d = self.dist(x, y)
            if d is not UNREACHABLE and d <= r:
                out.add(y)
        return out


def graph_metric(g: OrientedGraph) -> FiniteMetricSpace:
    """Unweighted shortest-path distance between vertices (edges have length
    one, orientation ignored)."""
    dist: dict[tuple[Label, Label], int] = {}
    for start in g.vertices:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in g.neighbors(cur):
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        for v, d in seen.items():
            dist[(start, v)] = d
    return FiniteMetricSpace(g.vertices, dist)


def rips_graph(space: FiniteMetricSpace, alpha) -> OrientedGraph:
    """One edge per unordered pair at distance in (0, alpha]; the lower point
    in the canonical order is the source.  alpha may be an int or Fraction."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise GraphError("alpha must be positive")
    edges = []
    pts = space.points
    for i, u in enumerate(pts):
        for v in pts[i + 1 :]:
            d = space.dist(u, v)
            if d is not UNREACHABLE and 0 < d <= alpha:
                edges.append(Edge(id=f"[{u},{v}]", source=u, target=v))
    return OrientedGraph(pts, edges)


@dataclass(frozen=True)
class BandedZGraph:
    """Vertex set Z with the standard line metric |i - j|.

    ``edges_per_cell`` parallel edges run from n to n+1 for every n, except
    in dropped cells; finitely many extra edges may be added.  The metric is
    always the ambient line metric, also when there are no edges at all.
    """

    edges_per_cell: int = 1
    extra_edges: tuple[Edge, ...] = ()
    dropped_cells: frozenset[int] = frozenset()

    kind = "banded_z"

    def __post_init__(self):
        if self.edges_per_cell < 0:
            raise GraphError("edges_per_cell must be >= 0")
        for e in self.extra_edges:
            if not isinstance(e.source, int) or not isinstance(e.target, int):
                raise GraphError("extra edges must join integer vertices")
            if e.source == e.target:
                raise GraphError(f"extra edge {e.id!r} is a loop")

    @property
    def is_pure_line(self) -> bool:
        return self.edges_per_cell == 1 and not self.extra_edges and not self.dropped_cells

    @property
    def is_edgeless(self) -> bool:
        return self.edges_per_cell == 0 and not self.extra_edges and not self.dropped_cells

    def cell_edges(self, n: int) -> list[Edge]:
        if n in self.dropped_cells:
            return []
        if self.edges_per_cell == 1:
            return [Edge(id=n, source=n, target=n + 1)]
        return [
            Edge(id=(n, c), source=n, target=n + 1)
            for c in range(1, self.edges_per_cell + 1)
        ]

    def window(self, lo: int, hi: int) -> OrientedGraph:
        """Materialize the subgraph on vertices lo..hi as a finite graph."""
        if lo > hi:
            raise GraphError("empty window")
        vertices = list(range(lo, hi + 1))
        edges: list[Edge] = []
        for n in range(lo, hi):
            edges.extend(self.cell_edges(n))
        for e in self.extra_edges:
            if lo <= e.source <= hi and lo <= e.target <= hi:
                edges.append(e)
        return OrientedGraph(vertices, edges)

    def dist(self, u: int, v: int) -> int:
        return abs(u - v)


Graph = Union[OrientedGraph, BandedZGraph]


def check_bounded_geometry(g: Graph, r: int) -> int:
    """Least K with every ball of radius r containing strictly fewer than K
    points."""
    if r <= 0:
        raise GraphError("radius must be a positive integer")
    if isinstance(g, BandedZGraph):
        # ambient line metric: every ball of radius r is {x-r, ..., x+r}
        return (2 * r + 1) + 1
    space = graph_metric(g)
    biggest = max((len(space.ball(v, r)) for v in g.vertices), default=0)
    return biggest + 1


# ---------------------------------------------------------------------------
# JSON interchange


def graph_to_json(g: Graph) -> dict:
    if isinstance(g, BandedZGraph):
        perturbation = None
        if g.extra_edges or g.dropped_cells:
            perturbation = {
                "add": [
                    {"id": e.id, "source": e.source, "target": e.target}
                    for e in g.extra_edges
                ],
                "drop": sorted(g.dropped_cells),
            }
        return {
            "kind": "banded_z",
            "edges_per_cell": g.edges_per_cell,
            "perturbation": perturbation,
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


def graph_from_json(data: dict) -> Graph:
    kind = data.get("kind")
    if kind == "finite":
        edges = [
            Edge(id=e["id"], source=e["source"], target=e["target"])
            for e in data.get("edges", [])
        ]
        return OrientedGraph(data.get("vertices", []), edges)
    if kind == "banded_z":
        pert = data.get("perturbation")
        extra: list[Edge] = []
        dropped: frozenset[int] = frozenset()
        if pert:
            extra = [
                Edge(id=e["id"], source=e["source"], target=e["target"])
                for e in pert.get("add", [])
            ]
            dropped = frozenset(pert.get("drop", []))
        per_cell = data.get("edges_per_cell", 1)
        if isinstance(per_cell, bool) or not isinstance(per_cell, int):
            raise GraphError(f"edges_per_cell must be an integer, got {per_cell!r}")
        return BandedZGraph(
            edges_per_cell=per_cell,
            extra_edges=tuple(extra),
            dropped_cells=dropped,
        )
    raise GraphError(f"unknown graph kind: {kind!r}")
