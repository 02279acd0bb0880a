"""Deterministic graph, chain and matching corpora for the verification
suites and the scenario runner.  Everything is driven by an explicit
random.Random instance, so runs are reproducible per seed.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator, Optional

from .chains import Chain0, Chain1, fundamental_cycle, spanning_forest
from .graphs import Edge, OrientedGraph
from .k1_map import permuted_matching


# ---------------------------------------------------------------------------
# a small named graph


def figure_eight() -> tuple[OrientedGraph, Chain1]:
    """Two 2-gons through distinct side vertices, wedged at a center with
    in-flow and out-flow 2; the cycle takes every edge once."""
    g = OrientedGraph(
        ["z", "a", "b"],
        [
            Edge("f1", "z", "a"),
            Edge("g1", "a", "z"),
            Edge("f2", "z", "b"),
            Edge("g2", "b", "z"),
        ],
    )
    return g, Chain1(g, {"f1": 1, "g1": 1, "f2": 1, "g2": 1})


# ---------------------------------------------------------------------------
# random corpora


def _graph(n: int, edges: list) -> OrientedGraph:
    """The graph on vertices 0..n-1 and the given edges, valid by
    construction: distinct string ids, endpoints among the vertices and no
    loop.  Vertices ascend and a string sort is idkey order; the ids are
    distinct, so sorting the edge tuples sorts them by id."""
    edges.sort()
    return OrientedGraph._trusted(tuple(range(n)), tuple(edges))


def random_graph(
    rng: random.Random, max_vertices: int = 30, max_edges: int = 60
) -> OrientedGraph:
    n = rng.randint(2, max_vertices)
    pairs = list(combinations(range(n), 2))
    cap = min(max_edges, len(pairs))
    m = rng.randint(min(1, cap), cap)
    chosen = rng.sample(pairs, m)
    new = tuple.__new__  # NamedTuples without their Python-level constructors
    edges = []
    for i, (u, v) in enumerate(sorted(chosen)):
        if rng.random() < 0.5:
            u, v = v, u
        edges.append(new(Edge, (f"e{i}", u, v)))
    return _graph(n, edges)


def _non_tree_edges(g: OrientedGraph) -> tuple[dict, list[Edge]]:
    _, up = spanning_forest(g)
    tree = {e.id for e in up.values() if e is not None}
    return up, [e for e in g.edges if e.id not in tree]


def random_cycle(rng: random.Random, g: OrientedGraph, bound: int = 3) -> Chain1:
    """Random integer combination of fundamental cycles with all
    coefficients bounded by the given strict bound in magnitude."""
    up, extras = _non_tree_edges(g)
    zero = Chain1._trusted(g, ())
    if not extras:
        return zero
    # drawing edges takes the same random numbers as drawing their cycles
    for _ in range(30):
        chosen = rng.sample(extras, min(len(extras), rng.randint(1, 4)))
        acc = zero
        for e in chosen:
            acc = acc + fundamental_cycle(g, up, e).scaled(rng.choice([-2, -1, 1, 1, 2]))
        if not acc.coeffs or max(abs(v) for v in acc.coeffs.values()) <= bound:
            return acc
    return fundamental_cycle(g, up, rng.choice(extras))  # coefficients +-1


def random_multiplicity_cycle(rng: random.Random, g: OrientedGraph) -> Optional[Chain1]:
    """A cycle whose expansion has a vertex with at least two ingoing
    copies, or None when the graph is a forest."""
    up, extras = _non_tree_edges(g)
    if not extras:
        return None
    base = fundamental_cycle(g, up, rng.choice(extras))
    return base.scaled(rng.choice([2, -2, 3, -3]))


def random_chain1(rng: random.Random, g: OrientedGraph) -> Chain1:
    if not g.edges:
        return Chain1._trusted(g, ())
    m = rng.randint(1, min(len(g.edges), 8))
    picked = rng.sample(list(g.edges), m)
    return Chain1._trusted(g, [(e.id, rng.choice((-3, -2, -1, 1, 2, 3))) for e in picked])


def random_chain0(rng: random.Random, g: OrientedGraph) -> Chain0:
    m = rng.randint(1, min(len(g.vertices), 8))
    picked = rng.sample(list(g.vertices), m)
    return Chain0._trusted(g, [(v, rng.choice((-3, -2, -1, 1, 2, 3))) for v in picked])


def random_matching(rng: random.Random, g: OrientedGraph) -> dict:
    """Routes of a uniformly random matching of g, the expanded graph of a
    cycle."""
    positions = {}
    for x in g.vertices:
        n_x = len(g.in_edges(x))
        if n_x >= 2:
            perm = list(range(n_x))
            rng.shuffle(perm)
            positions[x] = tuple(perm)
    return permuted_matching(g, positions)


def _tree_edges(rng: random.Random, n: int) -> list[Edge]:
    new = tuple.__new__
    edges = []
    for i in range(1, n):
        p = rng.randrange(i)
        u, v = (p, i) if rng.random() < 0.5 else (i, p)
        edges.append(new(Edge, (f"t{i}", u, v)))
    return edges


def tree_plus_edges(rng: random.Random, n: int, extra: int) -> OrientedGraph:
    """Connected graph: a random tree plus the given number of extra edges
    (parallel edges permitted), so the cycle rank is exactly `extra`.  An
    extra edge joins two distinct vertices, so it needs n >= 2."""
    if extra > 0 and n < 2:
        raise ValueError(f"tree_plus_edges: extra = {extra} needs n >= 2, got n = {n}")
    edges = _tree_edges(rng, n)
    new = tuple.__new__
    for i in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append(new(Edge, (f"x{i}", u, v)))
    return _graph(n, edges)


def _connects(n: int, pairs: list) -> bool:
    """Whether the pairs join the vertices 0..n-1 into one component: n - 1
    rounds of spreading from vertex 0 along every pair reach its whole
    component."""
    reached = 1  # bit x is set once vertex x is reached
    for _ in range(n - 1):
        for u, v in pairs:
            if (reached >> u | reached >> v) & 1:
                reached |= 1 << u | 1 << v
    return n < 2 or reached == (1 << n) - 1


def all_connected_graphs(n: int) -> Iterator[OrientedGraph]:
    """Every simple connected graph on vertices 0..n-1 (canonical
    orientation: lower endpoint is the source).  Feasible for small n."""
    pairs = list(combinations(range(n), 2))
    new = tuple.__new__
    for mask in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if n > 1 and len(chosen) < n - 1:
            continue
        if _connects(n, chosen):
            yield _graph(n, [new(Edge, (f"e{u}-{v}", u, v)) for u, v in chosen])
