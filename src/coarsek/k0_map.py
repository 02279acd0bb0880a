"""The degree-0 map: a 0-chain becomes a pair of diagonal projections, and a
boundary becomes an explicit partial isometry witnessing that the pair
carries no K0 difference.

At each vertex the chain value c_x selects rank c_x of the first projection
(when c_x >= 0) or rank -c_x of the second (when c_x <= 0), in ordinal
slots.  For c = d(gamma) the witness runs over the expansion of gamma into a
multigraph with one parallel edge per coefficient unit; the witness isometry
carries the source-slot vector of each expanded edge to its target-slot
vector.  Its initial projection therefore matches the outgoing-degree
projection and its final projection the ingoing-degree projection, and the
remaining equivalences are plain per-vertex rank bookkeeping, realized by
explicit slot-exchange permutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

from .chains import BandedZChain, Chain0, Chain1, ChainError, boundary, uniform_bound
from .graphs import Edge, Label, OrientedGraph
from .operators import (
    BlockIndex,
    CopyEdge,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    Window,
    slot_key,
)


class ExpandedGraph(OrientedGraph):
    """Multigraph with |gamma_e| parallel copies of each edge e; copy c has
    id CopyEdge(e, c), which is also its basis slot, and copies of edges
    with negative coefficient run backwards."""

    def _index(self, vertices: tuple, edges: tuple) -> None:
        super()._index(vertices, edges)
        self._near: dict = {}

    def in_count(self, x: Label) -> int:
        return len(self.in_edges(x))

    def out_count(self, x: Label) -> int:
        return len(self.out_edges(x))

    def adjacent(self, x: Label, y: Label) -> bool:
        # the neighbours of x are memoised: collecting them costs O(valence)
        if x not in self._near:
            self._near[x] = self.neighbors(x)
        return y in self._near[x]


def expand_graph(g: OrientedGraph, gamma: Chain1) -> ExpandedGraph:
    """Replace each edge by |gamma_e| parallel copies, flipping orientation
    where the coefficient is negative.  The copies inherit the host's
    checks and come out in idkey order, so nothing is checked or sorted."""
    if gamma.graph != g:
        raise ChainError("chain does not live over this graph")
    edges = []
    for e in g.edges:
        coeff = gamma.coeffs.get(e.id)
        if coeff:
            src, tgt = (e.source, e.target) if coeff > 0 else (e.target, e.source)
            for c in range(1, abs(coeff) + 1):
                edges.append(Edge(CopyEdge(e.id, c), src, tgt))
    return ExpandedGraph._trusted(g.vertices, tuple(edges))


# ---------------------------------------------------------------------------
# projection pairs


@dataclass(frozen=True)
class ProjectionPair:
    """Diagonal projections (f, g) over a common ambient basis; at each
    vertex at most one of them is nonzero.  Both have scalar 0, so their
    moves fix exactly the vectors they project onto."""

    f: SparseBlockOperator
    g: SparseBlockOperator
    values: dict = field(repr=False)
    host_kind: str = "finite"


def _pair_from_values(values: dict, host_kind: str) -> ProjectionPair:
    ceiling = max((abs(v) for v in values.values()), default=0)
    dom = ProductBasis(values, [Ordinal(i) for i in range(1, ceiling + 1)])
    f_moves = {}
    g_moves = {}
    for x, cx in values.items():
        for i in range(1, abs(cx) + 1):
            b = BlockIndex(x, Ordinal(i))
            if cx > 0:
                f_moves[b] = b
            else:
                g_moves[b] = b
    return ProjectionPair(
        f=SparseBlockOperator(dom, f_moves),
        g=SparseBlockOperator(dom, g_moves),
        values=dict(values),
        host_kind=host_kind,
    )


def build_projection_pair(
    c: Union[Chain0, BandedZChain], window: Optional[Window] = None
) -> ProjectionPair:
    """Diagonal projection pair of a 0-chain; banded chains are realized on
    the given window."""
    if isinstance(c, Chain0):
        values = {x: c.coeff(x) for x in c.graph.vertices}
        return _pair_from_values(values, "finite")
    if c.degree != 0:
        raise ChainError("a degree-0 chain is required")
    if window is None:
        raise ChainError("a window is required for banded chains")
    values = {x: c.value(x) for x in range(window.lo, window.hi + 1)}
    return _pair_from_values(values, "banded_z")


def slot_ceiling(pair: ProjectionPair) -> int:
    """Largest ordinal slot index actually used by either projection."""
    used = [b.slot.index for b in pair.f.moves] + [b.slot.index for b in pair.g.moves]
    return max(used, default=0)


def uniform_corner_holds(c: Union[Chain0, BandedZChain], pair: ProjectionPair) -> bool:
    """A chain with strict coefficient bound K keeps the pair inside the
    (K-1)-sized matrix corner."""
    return slot_ceiling(pair) <= uniform_bound(c) - 1


def k0_signature(pair: ProjectionPair) -> int:
    """Total rank difference of the pair; on a finite host this is the K0
    invariant and equals the sum of the chain coefficients."""
    if pair.host_kind != "finite":
        raise ChainError("k0_signature is defined for finite hosts only")
    return len(pair.f.moves) - len(pair.g.moves)


# ---------------------------------------------------------------------------
# the boundary witness


def order_matched_involution(s1, s2) -> dict:
    """Involution of slots exchanging sorted(s1 minus s2) with
    sorted(s2 minus s1) position by position, fixing the intersection.
    Requires both differences to have equal size.  Only moved slots appear
    in the result."""
    set1, set2 = set(s1), set(s2)
    d1 = sorted(set1 - set2, key=slot_key)
    d2 = sorted(set2 - set1, key=slot_key)
    if len(d1) != len(d2):
        raise ValueError("slot sets are not exchangeable")
    out = {}
    for a, b in zip(d1, d2):
        out[a] = b
        out[b] = a
    return out


def block_diagonal_slot_permutation(
    domain, per_vertex: dict
) -> SparseBlockOperator:
    """Unitary permuting slots within each vertex block; slots not mentioned
    stay fixed, and only the moved ones are stored."""
    moves = {}
    for x, targets in per_vertex.items():
        for slot, target in targets.items():
            b = BlockIndex(x, slot)
            if b in domain:
                moves[b] = BlockIndex(x, target)
    return SparseBlockOperator(domain, moves, 1)


@dataclass
class BoundaryWitness:
    """Partial isometry V with V*V and VV* the stated diagonal projections,
    plus the rank bookkeeping tying them to the projection pair of the
    boundary chain.

    source_projection is the projection onto the per-vertex span of
    source-slot vectors (one per outgoing expanded edge), target_projection
    onto target-slot vectors (one per ingoing edge).  in_rank_projection and
    out_rank_projection are their ordinal-slot models p_{i(x)} and p_{o(x)};
    the exchange permutations conjugate one onto the other exactly.
    """

    expanded: ExpandedGraph
    chain: Chain0
    v: SparseBlockOperator
    source_projection: SparseBlockOperator
    target_projection: SparseBlockOperator
    in_rank_projection: SparseBlockOperator
    out_rank_projection: SparseBlockOperator
    exchange_in: SparseBlockOperator
    exchange_out: SparseBlockOperator
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def boundary_witness(gamma: Chain1) -> BoundaryWitness:
    """Witness that c = d(gamma) has trivial K0 difference class.

    V sends the source-slot vector of every expanded edge to the target-slot
    vector of the same edge, so V*V projects onto source slots (rank o(x)
    at x) and VV* onto target slots (rank i(x) at x).  Only the vertices an
    expanded edge touches are walked; the basis still holds the ordinal
    slots of every vertex, and every entry is built inside it.
    """
    if not isinstance(gamma, Chain1):
        raise ChainError("the witness needs a finitely supported 1-chain")
    g = expand_graph(gamma.graph, gamma)
    c = boundary(gamma)
    ins = Counter(e.target for e in g.edges)
    outs = Counter(e.source for e in g.edges)
    ceiling = max([*ins.values(), *outs.values()], default=0)
    ordinals = [Ordinal(i) for i in range(1, ceiling + 1)]
    sources = [BlockIndex(e.source, e.id) for e in g.edges]
    targets = [BlockIndex(e.target, e.id) for e in g.edges]
    dom = frozenset(
        [BlockIndex(x, o) for x in g.vertices for o in ordinals] + sources + targets
    )

    def op(moves, scalar=0):
        return SparseBlockOperator._trusted(dom, moves, scalar)

    def diag(blocks):
        return op({b: b for b in blocks})

    def ranks(counts):
        return diag(BlockIndex(x, o) for x, n in counts.items() for o in ordinals[:n])

    def exchange(counts, edges_at):
        # at each vertex x, ordinal slot i and the slot of the i-th edge of
        # edges_at(x) trade places (order_matched_involution)
        moves = {}
        for x, n in counts.items():
            swaps = order_matched_involution(ordinals[:n], [e.id for e in edges_at(x)])
            for a, b in swaps.items():
                moves[BlockIndex(x, a)] = BlockIndex(x, b)
        return op(moves, 1)

    v = op(dict(zip(sources, targets)))
    source_projection, target_projection = diag(sources), diag(targets)
    in_rank_projection, out_rank_projection = ranks(ins), ranks(outs)
    exchange_in, exchange_out = exchange(ins, g.in_edges), exchange(outs, g.out_edges)

    def conjugated(t, p):
        return t.compose(p).compose(t.adjoint())

    def diag_ranks(projection):
        return Counter(b.vertex for b, r in projection.moves.items() if r == b)

    vv = v.adjoint().compose(v)
    ww = v.compose(v.adjoint())
    checks = {
        "initial_projection": vv == source_projection,
        "final_projection": ww == target_projection,
        # a vertex missing from a Counter counts 0, so these also hold a
        # rank at an untouched vertex to its valence 0
        "in_ranks": diag_ranks(ww) == ins,
        "out_ranks": diag_ranks(vv) == outs,
        "in_exchange": conjugated(exchange_in, target_projection) == in_rank_projection,
        "out_exchange": conjugated(exchange_out, source_projection)
        == out_rank_projection,
        "rank_bookkeeping": all(
            ins[x] - outs[x] == c.coeff(x) for x in {*ins, *outs, *c.coeffs}
        ),
        "adjacency": all(
            r.vertex == col.vertex or g.adjacent(r.vertex, col.vertex)
            for col, r in v.moves.items()
        ),
    }
    return BoundaryWitness(
        g, c, v, source_projection, target_projection, in_rank_projection,
        out_rank_projection, exchange_in, exchange_out, checks,
    )


def witness_report_json(w: BoundaryWitness) -> dict:
    return {
        "checks": dict(sorted(w.checks.items())),
        "per_vertex": {
            str(x): {
                "in_count": w.expanded.in_count(x),
                "out_count": w.expanded.out_count(x),
                "chain_value": w.chain.coeff(x),
            }
            for x in w.expanded.vertices
        },
        "edges": len(w.expanded.edges),
        "ok": w.ok,
    }
