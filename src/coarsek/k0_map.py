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

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .chains import BandedZChain, Chain0, Chain1, ChainError, boundary, uniform_bound
from .graphs import Label, OrientedGraph, idkey
from .operators import (
    BlockIndex,
    CopyEdge,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    Window,
    slot_key,
)


class ExpandedEdge(NamedTuple):
    parent: Label
    copy: int
    source: Label
    target: Label

    @property
    def slot(self) -> CopyEdge:
        return CopyEdge(self.parent, self.copy)


class ExpandedGraph:
    """Multigraph with |gamma_e| parallel copies of each edge; copies of
    edges with negative coefficient run backwards."""

    def __init__(self, base: OrientedGraph, gamma: Chain1, edges):
        self.base = base
        self.gamma = gamma
        self.edges = tuple(
            sorted(edges, key=lambda e: (idkey(e.parent), e.copy))
        )
        self.vertices = base.vertices
        self._in: dict[Label, list[ExpandedEdge]] = {v: [] for v in self.vertices}
        self._out: dict[Label, list[ExpandedEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            self._out[e.source].append(e)
            self._in[e.target].append(e)

    def in_edges(self, x: Label) -> list[ExpandedEdge]:
        return self._in[x]

    def out_edges(self, x: Label) -> list[ExpandedEdge]:
        return self._out[x]

    def in_count(self, x: Label) -> int:
        return len(self._in[x])

    def out_count(self, x: Label) -> int:
        return len(self._out[x])

    def valence(self, x: Label) -> int:
        return self.in_count(x) + self.out_count(x)

    def adjacent(self, x: Label, y: Label) -> bool:
        if x == y:
            return False
        return any(e.target == y for e in self._out[x]) or any(
            e.source == y for e in self._in[x]
        )


def expand_graph(g: OrientedGraph, gamma: Chain1) -> ExpandedGraph:
    """Replace each edge by |gamma_e| parallel copies, flipping orientation
    where the coefficient is negative."""
    if gamma.graph != g:
        raise ChainError("chain does not live over this graph")
    edges = []
    for eid, coeff in gamma.coeffs.items():
        e = g.edge(eid)
        src, tgt = (e.source, e.target) if coeff > 0 else (e.target, e.source)
        for c in range(1, abs(coeff) + 1):
            edges.append(ExpandedEdge(eid, c, src, tgt))
    return ExpandedGraph(g, gamma, edges)


# ---------------------------------------------------------------------------
# projection pairs


@dataclass(frozen=True)
class ProjectionPair:
    """Diagonal projections (f, g) over a common ambient basis; at each
    vertex at most one of them is nonzero."""

    f: SparseBlockOperator
    g: SparseBlockOperator
    values: dict = field(repr=False)
    host_kind: str = "finite"


def _pair_from_values(values: dict, host_kind: str) -> ProjectionPair:
    ceiling = max((abs(v) for v in values.values()), default=0)
    dom = ProductBasis(values, [Ordinal(i) for i in range(1, ceiling + 1)])
    f_entries = {}
    g_entries = {}
    for x, cx in values.items():
        for i in range(1, abs(cx) + 1):
            b = BlockIndex(x, Ordinal(i))
            if cx > 0:
                f_entries[(b, b)] = 1
            else:
                g_entries[(b, b)] = 1
    return ProjectionPair(
        f=SparseBlockOperator(dom, f_entries),
        g=SparseBlockOperator(dom, g_entries),
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
    used = [r.slot.index for (r, _) in pair.f.entries] + [
        r.slot.index for (r, _) in pair.g.entries
    ]
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
    return len(pair.f.entries) - len(pair.g.entries)


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
    return SparseBlockOperator.from_moves(domain, moves)


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
    at x) and VV* onto target slots (rank i(x) at x).
    """
    if not isinstance(gamma, Chain1):
        raise ChainError("the witness needs a finitely supported 1-chain")
    g = expand_graph(gamma.graph, gamma)
    c = boundary(gamma)
    ordinal_ceiling = max(
        (max(g.in_count(x), g.out_count(x)) for x in g.vertices), default=0
    )
    domain = set()
    for e in g.edges:
        domain.add(BlockIndex(e.source, e.slot))
        domain.add(BlockIndex(e.target, e.slot))
    for x in g.vertices:
        for i in range(1, ordinal_ceiling + 1):
            domain.add(BlockIndex(x, Ordinal(i)))
    dom = frozenset(domain)

    v_entries = {}
    for e in g.edges:
        v_entries[(BlockIndex(e.target, e.slot), BlockIndex(e.source, e.slot))] = 1
    v = SparseBlockOperator(dom, v_entries)

    def diag(blocks):
        return SparseBlockOperator(dom, {(b, b): 1 for b in blocks})

    source_projection = diag(BlockIndex(e.source, e.slot) for e in g.edges)
    target_projection = diag(BlockIndex(e.target, e.slot) for e in g.edges)
    in_rank_projection = diag(
        BlockIndex(x, Ordinal(i))
        for x in g.vertices
        for i in range(1, g.in_count(x) + 1)
    )
    out_rank_projection = diag(
        BlockIndex(x, Ordinal(i))
        for x in g.vertices
        for i in range(1, g.out_count(x) + 1)
    )

    exchange_in = block_diagonal_slot_permutation(
        dom,
        {
            x: order_matched_involution(
                [Ordinal(i) for i in range(1, g.in_count(x) + 1)],
                [e.slot for e in g.in_edges(x)],
            )
            for x in g.vertices
        },
    )
    exchange_out = block_diagonal_slot_permutation(
        dom,
        {
            x: order_matched_involution(
                [Ordinal(i) for i in range(1, g.out_count(x) + 1)],
                [e.slot for e in g.out_edges(x)],
            )
            for x in g.vertices
        },
    )

    vv = v.adjoint().compose(v)
    ww = v.compose(v.adjoint())
    checks = {
        "initial_projection": vv == source_projection,
        "final_projection": ww == target_projection,
        "in_ranks": all(
            _diag_rank_at(ww, x) == g.in_count(x) for x in g.vertices
        ),
        "out_ranks": all(
            _diag_rank_at(vv, x) == g.out_count(x) for x in g.vertices
        ),
        "in_exchange": exchange_in.compose(target_projection).compose(
            exchange_in.adjoint()
        )
        == in_rank_projection,
        "out_exchange": exchange_out.compose(source_projection).compose(
            exchange_out.adjoint()
        )
        == out_rank_projection,
        "rank_bookkeeping": all(
            g.in_count(x) - g.out_count(x) == c.coeff(x) for x in g.vertices
        ),
        "adjacency": all(
            r.vertex == col.vertex or g.adjacent(r.vertex, col.vertex)
            for (r, col) in v.entries
        ),
    }
    return BoundaryWitness(
        expanded=g,
        chain=c,
        v=v,
        source_projection=source_projection,
        target_projection=target_projection,
        in_rank_projection=in_rank_projection,
        out_rank_projection=out_rank_projection,
        exchange_in=exchange_in,
        exchange_out=exchange_out,
        checks=checks,
    )


def _diag_rank_at(projection: SparseBlockOperator, x) -> int:
    return sum(1 for (r, c) in projection.entries if r == c and r.vertex == x)


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
