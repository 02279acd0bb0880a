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
from dataclasses import dataclass
from typing import Optional, Union

from .chains import (
    BandedZChain,
    Chain0,
    Chain1,
    ChainError,
    boundary,
    spanning_forest,
)
from .graphs import Edge, OrientedGraph
from .operators import (
    BlockIndex,
    CopyEdge,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    Window,
)


def expand_graph(g: OrientedGraph, gamma: Chain1) -> OrientedGraph:
    """Replace each edge e by |gamma_e| parallel copies, flipping orientation
    where the coefficient is negative; copy c has id CopyEdge(e, c), which
    is also its basis slot.  The copies inherit the host's checks and come
    out in idkey order, so nothing is checked or sorted.  Each copy costs
    two tuples: tuple.__new__ builds the NamedTuples without their
    Python-level constructors."""
    if gamma.graph is not g and gamma.graph != g:
        raise ChainError("chain does not live over this graph")
    new, coeffs = tuple.__new__, gamma.coeffs
    edges = []
    for e in g.edges:
        coeff = coeffs.get(e.id)
        if coeff:
            eid, src, tgt = e if coeff > 0 else (e.id, e.target, e.source)
            for c in range(1, abs(coeff) + 1):
                edges.append(new(Edge, (new(CopyEdge, (eid, c)), src, tgt)))
    return OrientedGraph._trusted(g.vertices, tuple(edges))


# ---------------------------------------------------------------------------
# projection pairs


@dataclass(frozen=True)
class ProjectionPair:
    """Diagonal projections (f, g) over a common ambient basis; at each
    vertex at most one of them is nonzero.  Both have scalar 0, so their
    moves fix exactly the vectors they project onto."""

    f: SparseBlockOperator
    g: SparseBlockOperator


def _pair_from_values(values: dict) -> ProjectionPair:
    ceiling = max((abs(v) for v in values.values()), default=0)
    new = tuple.__new__  # NamedTuples without their Python-level constructors
    ordinals = [new(Ordinal, (i,)) for i in range(1, ceiling + 1)]
    dom = ProductBasis(values, ordinals)
    f_moves = {}
    g_moves = {}
    for x, cx in values.items():
        for o in ordinals[: abs(cx)]:
            b = new(BlockIndex, (x, o))
            if cx > 0:
                f_moves[b] = b
            else:
                g_moves[b] = b
    return ProjectionPair(
        f=SparseBlockOperator(dom, f_moves),
        g=SparseBlockOperator(dom, g_moves),
    )


def build_projection_pair(
    c: Union[Chain0, BandedZChain], window: Optional[Window] = None
) -> ProjectionPair:
    """Diagonal projection pair of a 0-chain; banded chains are realized on
    the given window."""
    if isinstance(c, Chain0):
        values = {x: c.coeff(x) for x in c.graph.vertices}
        return _pair_from_values(values)
    if c.degree != 0:
        raise ChainError("a degree-0 chain is required")
    if window is None:
        raise ChainError("a window is required for banded chains")
    values = {x: c.value(x) for x in range(window.lo, window.hi + 1)}
    return _pair_from_values(values)


def slot_ceiling(pair: ProjectionPair) -> int:
    """Largest ordinal slot index actually used by either projection."""
    used = [b.slot.index for b in pair.f.moves] + [b.slot.index for b in pair.g.moves]
    return max(used, default=0)


def k0_signature(pair: ProjectionPair) -> int:
    """Total rank difference of the pair; on a finite host this is the K0
    invariant and equals the sum of the chain coefficients."""
    return len(pair.f.moves) - len(pair.g.moves)


def component_signatures(pair: ProjectionPair, g: OrientedGraph) -> dict:
    """k0_signature on each path component of the host g, keyed by the
    component's spanning-forest root.  Components lie at infinite distance,
    so the Roe algebra is their direct sum and K0 has one rank trace per
    component; the total signature can vanish where these do not."""
    order, up = spanning_forest(g)
    root = {}
    for x in order:  # every vertex comes after its parent
        e = up[x]
        root[x] = x if e is None else root[e.source if e.target == x else e.target]
    signatures = {x: 0 for x in order if up[x] is None}
    for b in pair.f.moves:
        signatures[root[b.vertex]] += 1
    for b in pair.g.moves:
        signatures[root[b.vertex]] -= 1
    return signatures


# ---------------------------------------------------------------------------
# the boundary witness


def order_matched_involution(s1, s2) -> dict:
    """Involution of slots exchanging sorted(s1 minus s2) with
    sorted(s2 minus s1) position by position, fixing the intersection.
    Requires both differences to have equal size.  Only moved slots appear
    in the result.

    Both s1 and s2 must list distinct slots in slot_key order, as both
    callers hand them: the first ordinals or expanded edges, and the
    ingoing or outgoing edges of a vertex, all in expand_graph's order.  So
    the differences are order-preserving filters, and nothing is sorted."""
    set1, set2 = set(s1), set(s2)
    d1 = [s for s in s1 if s not in set2]
    d2 = [s for s in s2 if s not in set1]
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

    expanded: OrientedGraph
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
    new = tuple.__new__  # NamedTuples without their Python-level constructors
    ordinals = [new(Ordinal, (i,)) for i in range(1, ceiling + 1)]
    sources = [new(BlockIndex, (e.source, e.id)) for e in g.edges]
    targets = [new(BlockIndex, (e.target, e.id)) for e in g.edges]
    dom = frozenset(
        [new(BlockIndex, (x, o)) for x in g.vertices for o in ordinals] + sources + targets
    )

    def op(moves, scalar=0):
        return SparseBlockOperator._trusted(dom, moves, scalar)

    def diag(blocks):
        return op({b: b for b in blocks})

    def ranks(counts):
        return diag(new(BlockIndex, (x, o)) for x, n in counts.items() for o in ordinals[:n])

    def exchange(counts, edges_at):
        # at each vertex x, ordinal slot i and the slot of the i-th edge of
        # edges_at(x) trade places (order_matched_involution)
        moves = {}
        for x, n in counts.items():
            swaps = order_matched_involution(ordinals[:n], [e.id for e in edges_at(x)])
            for a, b in swaps.items():
                moves[new(BlockIndex, (x, a))] = new(BlockIndex, (x, b))
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
        # read in the host: every move of v runs along an edge of g, so g's
        # own adjacency would certify only the construction
        "adjacency": not gamma.graph.far_moves(v),
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
                "in_count": len(w.expanded.in_edges(x)),
                "out_count": len(w.expanded.out_edges(x)),
                "chain_value": w.chain.coeff(x),
            }
            for x in w.expanded.vertices
        },
        "edges": len(w.expanded.edges),
        "ok": w.ok,
    }
