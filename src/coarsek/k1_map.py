"""The degree-1 map: a 1-cycle becomes a permutation unitary.

A cycle has equal in-flow and out-flow at every vertex of its expanded
multigraph, so the ingoing edges at each vertex can be matched bijectively
with the outgoing ones.  A matching is its routes, the map {x: {ingoing
edge: outgoing edge or None}}: it sends every (vertex, ingoing-edge) basis
vector one step along the cycle, and all other basis vectors stay fixed.
The resulting operator is an exact permutation matrix, differs from the
identity only between adjacent vertices, and on the integer line its index
pairing recovers the cycle's integer class.  The line uses the same route
construction on a window of the constant cycle; the only difference is the
window cut, where a route with no outgoing edge leaves a zero column.

Two matchings of the same cycle differ by the exact product identity

    U_beta = U_alpha * R,    R = (direct sum over x of alpha_x^{-1} o beta_x),

where R is a block-diagonal slot permutation: propagation zero, every block
a finite permutation, hence connected to the identity.  That identity is the
verifiable content of matching independence.  It is checked on a built
cycle unitary, whose routes are alpha, against the unitary of beta on the
same expanded graph.  The classical two-conjugation route through the
hybrid intermediate

    U'(x, e) = (target of alpha_x(e), slot of beta_x(e))   for ingoing e

is also constructed here, but it fails in general: the hybrid is injective
only when alpha and beta route every ingoing edge to the same target vertex,
and even then closed tracks of different cycle type obstruct any unitary
conjugation (conjugation preserves the spectrum).  Past the cycle types,
whether a block-diagonal slot permutation conjugates U_alpha onto U' is
decided exactly: the tracks of both matchings, read as closed walks of the
expanded graph, must agree as a multiset, and the first closed walk whose
multiplicities differ is the certificate.  The verification report records
the literal route honestly, with certificates, next to the product identity
that does hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterator, Optional

from .chains import Chain1, is_cycle, json_int
from .graphs import BandedZGraph, OrientedGraph
from .k0_map import (
    block_diagonal_slot_permutation,
    expand_graph,
    order_matched_involution,
)
from .operators import (
    BlockIndex,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    Window,
    block_key,
    diagonal_block_ranks,
    index_pairing,
)


class NonCycleError(ValueError):
    def __init__(self, vertex, in_count, out_count):
        self.vertex = vertex
        super().__init__(
            f"not a cycle: vertex {vertex!r} has in-flow {in_count} "
            f"but out-flow {out_count}"
        )


def permuted_matching(
    g: OrientedGraph, positions: Optional[dict] = None, copies: Optional[int] = None
) -> dict:
    """Per-vertex routes {x: {ingoing edge: outgoing edge or None}} of g,
    which expands a cycle or a line window: the j-th sorted ingoing edge at
    x goes to the positions[x][j]-th sorted outgoing edge (the j-th when x
    has no entry, which is the canonical matching), and to None when x has
    no outgoing edge, as at the far end of a line window.

    positions[x] must permute range(n), n the out-count at x, or copies when
    given: the copies per cell of a line window, whose end vertices have
    edges on one side only.  Each vertex's routes are one C-level dict
    build; the check comes first, as zip would cut a short permutation.
    A key of positions that is no vertex of g is refused by name."""
    positions = positions or {}
    vertices = set(g.vertices) if positions else ()
    for x in positions:
        if x not in vertices:
            raise ValueError(f"not a vertex: {x!r}")
    routes = {}
    for x in g.vertices:
        ins, outs = g.in_edges(x), g.out_edges(x)
        perm = positions.get(x)
        if perm is not None:
            if sorted(perm) != list(range(len(outs) if copies is None else copies)):
                raise ValueError(f"bad permutation at vertex {x!r}")
            if outs:
                outs = [outs[p] for p in perm]
        routes[x] = dict(zip(ins, outs)) if outs else dict.fromkeys(ins)
    return routes


@dataclass
class CycleUnitary:
    """Permutation unitary of a cycle together with its expanded graph and
    the routes that produced it.  For line windows the operator is the
    restriction of the infinite one, exact on the window interior."""

    expanded: OrientedGraph
    matching: dict
    u: SparseBlockOperator
    window: Optional[Window] = None


def _full_domain(g: OrientedGraph) -> ProductBasis:
    return ProductBasis(g.vertices, [e.id for e in g.edges])


def _track_map(routes: dict) -> dict:
    """The moved vectors of the basis bijection: the ingoing vector of e at x
    advances along its route, or leaves a zero column when the route is
    None; everything else stays put.

    Every expanded edge e is ingoing at its target, so its head vector
    (target of e, e) is both the column of e and the image of the edge
    routed into e; it is built once per edge, by tuple.__new__ without the
    NamedTuple's Python-level constructor."""
    new = tuple.__new__
    head = {
        e: new(BlockIndex, (e.target, e.id)) for route in routes.values() for e in route
    }
    return {
        head[e]: None if out is None else head[out]
        for route in routes.values()
        for e, out in route.items()
    }


def _unitary(g: OrientedGraph, routes: dict) -> SparseBlockOperator:
    """The unitary of routes on g, through the checking constructor."""
    return SparseBlockOperator(_full_domain(g), _track_map(routes), 1)


def cycle_unitary(gamma: Chain1) -> CycleUnitary:
    """Build the permutation unitary of a finite-support cycle by the
    canonical matching of its expanded graph; a chain that is no cycle is
    refused, naming the first vertex where the flows disagree."""
    g = expand_graph(gamma.graph, gamma)
    if not is_cycle(gamma):
        for x in g.vertices:
            n_in, n_out = len(g.in_edges(x)), len(g.out_edges(x))
            if n_in != n_out:
                raise NonCycleError(x, n_in, n_out)
    matching = permuted_matching(g)
    return CycleUnitary(expanded=g, matching=matching, u=_unitary(g, matching))


def permutation_cycle_type(op: SparseBlockOperator) -> Optional[tuple[int, ...]]:
    """Sorted nontrivial cycle lengths when op is a permutation matrix of its
    ambient basis, else None.

    With scalar 1 the moves permute their own columns unless one is zero;
    with scalar 0 every column must be moved."""
    moves = op.moves
    if op.scalar:
        if any(r is None for r in moves.values()):
            return None
    elif len(moves) != len(op.domain):
        return None
    return tuple(sorted(n for _, n in _cycles(moves) if n > 1))


def _cycles(mapping: dict) -> Iterator[tuple[object, int]]:
    """(first point, length) of every cycle of a permutation of the keys of
    mapping, in the order the keys come."""
    seen = set()
    for start in mapping:
        n, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = mapping[cur]
            n += 1
        if n:
            yield start, n


# ---------------------------------------------------------------------------
# matching independence


def matching_correction(g: OrientedGraph, alpha: dict, beta: dict) -> SparseBlockOperator:
    """Block-diagonal slot permutation R with U_beta = U_alpha * R.

    At each vertex R reroutes ingoing slots by alpha_x^{-1} o beta_x, so the
    alpha-route of the rerouted slot is exactly the beta-route of the
    original one.  A vector whose route leaves the window stays fixed: both
    unitaries send it to zero.
    """
    per_vertex = {}
    for x in g.vertices:
        inv = {out: e for e, out in alpha[x].items()}
        per_vertex[x] = {
            e.id: inv[out].id for e, out in beta[x].items() if out is not None
        }
    return block_diagonal_slot_permutation(_full_domain(g), per_vertex)


def _hybrid_intermediate(
    g: OrientedGraph, alpha: dict, beta: dict
) -> tuple[Optional[SparseBlockOperator], Optional[tuple]]:
    """The classical intermediate: ingoing vectors go to the alpha target
    vertex but the beta slot.  Returns the matrix when it is a basis
    bijection, and otherwise None with a colliding pair of columns as
    certificate."""
    moves = {}
    for x in g.vertices:
        for e in g.in_edges(x):
            moves[BlockIndex(x, e.id)] = BlockIndex(alpha[x][e].target, beta[x][e].id)
    # a collision needs a moved vector: among the fixed ones only those a
    # moved vector lands on can take part, so the first collision in block
    # order over these candidates is the first over the whole basis
    candidates = set(moves) | {img for img in moves.values() if img not in moves}
    seen: dict[BlockIndex, BlockIndex] = {}
    for b in sorted(candidates, key=block_key):
        img = moves.get(b, b)
        if img in seen:
            return None, (seen[img], b, img)
        seen[img] = b
    return SparseBlockOperator(_full_domain(g), moves, 1), None


def _least_rotation(word: list) -> int:
    """Start of the lexicographically least rotation of word, in linear
    time (K. S. Booth, Inf. Process. Lett. 10(4), 1980)."""
    s = word + word
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _block_conjugator(g: OrientedGraph, alpha: dict, beta: dict):
    """Decide whether per-vertex permutations pi_x of the ingoing edges with

        alpha_x(pi_x(e)) = pi_y(beta_x(e)),   y = target(beta_x(e)),

    exist; they make V = (direct sum of pi_x on ingoing slots) satisfy
    U' = V* U_alpha V when the hybrid U' is unitary.

    The track map sigma(e) = m_{target(e)}(e) of a matching m permutes the
    expanded edges, and the condition says pi conjugates sigma_beta to
    sigma_alpha.  Such a pi keeps every edge's colour (source, target), so
    it exists exactly when the tracks of both maps, read as cyclic colour
    words, form the same multiset; aligning equal words at their least
    rotation builds pi.  Returns (per-vertex slot maps, None), or (None,
    reason) naming the first closed walk whose multiplicities differ.
    """
    colour: dict = {}
    for e in g.edges:
        colour.setdefault((e.source, e.target), len(colour))
    tracks = []
    for m in (alpha, beta):
        sigma = {e: m[e.target][e] for e in g.edges}
        by_word: dict = {}
        for start, n in _cycles(sigma):
            walk = [start]
            for _ in range(n - 1):
                walk.append(sigma[walk[-1]])
            word = [colour[e.source, e.target] for e in walk]
            k = _least_rotation(word)
            by_word.setdefault(tuple(word[k:] + word[:k]), []).append(walk[k:] + walk[:k])
        tracks.append(by_word)
    a_tracks, b_tracks = tracks
    for word in {**a_tracks, **b_tracks}:
        n_a, n_b = len(a_tracks.get(word, ())), len(b_tracks.get(word, ()))
        if n_a != n_b:
            walk = (a_tracks.get(word) or b_tracks[word])[0]
            vertices = [e.source for e in walk] + [walk[0].source]
            return None, (
                f"closed walk {vertices} has multiplicity {n_a} among the alpha "
                f"tracks and {n_b} among the beta tracks: no slot-permutation "
                "conjugator exists"
            )
    pi: dict = {x: {} for x in g.vertices}
    for word, b_walks in b_tracks.items():
        for b_walk, a_walk in zip(b_walks, a_tracks[word]):
            for e, p in zip(b_walk, a_walk):
                pi[e.target][e.id] = p.id
    return pi, None


@dataclass
class MatchingIndependenceReport:
    """Exact certificates comparing the unitaries of two matchings.

    correction_* fields document the product identity U_beta = U_alpha * R,
    which holds always.  literal_* fields document the two-conjugation route
    through the hybrid intermediate; when it cannot hold, the report carries
    the obstruction (a column collision of the hybrid, differing permutation
    cycle types, which no unitary conjugation can reconcile, or a closed walk
    that is a track of one matching more often than of the other, which no
    block-diagonal slot permutation can reconcile).
    """

    correction_identity: bool
    correction_is_permutation: bool
    correction_propagation_zero: bool
    correction_block_ranks: dict
    literal_intermediate_unitary: bool
    literal_v_identity: Optional[bool]
    literal_v_obstruction: Optional[str]
    literal_w_identity: Optional[bool]
    literal_w_obstruction: Optional[str]
    cycle_types: tuple

    @property
    def literal_route_ok(self) -> bool:
        return bool(
            self.literal_intermediate_unitary
            and self.literal_v_identity
            and self.literal_w_identity
        )

    @property
    def content_ok(self) -> bool:
        return (
            self.correction_identity
            and self.correction_is_permutation
            and self.correction_propagation_zero
        )

    def to_json(self) -> dict:
        return {
            "correction_identity": self.correction_identity,
            "correction_is_permutation": self.correction_is_permutation,
            "correction_propagation_zero": self.correction_propagation_zero,
            "correction_block_ranks": {
                str(k): v for k, v in sorted(self.correction_block_ranks.items(), key=lambda kv: str(kv[0]))
            },
            "literal_intermediate_unitary": self.literal_intermediate_unitary,
            "literal_v_identity": self.literal_v_identity,
            "literal_v_obstruction": self.literal_v_obstruction,
            "literal_w_identity": self.literal_w_identity,
            "literal_w_obstruction": self.literal_w_obstruction,
            "literal_route_ok": self.literal_route_ok,
            "content_ok": self.content_ok,
            "cycle_types": [list(t) if t else list() for t in self.cycle_types],
        }


def verify_matching_independence(cu: CycleUnitary, beta: dict) -> MatchingIndependenceReport:
    """Compare the cycle unitary cu, built by the matching alpha, with the
    unitary of the routes beta on the same expanded graph."""
    g, alpha, u_a = cu.expanded, cu.matching, cu.u
    u_b = _unitary(g, beta)

    correction = matching_correction(g, alpha, beta)
    correction_identity = u_a.compose(correction) == u_b
    corr_ok = (
        correction.adjoint().compose(correction)
        == SparseBlockOperator.identity(correction.domain)
    )
    block_ranks = dict(diagonal_block_ranks(correction))
    prop_zero = all(r is None or r.vertex == c.vertex for c, r in correction.moves.items())

    hybrid, collision = _hybrid_intermediate(g, alpha, beta)
    unitary = collision is None

    v_identity = v_obstruction = w_identity = w_obstruction = None
    types = (permutation_cycle_type(u_a), permutation_cycle_type(u_b))
    if unitary:
        if types[0] is not None and types[0] != types[1]:
            v_obstruction = (
                f"cycle types differ ({types[0]} vs {types[1]}): "
                "no unitary conjugation can exist"
            )
        else:
            per_vertex, reason = _block_conjugator(g, alpha, beta)
            if per_vertex is None:
                v_obstruction = reason
            else:
                v_op = block_diagonal_slot_permutation(u_a.domain, per_vertex)
                v_identity = (
                    v_op.adjoint().compose(u_a).compose(v_op) == hybrid
                )
        # the slot-preserving conjugator W is the identity: a unitary hybrid
        # always equals U_beta, so W*U'W = U' is compared with U_beta once
        w_identity = hybrid == u_b
    else:
        v_obstruction = (
            "hybrid intermediate is not injective: columns "
            f"{collision[0]} and {collision[1]} share the image {collision[2]}"
        )
        w_obstruction = (
            "no unitary W exists: W*U'W would be non-injective like U', "
            "but U_beta is a permutation"
        )

    return MatchingIndependenceReport(
        correction_identity=correction_identity,
        correction_is_permutation=corr_ok,
        correction_propagation_zero=prop_zero,
        correction_block_ranks=block_ranks,
        literal_intermediate_unitary=unitary,
        literal_v_identity=v_identity,
        literal_v_obstruction=v_obstruction,
        literal_w_identity=w_identity,
        literal_w_obstruction=w_obstruction,
        cycle_types=types,
    )


# ---------------------------------------------------------------------------
# compression into an ordinal matrix corner


@dataclass
class CompressionResult:
    """A cycle unitary u and its compression u_tilde into the corner spanned
    by the first max_valence ordinal slots: u relabelled by phi, a bijection
    from u's basis onto u_tilde's that keeps every vertex.  At x, phi applies
    involution[x] (only its moved slots are stored), then numbers the
    expanded edges in (parent id, copy) order: ordinal i stands for
    slots[i - 1].  phi costs one entry per expanded edge."""

    u: SparseBlockOperator = field(repr=False)
    u_tilde: SparseBlockOperator
    max_valence: int
    slots: tuple = field(repr=False)
    involution: dict = field(repr=False)

    @property
    def confinement_ok(self) -> bool:
        """u_tilde moves no vector from or into a slot beyond max_valence."""
        n = self.max_valence
        return all(
            c.slot.index <= n and (r is None or r.slot.index <= n)
            for c, r in self.u_tilde.moves.items()
        )

    @property
    def ok(self) -> bool:
        return self.round_trip_ok and self.confinement_ok

    @cached_property
    def round_trip_ok(self) -> bool:
        """u_tilde, with every vector mapped back through phi^-1 to the
        expanded edge phi sends there, is exactly u."""
        slots, new = self.slots, tuple.__new__
        back = {x: {t: s for s, t in m.items()} for x, m in self.involution.items()}

        def edge(b: BlockIndex) -> BlockIndex:
            x, (i,) = b
            s = slots[i - 1]
            return new(BlockIndex, (x, back[x].get(s, s)))

        # a relabelling of u_tilde's basis, so its moves stay valid as stored
        restored = SparseBlockOperator._trusted(
            self.u.domain,
            {edge(c): None if r is None else edge(r) for c, r in self.u_tilde.moves.items()},
            self.u_tilde.scalar,
        )
        return restored == self.u


def compress_to_uniform(cu: CycleUnitary) -> CompressionResult:
    """Relabel u by phi: at each vertex swap the first in-count(x) expanded
    edges with the ingoing edges, then number the expanded edges.  That is
    conjugation by a permutation unitary, done in one pass over the moves of
    u, and the result moves only ordinal slots up to the maximal valence."""
    g = cu.expanded
    slots = tuple(e.id for e in g.edges)
    max_valence = max((g.degree(x) for x in g.vertices), default=0)
    involution = {
        x: order_matched_involution(slots[: len(g.in_edges(x))], [e.id for e in g.in_edges(x)])
        for x in g.vertices
    }
    new = tuple.__new__  # NamedTuples without their Python-level constructors
    number = {s: new(Ordinal, (i,)) for i, s in enumerate(slots, start=1)}

    def phi(b: BlockIndex) -> BlockIndex:
        x, s = b
        return new(BlockIndex, (x, number[involution[x].get(s, s)]))

    # a line window leaves zero columns at its far cut
    u_tilde = SparseBlockOperator(
        ProductBasis(g.vertices, number.values()),
        {phi(c): None if r is None else phi(r) for c, r in cu.u.moves.items()},
        cu.u.scalar,
    )
    return CompressionResult(cu.u, u_tilde, max_valence, slots, involution)


# ---------------------------------------------------------------------------
# the integer line


def line_expansion(k: int, lo: int, hi: int) -> OrientedGraph:
    """Expanded multigraph of the constant-k cycle on the line window
    [lo, hi]: |k| parallel copies of every cell edge, reversed when k < 0.
    The chain is k on every cell of the window, so once k is checked as the
    constructor would check it, it is built unchecked."""
    graph = BandedZGraph().window(lo, hi)
    if lo < hi:
        json_int(k, f"coefficient on edge {lo!r}")
    gamma = Chain1._trusted(graph, zip(range(lo, hi), repeat(k)))
    return expand_graph(graph, gamma)


def line_cycle_unitary(
    k: int,
    window: Window,
    copy_permutations: Optional[dict] = None,
) -> CycleUnitary:
    """Restriction to the window of the cycle unitary of the constant-k
    banded cycle.

    This is the construction of cycle_unitary on the window's expanded
    graph, with the window cuts as the only difference.  permuted_matching
    builds the routes: copy c of the cell arriving at x goes to
    copy c of the cell leaving x, and copy_permutations[x] (a tuple
    permuting 0..|k|-1) reroutes the copies at selected vertices.  At the
    window's far end no cell leaves, so those columns are zero; the operator
    is unitary on the interior and exactly equals the infinite operator
    there.
    """
    g = line_expansion(k, window.lo, window.hi)
    routes = permuted_matching(g, copy_permutations, abs(k))
    return CycleUnitary(expanded=g, matching=routes, u=_unitary(g, routes), window=window)


def constant_cycle_index(k: int, window: Window) -> int:
    """Index pairing of the constant-k cycle's unitary on the given window;
    the whole degree-1 pipeline for the line."""
    # the infinite operator has propagation 1 when k != 0, but a window
    # without cells truncates it to nothing, which index_pairing cannot see
    window.require_margin(1 if k else 0)
    cu = line_cycle_unitary(k, window)
    return index_pairing(cu.u, window)


def line_matching_independence(
    k: int, window: Window, copy_permutations: dict
) -> dict:
    """Exact comparison of the canonical and a rerouted matching for the
    constant-k line cycle: the product identity on the window and equal
    index pairings."""
    if k == 0:
        raise ValueError("needs a nonzero cycle")
    cu_a = line_cycle_unitary(k, window)
    cu_b = line_cycle_unitary(k, window, copy_permutations)
    correction = matching_correction(cu_a.expanded, cu_a.matching, cu_b.matching)
    identity_holds = cu_a.u.compose(correction) == cu_b.u
    idx_a = index_pairing(cu_a.u, window)
    idx_b = index_pairing(cu_b.u, window)
    return {
        "correction_identity": identity_holds,
        "index_alpha": idx_a,
        "index_beta": idx_b,
        "indexes_equal": idx_a == idx_b,
    }
