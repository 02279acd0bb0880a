"""The degree-1 map: a 1-cycle becomes a permutation unitary.

A cycle has equal in-flow and out-flow at every vertex of its expanded
multigraph, so the ingoing edges at each vertex can be matched bijectively
with the outgoing ones.  The matching routes every (vertex, ingoing-edge)
basis vector one step along the cycle; all other basis vectors stay fixed.
The resulting operator is an exact permutation matrix, differs from the
identity only between adjacent vertices, and on the integer line its index
pairing recovers the cycle's integer class.  The line uses the same route
construction on a window of the constant cycle; the only difference is the
window cut, where a route with no outgoing edge leaves a zero column.

Two matchings of the same cycle differ by the exact product identity

    U_beta = U_alpha * R,    R = (direct sum over x of alpha_x^{-1} o beta_x),

where R is a block-diagonal slot permutation: propagation zero, every block
a finite permutation, hence connected to the identity.  That identity is the
verifiable content of matching independence.  The classical two-conjugation
route through the hybrid intermediate

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
from typing import Iterator, Optional

from .chains import Chain1, is_cycle
from .graphs import BandedZGraph
from .k0_map import (
    ExpandedGraph,
    block_diagonal_slot_permutation,
    expand_graph,
    order_matched_involution,
)
from .operators import (
    BlockIndex,
    Ordinal,
    OperatorError,
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


class EdgeMatching:
    """Per-vertex bijection from ingoing to outgoing expanded edges."""

    def __init__(self, expanded: ExpandedGraph, per_vertex: dict):
        self.expanded = expanded
        self.per_vertex = {x: dict(m) for x, m in per_vertex.items()}
        for x in expanded.vertices:
            m = self.per_vertex.setdefault(x, {})
            ins = set(expanded.in_edges(x))
            outs = set(expanded.out_edges(x))
            if set(m) != ins or set(m.values()) != outs or len(m) != len(ins):
                raise NonCycleError(x, len(ins), len(outs))

    @classmethod
    def _trusted(cls, expanded: ExpandedGraph, routes: dict) -> "EdgeMatching":
        """The matching of routes, a bijection at every vertex of expanded;
        nothing is checked or copied."""
        m = cls.__new__(cls)
        m.expanded, m.per_vertex = expanded, routes
        return m

    def at(self, x) -> dict:
        return self.per_vertex[x]


def canonical_matching(g: ExpandedGraph) -> EdgeMatching:
    """Sort ingoing and outgoing edges by (parent id, copy) and match in
    order; fails naming the first vertex where the flows disagree."""
    return permuted_matching(g, {})


def permuted_matching(g: ExpandedGraph, positions: dict) -> EdgeMatching:
    """Canonical matching with the outgoing side reordered: positions[x][j]
    is the index into the sorted outgoing list that the j-th sorted ingoing
    edge should map to."""
    for x in g.vertices:
        if g.in_count(x) != g.out_count(x):
            raise NonCycleError(x, g.in_count(x), g.out_count(x))
        perm = positions.get(x)
        if perm is not None and sorted(perm) != list(range(g.out_count(x))):
            raise ValueError(f"bad permutation at vertex {x!r}")
    return EdgeMatching(g, _routes(g, positions))


def _routes(g: ExpandedGraph, positions: dict) -> dict:
    """Per-vertex routes {x: {ingoing edge: outgoing edge or None}}: the j-th
    sorted ingoing edge at x goes to the positions[x][j]-th sorted outgoing
    edge (the j-th when x has no entry), and to None when x has no outgoing
    edge, as at the far end of a line window."""
    routes = {}
    for x in g.vertices:
        outs = g.out_edges(x)
        perm = positions.get(x, range(g.in_count(x)))
        routes[x] = {
            e: outs[perm[j]] if outs else None for j, e in enumerate(g.in_edges(x))
        }
    return routes


@dataclass
class CycleUnitary:
    """Permutation unitary of a cycle together with its expanded graph and
    the matching that produced it.  For line windows the operator is the
    restriction of the infinite one, exact on the window interior."""

    expanded: ExpandedGraph
    matching: Optional[EdgeMatching]
    u: SparseBlockOperator
    window: Optional[Window] = None


def _full_domain(g: ExpandedGraph) -> ProductBasis:
    return ProductBasis(g.vertices, [e.id for e in g.edges])


def _track_map(routes: dict) -> dict:
    """The moved vectors of the basis bijection: the ingoing vector of e at x
    advances along its route, or leaves a zero column when the route is
    None; everything else stays put."""
    return {
        BlockIndex(x, e.id): None if out is None else BlockIndex(out.target, out.id)
        for x, route in routes.items()
        for e, out in route.items()
    }


def cycle_unitary(
    gamma: Chain1, matching: Optional[EdgeMatching] = None
) -> CycleUnitary:
    """Build the permutation unitary of a finite-support cycle."""
    g = expand_graph(gamma.graph, gamma)
    if not is_cycle(gamma):
        # this raises, naming the first unbalanced vertex
        matching = canonical_matching(g)
    elif matching is None:
        # a cycle balances the flows at every vertex, so the canonical
        # routes are a matching without the checks of permuted_matching
        matching = EdgeMatching._trusted(g, _routes(g, {}))
    u = SparseBlockOperator(_full_domain(g), _track_map(matching.per_vertex), 1)
    return CycleUnitary(expanded=g, matching=matching, u=u)


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


def matching_correction(
    g: ExpandedGraph, alpha: EdgeMatching, beta: EdgeMatching
) -> SparseBlockOperator:
    """Block-diagonal slot permutation R with U_beta = U_alpha * R."""
    return _route_correction(g, alpha.per_vertex, beta.per_vertex)


def _route_correction(g: ExpandedGraph, alpha: dict, beta: dict) -> SparseBlockOperator:
    """R with U_beta = U_alpha * R for the unitaries of two route maps.

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
    g: ExpandedGraph, alpha: EdgeMatching, beta: EdgeMatching
) -> tuple[Optional[SparseBlockOperator], Optional[tuple]]:
    """The classical intermediate: ingoing vectors go to the alpha target
    vertex but the beta slot.  Returns the matrix when it is a basis
    bijection, and otherwise None with a colliding pair of columns as
    certificate."""
    moves = {}
    for x in g.vertices:
        for e in g.in_edges(x):
            a_out = alpha.at(x)[e]
            b_out = beta.at(x)[e]
            moves[BlockIndex(x, e.id)] = BlockIndex(a_out.target, b_out.id)
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


def _block_conjugator(g: ExpandedGraph, alpha: EdgeMatching, beta: EdgeMatching):
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
        sigma = {e: m.at(e.target)[e] for e in g.edges}
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

    u_alpha: SparseBlockOperator = field(repr=False)
    u_beta: SparseBlockOperator = field(repr=False)
    correction: SparseBlockOperator = field(repr=False)
    correction_identity: bool
    correction_is_permutation: bool
    correction_propagation_zero: bool
    correction_block_ranks: dict
    literal_intermediate_unitary: bool
    literal_collision: Optional[tuple]
    literal_matches_beta: Optional[bool]
    literal_v: Optional[SparseBlockOperator] = field(repr=False)
    literal_v_identity: Optional[bool]
    literal_v_obstruction: Optional[str]
    literal_w: Optional[SparseBlockOperator] = field(repr=False)
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


def verify_matching_independence(
    gamma: Chain1, alpha: EdgeMatching, beta: EdgeMatching
) -> MatchingIndependenceReport:
    g = alpha.expanded
    cu_a = cycle_unitary(gamma, alpha)
    cu_b = cycle_unitary(gamma, beta)
    u_a, u_b = cu_a.u, cu_b.u

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
    matches_beta = (hybrid == u_b) if unitary else None

    v_op = None
    v_identity = None
    v_obstruction = None
    w_op = None
    w_identity = None
    w_obstruction = None
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
        # a unitary hybrid always equals U_beta, so the identity is the
        # correct slot-preserving conjugator
        w_op = SparseBlockOperator.identity(u_a.domain)
        w_identity = w_op.adjoint().compose(hybrid).compose(w_op) == u_b
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
        u_alpha=u_a,
        u_beta=u_b,
        correction=correction,
        correction_identity=correction_identity,
        correction_is_permutation=corr_ok,
        correction_propagation_zero=prop_zero,
        correction_block_ranks=block_ranks,
        literal_intermediate_unitary=unitary,
        literal_collision=collision,
        literal_matches_beta=matches_beta,
        literal_v=v_op,
        literal_v_identity=v_identity,
        literal_v_obstruction=v_obstruction,
        literal_w=w_op,
        literal_w_identity=w_identity,
        literal_w_obstruction=w_obstruction,
        cycle_types=types,
    )


# ---------------------------------------------------------------------------
# compression into an ordinal matrix corner


@dataclass
class CompressionResult:
    """Conjugation of a cycle unitary u into the corner spanned by the first
    n ordinal slots.  u_tilde carries ordinal slots numbered by the expanded
    edges in (parent id, copy) order: ordinal i stands for slots[i - 1].
    Both verdicts are read off the stored operators."""

    u: SparseBlockOperator = field(repr=False)
    u_tilde: SparseBlockOperator
    t: SparseBlockOperator = field(repr=False)
    n: int
    max_valence: int
    slots: tuple = field(repr=False)

    @property
    def confinement_ok(self) -> bool:
        """u_tilde moves no vector from or into a slot beyond n."""
        n = self.n
        return all(
            c.slot.index <= n and (r is None or r.slot.index <= n)
            for c, r in self.u_tilde.moves.items()
        )

    @cached_property
    def round_trip_ok(self) -> bool:
        """u_tilde, with its ordinal slots mapped back to the expanded edges
        they number and conjugated back with t, is exactly u."""
        number = {Ordinal(i): s for i, s in enumerate(self.slots, start=1)}

        def edge(b: BlockIndex) -> BlockIndex:
            return BlockIndex(b.vertex, number[b.slot])

        # a relabelling of u_tilde's basis, so its moves stay valid as stored
        conjugated = SparseBlockOperator._trusted(
            self.u.domain,
            {edge(c): None if r is None else edge(r) for c, r in self.u_tilde.moves.items()},
            self.u_tilde.scalar,
        )
        t = self.t
        return t.compose(conjugated).compose(t.adjoint()) == self.u


def compress_to_uniform(cu: CycleUnitary, n: Optional[int] = None) -> CompressionResult:
    """Conjugate by the block-diagonal permutation that at each vertex swaps
    the first in-count(x) expanded edges with the ingoing edges.
    The conjugated operator differs from the identity only in ordinal slots
    up to n, for any n at least the maximal valence."""
    g = cu.expanded
    slots = tuple(e.id for e in g.edges)
    number = {s: i for i, s in enumerate(slots, start=1)}
    max_valence = max((g.degree(x) for x in g.vertices), default=0)
    if n is None:
        n = max_valence
    if n < max_valence:
        raise OperatorError(
            f"corner size {n} is smaller than the maximal valence {max_valence}"
        )
    per_vertex = {}
    for x in g.vertices:
        i_x = g.in_count(x)
        first = [g.edges[i].id for i in range(i_x)]
        ins = [e.id for e in g.in_edges(x)]
        per_vertex[x] = order_matched_involution(first, ins)
    t = block_diagonal_slot_permutation(cu.u.domain, per_vertex)
    conjugated = t.adjoint().compose(cu.u).compose(t)

    def relabel(b: BlockIndex) -> BlockIndex:
        return BlockIndex(b.vertex, Ordinal(number[b.slot]))

    # a line window leaves zero columns at its far cut
    u_tilde = SparseBlockOperator(
        ProductBasis(g.vertices, [Ordinal(number[s]) for s in slots]),
        {relabel(c): None if r is None else relabel(r) for c, r in conjugated.moves.items()},
        conjugated.scalar,
    )
    return CompressionResult(
        u=cu.u, u_tilde=u_tilde, t=t, n=n, max_valence=max_valence, slots=slots
    )


# ---------------------------------------------------------------------------
# the integer line


def line_expansion(k: int, lo: int, hi: int) -> ExpandedGraph:
    """Expanded multigraph of the constant-k cycle on the line window
    [lo, hi]: |k| parallel copies of every cell edge, reversed when k < 0."""
    graph = BandedZGraph().window(lo, hi)
    gamma = Chain1(graph, {n: k for n in range(lo, hi)})
    return expand_graph(graph, gamma)


def line_cycle_unitary(
    k: int,
    window: Window,
    copy_permutations: Optional[dict] = None,
) -> CycleUnitary:
    """Restriction to the window of the cycle unitary of the constant-k
    banded cycle.

    This is the construction of cycle_unitary on the window's expanded
    graph, with the window cuts as the only difference.  The routes follow
    the rule of permuted_matching: copy c of the cell arriving at x goes to
    copy c of the cell leaving x, and copy_permutations[x] (a tuple
    permuting 0..|k|-1) reroutes the copies at selected vertices.  At the
    window's far end no cell leaves, so those columns are zero; the operator
    is unitary on the interior and exactly equals the infinite operator
    there.
    """
    g = line_expansion(k, window.lo, window.hi)
    routes = _routes(g, copy_permutations or {})
    u = SparseBlockOperator(_full_domain(g), _track_map(routes), 1)
    return CycleUnitary(expanded=g, matching=None, u=u, window=window)


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
    g = cu_a.expanded
    correction = _route_correction(g, _routes(g, {}), _routes(g, copy_permutations))
    identity_holds = cu_a.u.compose(correction) == cu_b.u
    idx_a = index_pairing(cu_a.u, window)
    idx_b = index_pairing(cu_b.u, window)
    return {
        "correction_identity": identity_holds,
        "index_alpha": idx_a,
        "index_beta": idx_b,
        "indexes_equal": idx_a == idx_b,
    }
