"""Differential tests: the degree-1 pipeline against the construction it
replaced.

The routes of a cycle are one dict build per vertex, the track map builds
one head vector per expanded edge, the operator constructor checks all
columns and rows by set operations, a graph builds its indexes on first
use, and the slot involution of the compression filters its ordered inputs
instead of sorting them.  The references below are the earlier forms:
routes and track map built edge by edge, the constructor's per-column
check, a graph indexed eagerly and the sorting involution.  The new code
must agree with them: the same moves, the same error text, the same
adjacency, the same swaps."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsek.corpus import random_cycle, random_graph
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import expand_graph, order_matched_involution
from coarsek.k1_map import (
    _track_map,
    cycle_unitary,
    line_cycle_unitary,
    line_expansion,
    permuted_matching,
)
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    OperatorError,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    Window,
    slot_key,
)

# ---------------------------------------------------------------------------
# the references


def reference_routes(g, positions: dict) -> dict:
    """Routes built edge by edge; a permutation is trusted, not checked."""
    routes = {}
    for x in g.vertices:
        outs = g.out_edges(x)
        perm = positions.get(x, range(len(g.in_edges(x))))
        routes[x] = {
            e: outs[perm[j]] if outs else None for j, e in enumerate(g.in_edges(x))
        }
    return routes


def reference_track_map(routes: dict) -> dict:
    """Both vectors of every move built from the route."""
    return {
        BlockIndex(x, e.id): None if out is None else BlockIndex(out.target, out.id)
        for x, route in routes.items()
        for e, out in route.items()
    }


def reference_construct(domain, moves: dict, scalar: int) -> dict:
    """The stored moves, checking one column at a time and raising at the
    first that is out of place."""
    stored = {}
    rows = set()
    for c, r in moves.items():
        if c not in domain:
            raise OperatorError(f"column {c} outside the declared basis")
        if r is None:
            if scalar:
                stored[c] = None
            continue
        if r in rows:
            raise OperatorError(f"two columns are sent into row {r}")
        rows.add(r)
        if not (r in moves if scalar else r in domain):
            if r not in domain:
                raise OperatorError(f"row {r} outside the declared basis")
            raise OperatorError(f"column {c} is sent into row {r} of a fixed vector")
        if r != c or not scalar:
            stored[c] = r
    return stored


class EagerGraph:
    """The edge and adjacency indexes built when the graph is."""

    def __init__(self, g: OrientedGraph):
        self.by_id = {e.id: e for e in g.edges}
        self.outs = {v: [] for v in g.vertices}
        self.ins = {v: [] for v in g.vertices}
        for e in g.edges:
            self.outs[e.source].append(e)
            self.ins[e.target].append(e)

    def neighbors(self, v) -> set:
        return {e.target for e in self.outs[v]} | {e.source for e in self.ins[v]}


def sorting_involution(s1, s2) -> dict:
    """The involution with both set differences sorted by slot_key."""
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


# ---------------------------------------------------------------------------
# cycles: finite ones with rerouted vertices, and line windows


@st.composite
def finite_cycles(draw):
    """The expanded graph of a random cycle (parallel copies included), and
    a permutation of the outgoing edges at some of its vertices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_graph(rng, draw(st.integers(2, 6)), draw(st.integers(1, 10)))
    gamma = random_cycle(rng, g, bound=draw(st.integers(2, 4)))
    ex = expand_graph(g, gamma)
    positions = {}
    for x in ex.vertices:
        if len(ex.out_edges(x)) and draw(st.booleans()):
            positions[x] = tuple(draw(st.permutations(range(len(ex.out_edges(x))))))
    return gamma, ex, positions, None


@st.composite
def line_windows(draw):
    """A line window's expanded graph, and a permutation of the |k| copies
    at some of its vertices, the two ends included."""
    k = draw(st.integers(-3, 3))
    window = Window(draw(st.integers(0, 5)), draw(st.integers(0, 6)))
    ex = line_expansion(k, window.lo, window.hi)
    positions = {}
    if k:
        vertices = st.integers(window.lo, window.hi)
        for x in draw(st.lists(vertices, max_size=4, unique=True)):
            positions[x] = tuple(draw(st.permutations(range(abs(k)))))
    return (k, window), ex, positions, abs(k)


@settings(max_examples=150, deadline=None)
@given(finite_cycles() | line_windows())
# a window without a cell: its one vertex has no edge to count copies from
@example(((2, Window(0, 0)), line_expansion(2, 0, 0), {0: (1, 0)}, 2))
def test_routes_and_track_map_match_the_edge_by_edge_construction(case):
    source, ex, positions, copies = case
    for chosen in ({}, positions):
        routes = permuted_matching(ex, chosen, copies)
        want = reference_routes(ex, chosen)
        assert routes == want
        assert all(list(routes[x]) == list(want[x]) for x in ex.vertices)
        assert _track_map(routes) == reference_track_map(want)
    moves = reference_track_map(reference_routes(ex, positions))
    if copies is None:
        cu = cycle_unitary(source)
        assert cu.matching == permuted_matching(cu.expanded)
        assert cu.u.moves == reference_track_map(reference_routes(ex, {}))
    else:
        k, window = source
        assert line_cycle_unitary(k, window, positions).u.moves == moves


# ---------------------------------------------------------------------------
# the checking constructor

DOMAIN = ProductBasis([0, 1, "x"], [Ordinal(1), CopyEdge("e", 1), CopyEdge("e", 2)])
VECTORS = sorted(DOMAIN, key=repr)
# column or row keys the basis does not hold: a stray vector, keys that are
# no tuple or a tuple of another length, and vectors at another vertex or
# with another slot; and a plain tuple that is a vector of the basis
OUTSIDE = [
    BlockIndex(("stray",), Ordinal(9)),
    "x",
    7,
    (0, Ordinal(1), 0),
    BlockIndex(2, Ordinal(1)),
    BlockIndex("y", CopyEdge("e", 1)),
    BlockIndex(0, CopyEdge("e", 3)),
]
PLAIN = (1, Ordinal(1))
KEYS = st.sampled_from(VECTORS + OUTSIDE + [PLAIN])


@st.composite
def constructor_cases(draw):
    """A basis, product or explicit, a scalar, and moves: mostly a partial
    bijection of the basis, now and then with keys or rows from outside it
    or a row taken twice."""
    domain = draw(st.sampled_from([DOMAIN, frozenset(DOMAIN)]))
    scalar = draw(st.sampled_from([0, 1]))
    columns = draw(st.lists(st.sampled_from(VECTORS), unique=True, max_size=6))
    rows = draw(st.permutations(columns if scalar else VECTORS))[: len(columns)]
    moves = {c: None if draw(st.integers(0, 4)) == 0 else r for c, r in zip(columns, rows)}
    for _ in range(draw(st.integers(0, 2))):
        key = draw(KEYS)
        moves[key] = draw(st.sampled_from([None, *VECTORS, *OUTSIDE, PLAIN]))
    if moves and draw(st.integers(0, 5)) == 0:
        # a row taken twice
        c, r = draw(st.sampled_from(sorted(moves.items(), key=repr)))
        moves[draw(KEYS)] = r
    order = draw(st.permutations(list(moves)))
    return domain, {c: moves[c] for c in order}, scalar


def outcome(build, *args):
    try:
        return build(*args)
    except OperatorError as exc:
        return f"OperatorError: {exc}"


@settings(max_examples=400, deadline=None)
@given(constructor_cases())
def test_the_constructor_matches_the_per_column_check(case):
    domain, moves, scalar = case
    want = outcome(reference_construct, domain, moves, scalar)
    got = outcome(lambda: SparseBlockOperator(domain, moves, scalar).moves)
    assert got == want
    if isinstance(want, dict):
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("domain", [DOMAIN, frozenset(DOMAIN)], ids=["product", "explicit"])
@pytest.mark.parametrize(
    "key",
    [BlockIndex(("stray",), Ordinal(9)), "x", 7, (0, Ordinal(1), 0), BlockIndex(2, Ordinal(1))],
    ids=["stray", "string", "int", "triple", "wrong-vertex"],
)
def test_a_column_outside_the_basis_is_named_as_before(domain, key):
    # listed after a valid swap, so the set checks fail and the walk names it
    a, b = BlockIndex(0, Ordinal(1)), BlockIndex(1, Ordinal(1))
    moves = {a: b, b: a, key: None}
    for scalar in (0, 1):
        want = outcome(reference_construct, domain, moves, scalar)
        assert want == f"OperatorError: column {key} outside the declared basis"
        assert outcome(lambda: SparseBlockOperator(domain, moves, scalar).moves) == want


def test_an_unhashable_row_raises_as_before():
    moves = {BlockIndex(0, Ordinal(1)): BlockIndex([0], Ordinal(1))}
    for domain in (DOMAIN, frozenset(DOMAIN)):
        for scalar in (0, 1):
            with pytest.raises(TypeError):
                reference_construct(domain, moves, scalar)
            with pytest.raises(TypeError):
                SparseBlockOperator(domain, moves, scalar)


# ---------------------------------------------------------------------------
# graphs indexed on first use

LABELS = st.integers(-3, 3) | st.text(alphabet="ab", max_size=2)


@st.composite
def graphs(draw):
    vertices = draw(st.lists(LABELS, unique=True, min_size=1, max_size=5))
    edges = []
    for eid in draw(st.lists(LABELS, unique=True, max_size=8)):
        if len(vertices) > 1:
            source, target = draw(st.permutations(vertices))[:2]
            edges.append(Edge(eid, source, target))
    return OrientedGraph(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_a_lazily_indexed_graph_answers_as_an_eager_one(g, data):
    ref = EagerGraph(g)
    # the indexes are built by whichever question comes first
    first = data.draw(st.sampled_from(["edge", "vertex", "ins", "adjacent"]))
    x = g.vertices[0]
    if first == "edge":
        assert g.has_edge_id(g.edges[0].id if g.edges else "none") == bool(g.edges)
    elif first == "vertex":
        assert g.has_vertex(x)
    elif first == "ins":
        assert g.in_edges(x) == ref.ins[x]
    else:
        assert g.adjacent(x, x) == (x in ref.neighbors(x))
    for v in g.vertices:
        assert g.has_vertex(v)
        assert g.in_edges(v) == ref.ins[v]
        assert g.out_edges(v) == ref.outs[v]
        assert g.degree(v) == len(ref.ins[v]) + len(ref.outs[v])
        assert g.neighbors(v) == ref.neighbors(v)
        assert {y for y in g.vertices if g.adjacent(v, y)} == ref.neighbors(v)
    for e in g.edges:
        assert g.has_edge_id(e.id) and g._by_id[e.id] is ref.by_id[e.id]
    assert not g.has_vertex(("absent",)) and not g.has_edge_id(("absent",))


# ---------------------------------------------------------------------------
# the slot involution of the compression and the boundary witness

SLOTS = sorted(
    [Ordinal(i) for i in range(1, 5)]
    + [CopyEdge(e, c) for e in (0, 3, "a", (1, "b")) for c in (1, 2)],
    key=slot_key,
)


@st.composite
def ordered_slot_lists(draw):
    """Two lists of distinct slots, mixed ordinals and expanded edges, each
    in slot_key order."""
    picks = [st.sets(st.sampled_from(SLOTS), max_size=6) for _ in range(2)]
    return tuple(sorted(draw(p), key=slot_key) for p in picks)


def involution_outcome(build, s1, s2):
    try:
        return build(s1, s2)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(ordered_slot_lists())
def test_the_involution_of_ordered_lists_matches_the_sorting_one(lists):
    s1, s2 = lists
    want = involution_outcome(sorting_involution, s1, s2)
    assert involution_outcome(order_matched_involution, s1, s2) == want


def test_the_involution_callers_hand_it_ordered_lists():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(2, 10))
        ex = expand_graph(g, random_cycle(rng, g, bound=4))
        slots = [e.id for e in ex.edges]
        assert slots == sorted(slots, key=slot_key)
        for x in ex.vertices:
            for edges in (ex.in_edges(x), ex.out_edges(x)):
                ids = [e.id for e in edges]
                assert ids == sorted(ids, key=slot_key)
