import random

import pytest

from coarsek import corpus, intlinalg, k0_map, k1_map, operators, scenarios
from coarsek.chains import Chain1
from coarsek.corpus import (
    figure_eight,
    random_cycle,
    random_graph,
    random_matching,
    random_multiplicity_cycle,
)
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import block_diagonal_slot_permutation, expand_graph
from coarsek.k1_map import (
    NonCycleError,
    _block_conjugator,
    _hybrid_intermediate,
    compress_to_uniform,
    constant_cycle_index,
    cycle_unitary,
    line_cycle_unitary,
    line_matching_independence,
    matching_correction,
    permutation_cycle_type,
    permuted_matching,
    verify_matching_independence,
)
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    SparseBlockOperator,
    Window,
    block_ranks,
    index_pairing,
    is_unitary_on,
)
from helpers import block_rank, cycle_graph, triangle_with_chord_orientation


# ---------------------------------------------------------------------------
# matchings


def test_canonical_matching_on_triangle_is_forced():
    g, gamma = triangle_with_chord_orientation()
    ex = expand_graph(g, gamma)
    m = permuted_matching(ex)
    for x in ex.vertices:
        assert len(m[x]) == 1


def test_canonical_matching_reports_noncycle_vertex():
    # the flows agree at vertex 0 and first disagree at vertex 1
    g = OrientedGraph([0, 1, 2], [Edge("a", 0, 1), Edge("b", 1, 2), Edge("c", 2, 0)])
    with pytest.raises(NonCycleError) as err:
        cycle_unitary(Chain1(g, {"a": 1, "b": 2, "c": 1}))
    assert err.value.vertex == 1
    assert str(err.value) == "not a cycle: vertex 1 has in-flow 1 but out-flow 2"


def test_figure_eight_has_two_matchings_at_center():
    g, gamma = figure_eight()
    ex = expand_graph(g, gamma)
    assert len(ex.in_edges("z")) == 2
    a = permuted_matching(ex)
    b = permuted_matching(ex, {"z": (1, 0)})
    assert a["z"] != b["z"]


# ---------------------------------------------------------------------------
# the unitary


def test_zero_cycle_gives_identity():
    g, _ = triangle_with_chord_orientation()
    cu = cycle_unitary(Chain1(g, {}))
    assert cu.u.domain == frozenset()
    assert cu.u.is_zero()  # identity of the empty basis


def test_triangle_unitary_is_a_three_cycle_track():
    g, gamma = triangle_with_chord_orientation()
    cu = cycle_unitary(gamma)
    assert len(cu.u.domain) == 9
    assert is_unitary_on(cu.u)
    assert permutation_cycle_type(cu.u) == (3,)
    moved = {(r, c) for (r, c) in cu.u.entries if r != c}
    # brute-force expectation: the track visits (x, ingoing edge at x)
    e01, e02, e12 = CopyEdge("e01", 1), CopyEdge("e02", 1), CopyEdge("e12", 1)
    expected = {
        (BlockIndex(2, e12), BlockIndex(1, e01)),
        (BlockIndex(0, e02), BlockIndex(2, e12)),
        (BlockIndex(1, e01), BlockIndex(0, e02)),
    }
    assert moved == expected


def test_noncycle_input_is_rejected_with_vertex():
    # the first vertex of the expansion whose in- and out-count differ
    g = OrientedGraph([0, 1], [Edge("e", 0, 1)])
    with pytest.raises(NonCycleError) as err:
        cycle_unitary(Chain1(g, {"e": 1}))
    assert str(err.value) == "not a cycle: vertex 0 has in-flow 0 but out-flow 1"
    assert err.value.vertex == 0


def test_line_unitary_is_a_single_shift_track():
    w = Window(radius=3, margin=2)
    cu = line_cycle_unitary(1, w)
    tracks = [
        ((r.vertex, r.slot), (c.vertex, c.slot))
        for (r, c) in cu.u.entries
        if r != c
    ]
    for (rv, rs), (cv, cs) in tracks:
        assert rv == cv + 1
        assert rs == CopyEdge(cs.edge + 1, 1)
    assert len(tracks) == (w.hi - w.lo) - 1
    assert is_unitary_on(cu.u, w.interior(cu.u.domain))


def test_unitary_and_block_ranks_on_random_cycles():
    rng = random.Random(77)
    for _ in range(30):
        g = random_graph(rng, max_vertices=12, max_edges=20)
        gamma = random_multiplicity_cycle(rng, g)
        if gamma is None:
            continue
        cu = cycle_unitary(gamma)
        assert is_unitary_on(cu.u)
        ex = cu.expanded
        for (r, c) in cu.u.entries:
            assert r.vertex == c.vertex or ex.adjacent(r.vertex, c.vertex)
        # the blocks of u - 1 that the moves touch
        blocks = {(c.vertex, c.vertex) for c in cu.u.moves}
        blocks |= {(r.vertex, c.vertex) for c, r in cu.u.moves.items() if r is not None}
        for (x, y) in blocks:
            assert block_rank(cu.u, x, y) <= ex.degree(x)


def test_block_ranks_equal_block_rank_on_every_block():
    """The corpus pass reads every block rank from one block_ranks walk; the
    per-block block_rank is the reference, on the seed-1 corpus and on a
    doubled cycle with two matchings and the correction between them."""
    rng = random.Random(1)
    ops = [cycle_unitary(random_cycle(rng, random_graph(rng))).u for _ in range(200)]
    g = cycle_graph(9)
    doubled = Chain1(g, {e.id: 2 for e in g.edges})
    ex = expand_graph(g, doubled)
    swapped = permuted_matching(ex, {0: (1, 0), 3: (1, 0), 4: (1, 0)})
    ua, ub = cycle_unitary(doubled).u, k1_map._unitary(ex, swapped)
    ops += [ua, ub, ua.adjoint().compose(ub)]
    for u in ops:
        blocks = {(c.vertex, c.vertex) for c in u.moves}
        blocks |= {(r.vertex, c.vertex) for c, r in u.moves.items() if r is not None}
        assert block_ranks(u) == {(x, y): block_rank(u, x, y) for x, y in blocks}
    assert any(x != y for x, y in block_ranks(ua))
    assert sorted(block_ranks(ua.adjoint().compose(ub)).values()) == [1, 1, 1]


# ---------------------------------------------------------------------------
# matching independence


def test_correction_ranks_equal_elimination_on_the_scenario_pairs(monkeypatch):
    reports = []

    def recording(cu, beta):
        rep = verify_matching_independence(cu, beta)
        reports.append((matching_correction(cu.expanded, cu.matching, beta), rep))
        return rep

    monkeypatch.setattr(scenarios, "verify_matching_independence", recording)
    scenarios.check_matching_independence(scenarios.DEFAULT_SEED)
    assert len(reports) == 50
    for r, rep in reports:
        expected = {}
        for x in {c.vertex for c in r.moves}:
            # R fixes every other slot, so R - 1 vanishes outside these
            slots = [c.slot for c in r.moves if c.vertex == x]
            block = [
                [
                    r.entry(BlockIndex(x, rs), BlockIndex(x, cs)) - (rs == cs)
                    for cs in slots
                ]
                for rs in slots
            ]
            expected[x] = intlinalg.rank(block)
        assert rep.correction_block_ranks == expected


def test_correction_ranks_of_a_large_rerouting_need_no_elimination(monkeypatch):
    def refuse(mat):
        raise AssertionError("rank by elimination")

    assert not hasattr(operators, "matrix_rank")
    monkeypatch.setattr(intlinalg, "rank", refuse)
    g = OrientedGraph([0, 1], [Edge("a", 0, 1), Edge("b", 1, 0)])
    gamma = Chain1(g, {"a": 300, "b": 300})
    ex = expand_graph(g, gamma)
    reversal = tuple(reversed(range(300)))
    rep = verify_matching_independence(cycle_unitary(gamma), permuted_matching(ex, {0: reversal}))
    assert rep.content_ok
    # reversing 300 slots makes 150 transpositions, each of rank 1
    assert rep.correction_block_ranks == {0: 150}


def test_identical_matchings_make_the_literal_route_trivial():
    g, gamma = figure_eight()
    ex = expand_graph(g, gamma)
    cu = cycle_unitary(gamma)
    a = cu.matching
    rep = verify_matching_independence(cu, a)
    assert rep.content_ok
    assert rep.literal_route_ok
    identity = SparseBlockOperator.identity(cu.u.domain)
    assert matching_correction(ex, a, a) == identity
    per_vertex, obstruction = _block_conjugator(ex, a, a)
    assert obstruction is None
    assert block_diagonal_slot_permutation(cu.u.domain, per_vertex) == identity
    assert rep.literal_v_identity and rep.literal_w_identity


def test_figure_eight_crossing_matchings():
    g, gamma = figure_eight()
    ex = expand_graph(g, gamma)
    cu = cycle_unitary(gamma)
    a, b = cu.matching, permuted_matching(ex, {"z": (1, 0)})
    rep = verify_matching_independence(cu, b)
    # the product identity holds exactly, with a propagation-zero unitary
    assert rep.content_ok
    assert rep.correction_block_ranks["z"] >= 1
    # the classical route cannot: U_alpha splits into two 2-cycles while
    # U_beta is a single 4-cycle, and the hybrid intermediate collides
    assert rep.cycle_types == ((2, 2), (4,))
    assert not rep.literal_intermediate_unitary
    assert _hybrid_intermediate(ex, a, b)[1] is not None
    assert rep.literal_v_obstruction.startswith("hybrid intermediate is not injective: ")
    assert not rep.literal_route_ok


def test_parallel_copies_make_the_hybrid_unitary_but_not_conjugate():
    # two vertices joined by double edges both ways: any rerouting keeps
    # the target pattern, so the hybrid is unitary and equals U_beta, yet
    # the cycle types still differ
    g = OrientedGraph(
        [0, 1], [Edge("a", 0, 1), Edge("b", 1, 0)]
    )
    gamma = Chain1(g, {"a": 2, "b": 2})
    ex = expand_graph(g, gamma)
    b = permuted_matching(ex, {0: (1, 0)})
    rep = verify_matching_independence(cycle_unitary(gamma), b)
    assert rep.literal_intermediate_unitary
    assert rep.literal_w_identity  # W = 1 conjugates the hybrid to U_beta
    assert rep.content_ok
    assert not rep.literal_route_ok  # the V step is impossible
    assert rep.cycle_types[0] != rep.cycle_types[1]


def test_double_bigon_with_swaps_at_both_vertices_conjugates():
    # swapping the parallel copies at both vertices keeps the cycle type
    # (2, 2), the hybrid is unitary, and a genuine nontrivial block-diagonal
    # conjugator exists; the full literal route succeeds here
    g = OrientedGraph([0, 1], [Edge("a", 0, 1), Edge("b", 1, 0)])
    gamma = Chain1(g, {"a": 2, "b": 2})
    ex = expand_graph(g, gamma)
    cu = cycle_unitary(gamma)
    alpha, beta = cu.matching, permuted_matching(ex, {0: (1, 0), 1: (1, 0)})
    rep = verify_matching_independence(cu, beta)
    assert rep.cycle_types[0] == rep.cycle_types[1] == (2, 2)
    assert rep.literal_intermediate_unitary
    assert rep.literal_v_identity
    assert rep.literal_w_identity
    assert rep.literal_route_ok
    per_vertex, _ = _block_conjugator(ex, alpha, beta)
    v = block_diagonal_slot_permutation(cu.u.domain, per_vertex)
    assert v != SparseBlockOperator.identity(v.domain)
    assert v.adjoint().compose(cu.u).compose(v) == k1_map._unitary(ex, beta)
    assert rep.content_ok


def test_random_pairs_satisfy_the_product_identity():
    rng = random.Random(123)
    done = 0
    while done < 15:
        g = random_graph(rng, max_vertices=10, max_edges=18)
        gamma = random_multiplicity_cycle(rng, g)
        if gamma is None:
            continue
        cu = cycle_unitary(gamma)
        beta = random_matching(rng, cu.expanded)
        rep = verify_matching_independence(cu, beta)
        assert rep.content_ok
        correction = matching_correction(cu.expanded, cu.matching, beta)
        assert cu.u.compose(correction) == k1_map._unitary(cu.expanded, beta)
        done += 1


def test_line_matching_independence():
    rep = line_matching_independence(
        2, Window(radius=8, margin=4), {0: (1, 0), 2: (1, 0)}
    )
    assert rep["correction_identity"]
    assert rep["indexes_equal"]
    assert rep["index_alpha"] == -2


def test_index_invariant_under_matching_correction_conjugation():
    # the correction operators are exactly the block-diagonal conjugators
    # the index pairing must not see
    w = Window(radius=8, margin=4)
    cu = line_cycle_unitary(2, w)
    per_vertex = {
        x: {CopyEdge(x - 1, 1): CopyEdge(x - 1, 2), CopyEdge(x - 1, 2): CopyEdge(x - 1, 1)}
        for x in (-2, 0, 5)
    }
    r = block_diagonal_slot_permutation(cu.u.domain, per_vertex)
    conj = r.adjoint().compose(cu.u).compose(r)
    assert index_pairing(conj, w) == index_pairing(cu.u, w) == -2


def test_cycle_unitaries_are_permutation_matrices():
    rng = random.Random(55)
    for _ in range(10):
        g = random_graph(rng, max_vertices=10, max_edges=18)
        gamma = random_multiplicity_cycle(rng, g)
        if gamma is None:
            continue
        cu = cycle_unitary(gamma)
        assert permutation_cycle_type(cu.u) is not None


# ---------------------------------------------------------------------------
# compression


def test_compress_line_unit_cycle():
    w = Window(radius=8, margin=4)
    cu = line_cycle_unitary(1, w)
    res = compress_to_uniform(cu)
    assert res.max_valence == 2
    assert res.confinement_ok and res.round_trip_ok
    assert index_pairing(res.u_tilde, w) == index_pairing(cu.u, w) == -1


def test_compress_zero_cycle():
    g, _ = triangle_with_chord_orientation()
    cu = cycle_unitary(Chain1(g, {}))
    res = compress_to_uniform(cu)
    assert res.max_valence == 0
    assert res.u_tilde.is_zero()  # identity of the empty basis
    assert res.confinement_ok and res.round_trip_ok


def test_compress_triangle_nine_dimensional():
    g, gamma = triangle_with_chord_orientation()
    cu = cycle_unitary(gamma)
    res = compress_to_uniform(cu)
    assert res.max_valence == 2
    assert len(res.u_tilde.domain) == 9
    assert res.confinement_ok and res.round_trip_ok
    assert is_unitary_on(res.u_tilde)


# ---------------------------------------------------------------------------
# the line pipeline


def test_constant_cycle_indexes():
    w = Window(radius=16, margin=4)
    assert constant_cycle_index(0, w) == 0
    assert constant_cycle_index(1, w) == -1
    assert constant_cycle_index(-2, w) == 2


def test_constant_cycle_additive_and_symmetric():
    w = Window(radius=16, margin=4)
    vals = {k: constant_cycle_index(k, w) for k in range(-3, 4)}
    for k in range(-3, 4):
        assert vals[k] == -k
        assert vals[k] == -vals[-k]


@pytest.mark.parametrize(
    "perm", [(1, 0, 2), (-1, 0), (0,), (2, 1)], ids=["long", "negative", "short", "out-of-range"]
)
def test_line_copy_permutations_are_checked_like_finite_ones(perm):
    # the same refusal as permuted_matching on a finite cycle, not a
    # silently truncated or wrapped permutation and not a bare IndexError
    with pytest.raises(ValueError, match=r"^bad permutation at vertex 0$"):
        line_cycle_unitary(2, Window(4, 2), {0: perm})
    with pytest.raises(ValueError, match=r"^bad permutation at vertex 0$"):
        line_matching_independence(2, Window(4, 2), {0: perm})
    # the center of the figure eight has in- and out-flow 2, as each line
    # vertex of the window interior has
    with pytest.raises(ValueError, match=r"^bad permutation at vertex 'z'$"):
        permuted_matching(expand_graph(*figure_eight()), {"z": perm})


def test_a_line_permutation_off_the_window_is_refused_by_name():
    # it used to be dropped, so the comparison matched the canonical
    # matching with itself and passed vacuously
    with pytest.raises(ValueError, match=r"^not a vertex: 100$"):
        line_matching_independence(2, Window(8, 4), {100: (1, 0)})


def test_a_permutation_at_no_vertex_is_refused_by_name():
    ex = expand_graph(*figure_eight())
    with pytest.raises(ValueError, match=r"^not a vertex: 'nowhere'$"):
        permuted_matching(ex, {"nowhere": (1, 0)})


def test_line_copy_permutations_of_every_copy_are_accepted_at_both_window_ends():
    window = Window(3, 2)
    for x in (window.lo, window.hi, 0):
        cu = line_cycle_unitary(2, window, {x: (1, 0)})
        assert index_pairing(cu.u, window) == -2


def test_matching_independence_expands_each_case_once(monkeypatch):
    # the figure eight, 49 random cases and two line comparisons of two
    # windows each: 1 + 49 + 4
    calls = []
    real = expand_graph

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (k0_map, k1_map, corpus, scenarios):
        if hasattr(module, "expand_graph"):
            monkeypatch.setattr(module, "expand_graph", counting)
    assert scenarios.check_matching_independence()["content_ok"]
    assert len(calls) == 54
