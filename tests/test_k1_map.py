import random

import pytest

from coarsek import intlinalg, operators, scenarios
from coarsek.chains import Chain1
from coarsek.corpus import (
    cycle_graph,
    figure_eight,
    random_cycle,
    random_graph,
    random_matching_pair,
    random_multiplicity_cycle,
    triangle_with_chord_orientation,
)
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import expand_graph
from coarsek.k1_map import (
    NonCycleError,
    canonical_matching,
    compress_to_uniform,
    constant_cycle_index,
    cycle_unitary,
    line_cycle_unitary,
    line_matching_independence,
    permutation_cycle_type,
    permuted_matching,
    verify_matching_independence,
)
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    OperatorError,
    SparseBlockOperator,
    Window,
    block_rank,
    block_ranks,
    index_pairing,
    is_unitary_on,
)


# ---------------------------------------------------------------------------
# matchings


def test_canonical_matching_on_triangle_is_forced():
    g, gamma = triangle_with_chord_orientation()
    ex = expand_graph(g, gamma)
    m = canonical_matching(ex)
    for x in ex.vertices:
        assert len(m.at(x)) == 1


def test_canonical_matching_reports_noncycle_vertex():
    g = OrientedGraph([0, 1], [Edge("e", 0, 1)])
    ex = expand_graph(g, Chain1(g, {"e": 1}))
    with pytest.raises(NonCycleError) as err:
        canonical_matching(ex)
    assert err.value.vertex in (0, 1)


def test_figure_eight_has_two_matchings_at_center():
    g, gamma = figure_eight()
    ex = expand_graph(g, gamma)
    assert ex.in_count("z") == 2
    a = canonical_matching(ex)
    b = permuted_matching(ex, {"z": (1, 0)})
    assert a.at("z") != b.at("z")


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
    g = OrientedGraph([0, 1], [Edge("e", 0, 1)])
    with pytest.raises(NonCycleError):
        cycle_unitary(Chain1(g, {"e": 1}))


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
    swapped = permuted_matching(expand_graph(g, doubled), {0: (1, 0), 3: (1, 0), 4: (1, 0)})
    ua, ub = cycle_unitary(doubled).u, cycle_unitary(doubled, swapped).u
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

    def recording(gamma, alpha, beta):
        reports.append(verify_matching_independence(gamma, alpha, beta))
        return reports[-1]

    monkeypatch.setattr(scenarios, "verify_matching_independence", recording)
    scenarios.check_matching_independence(scenarios.DEFAULT_SEED)
    assert len(reports) == 50
    for rep in reports:
        r = rep.correction
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
    rep = verify_matching_independence(
        gamma, canonical_matching(ex), permuted_matching(ex, {0: reversal})
    )
    assert rep.content_ok
    # reversing 300 slots makes 150 transpositions, each of rank 1
    assert rep.correction_block_ranks == {0: 150}


def test_identical_matchings_make_the_literal_route_trivial():
    g, gamma = figure_eight()
    ex = expand_graph(g, gamma)
    a = canonical_matching(ex)
    rep = verify_matching_independence(gamma, a, a)
    assert rep.content_ok
    assert rep.literal_route_ok
    assert rep.correction == SparseBlockOperator.identity(rep.correction.domain)
    assert rep.literal_v is not None
    assert rep.literal_v_identity and rep.literal_w_identity


def test_figure_eight_crossing_matchings():
    g, gamma = figure_eight()
    ex = expand_graph(g, gamma)
    a = canonical_matching(ex)
    b = permuted_matching(ex, {"z": (1, 0)})
    rep = verify_matching_independence(gamma, a, b)
    # the product identity holds exactly, with a propagation-zero unitary
    assert rep.content_ok
    assert rep.correction_block_ranks["z"] >= 1
    # the classical route cannot: U_alpha splits into two 2-cycles while
    # U_beta is a single 4-cycle, and the hybrid intermediate collides
    assert rep.cycle_types == ((2, 2), (4,))
    assert not rep.literal_intermediate_unitary
    assert rep.literal_collision is not None
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
    a = canonical_matching(ex)
    b = permuted_matching(ex, {0: (1, 0)})
    rep = verify_matching_independence(gamma, a, b)
    assert rep.literal_intermediate_unitary
    assert rep.literal_matches_beta
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
    alpha = canonical_matching(ex)
    beta = permuted_matching(ex, {0: (1, 0), 1: (1, 0)})
    rep = verify_matching_independence(gamma, alpha, beta)
    assert rep.cycle_types[0] == rep.cycle_types[1] == (2, 2)
    assert rep.literal_intermediate_unitary
    assert rep.literal_v is not None and rep.literal_v_identity
    assert rep.literal_w_identity
    assert rep.literal_route_ok
    assert rep.literal_v != SparseBlockOperator.identity(rep.literal_v.domain)
    assert rep.content_ok


def test_random_pairs_satisfy_the_product_identity():
    rng = random.Random(123)
    done = 0
    while done < 15:
        g = random_graph(rng, max_vertices=10, max_edges=18)
        gamma = random_multiplicity_cycle(rng, g)
        if gamma is None:
            continue
        alpha, beta = random_matching_pair(rng, gamma)
        rep = verify_matching_independence(gamma, alpha, beta)
        assert rep.content_ok
        assert rep.u_alpha.compose(rep.correction) == rep.u_beta
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
    from coarsek.k0_map import block_diagonal_slot_permutation

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
    assert res.max_valence == 2 and res.n == 2
    assert res.confinement_ok and res.round_trip_ok
    assert index_pairing(res.u_tilde, w) == index_pairing(cu.u, w) == -1


def test_compress_zero_cycle():
    g, _ = triangle_with_chord_orientation()
    cu = cycle_unitary(Chain1(g, {}))
    res = compress_to_uniform(cu, n=0)
    assert res.u_tilde.is_zero()  # identity of the empty basis
    assert res.confinement_ok and res.round_trip_ok


def test_compress_triangle_nine_dimensional():
    g, gamma = triangle_with_chord_orientation()
    cu = cycle_unitary(gamma)
    res = compress_to_uniform(cu)
    assert res.n == 2
    assert len(res.u_tilde.domain) == 9
    assert res.confinement_ok and res.round_trip_ok
    assert is_unitary_on(res.u_tilde)


def test_compress_rejects_small_corner():
    g, gamma = triangle_with_chord_orientation()
    cu = cycle_unitary(gamma)
    with pytest.raises(OperatorError):
        compress_to_uniform(cu, n=1)


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
