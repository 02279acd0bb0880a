"""Each named check must be able to fail.

Good input shows only that a check passes; a check that always passes
would pass it too.  These tests feed one faulty object through the real
code path and require that exactly the check aimed at the fault fails."""

import dataclasses
import json

import pytest

from coarsek import chains, cli, k1_map, scenarios
from coarsek.chains import Chain0, Chain1, is_cycle
from coarsek.corpus import cycle_graph, path_graph
from coarsek.graphs import graph_from_json
from coarsek.k0_map import expand_graph
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    Ordinal,
    SparseBlockOperator,
    bilateral_shift,
    index_pairing,
)
from coarsek.k1_map import (
    CycleUnitary,
    canonical_matching,
    line_cycle_unitary,
    permuted_matching,
    verify_matching_independence,
)

SEED = 1
COUNT = 12


def _with_moves(cu: CycleUnitary, moves: dict) -> CycleUnitary:
    """cu with the columns in moves sent to the given basis vectors, through
    the checking constructor."""
    u = cu.u
    faulty = SparseBlockOperator(u.domain, {**u.moves, **moves}, u.scalar)
    return CycleUnitary(cu.expanded, cu.matching, faulty)


def _moved_columns(cu: CycleUnitary) -> list:
    """(column, image) of every basis vector the unitary moves."""
    return sorted(
        ((c, r) for c, r in cu.u.moves.items() if r is not None),
        key=repr,
    )


def _fixed_slots(cu: CycleUnitary, x) -> list:
    """Basis vectors at x that the unitary leaves alone."""
    return [BlockIndex(x, s) for s in cu.u.domain.slots if BlockIndex(x, s) not in cu.u.moves]


def column_moved(cu: CycleUnitary) -> CycleUnitary:
    """One moved column sent to zero: the operator is no longer unitary,
    but every entry still joins adjacent vertices and no block grows (a
    cycle unitary forms no closed cycle inside one vertex)."""
    moved = _moved_columns(cu)
    if not moved:
        return cu
    c, _ = moved[0]
    return _with_moves(cu, {c: None})


def non_adjacent_move(cu: CycleUnitary) -> CycleUnitary:
    """A moved column detours through a fixed vector at a vertex of the
    cycle that is not adjacent to its own: still a permutation, and every
    row block stays within the valence of its vertex."""
    ex = cu.expanded
    for c, img in _moved_columns(cu):
        far = [
            z
            for z in ex.vertices
            if z != c.vertex and ex.degree(z) and not ex.adjacent(c.vertex, z)
        ]
        if far:
            via = _fixed_slots(cu, far[0])[0]
            return _with_moves(cu, {c: via, via: img})
    return cu


def rank_over_valence(cu: CycleUnitary) -> CycleUnitary:
    """Two slots swapped at a vertex the cycle does not pass through: still
    a permutation with no move between vertices, but a block of rank 1 at a
    vertex of valence 0."""
    ex = cu.expanded
    for x in ex.vertices:
        if not ex.degree(x) and len(ex.edges) >= 2:
            a, b = _fixed_slots(cu, x)[:2]
            return _with_moves(cu, {a: b, b: a})
    return cu


def _corpus_checks(monkeypatch, fault) -> tuple[dict, dict]:
    real = scenarios.cycle_unitary
    monkeypatch.setattr(scenarios, "cycle_unitary", lambda gamma: fault(real(gamma)))
    return (
        scenarios.check_unitarity_corpus(SEED, COUNT),
        scenarios.check_propagation_corpus(SEED, COUNT),
    )


def test_corpus_checks_pass_on_the_real_unitaries():
    assert scenarios.check_unitarity_corpus(SEED, COUNT)["ok"]
    assert scenarios.check_propagation_corpus(SEED, COUNT)["ok"]


def test_a_moved_column_fails_only_the_unitarity_check(monkeypatch):
    unitarity, propagation = _corpus_checks(monkeypatch, column_moved)
    assert unitarity["failures"]
    assert propagation["ok"]


def test_a_move_between_non_adjacent_vertices_fails_only_adjacency(monkeypatch):
    unitarity, propagation = _corpus_checks(monkeypatch, non_adjacent_move)
    assert unitarity["ok"]
    assert propagation["adjacency_failures"]
    assert not propagation["rank_failures"]


def test_a_block_above_the_valence_fails_only_the_rank_check(monkeypatch):
    unitarity, propagation = _corpus_checks(monkeypatch, rank_over_valence)
    assert unitarity["ok"]
    assert not propagation["adjacency_failures"]
    assert propagation["rank_failures"]


def _random_finite_checks(monkeypatch, fault) -> tuple[dict, dict]:
    """The two cycle checks as verify runs them: one shared pass inside
    run_random_finite."""
    real = scenarios.cycle_unitary
    monkeypatch.setattr(scenarios, "cycle_unitary", lambda gamma: fault(real(gamma)))
    report = scenarios.run_random_finite(SEED, COUNT)
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    unitarity = checks["cycle unitaries are exactly unitary"]
    propagation = checks["finite propagation and block-finite rank"]
    return unitarity, propagation


def test_run_random_finite_passes_its_cycle_checks_on_the_real_unitaries():
    checks = {c.name: c for c in scenarios.run_random_finite(SEED, COUNT).checks}
    assert checks["cycle unitaries are exactly unitary"].passed
    assert checks["finite propagation and block-finite rank"].passed


def test_run_random_finite_fails_only_unitarity_on_a_moved_column(monkeypatch):
    unitarity, propagation = _random_finite_checks(monkeypatch, column_moved)
    assert unitarity.details["failures"]
    assert propagation.passed


def test_run_random_finite_fails_only_adjacency_on_a_non_adjacent_move(monkeypatch):
    unitarity, propagation = _random_finite_checks(monkeypatch, non_adjacent_move)
    assert unitarity.passed
    assert propagation.details["adjacency_failures"]
    assert not propagation.details["rank_failures"]


def test_run_random_finite_fails_only_the_rank_check_above_valence(monkeypatch):
    unitarity, propagation = _random_finite_checks(monkeypatch, rank_over_valence)
    assert unitarity.passed
    assert not propagation.details["adjacency_failures"]
    assert propagation.details["rank_failures"]


@pytest.mark.parametrize(
    "gamma, fake_boundary",
    [
        # a cycle whose boundary is claimed nonzero
        (lambda: Chain1(cycle_graph(3), {"e0": 1, "e1": 1, "e2": 1}), {0: 1, 1: -1}),
        # a path whose boundary is claimed zero
        (lambda: Chain1(path_graph(3), {"e0": 1}), {}),
    ],
)
def test_is_cycle_raises_when_boundary_and_flows_disagree(monkeypatch, gamma, fake_boundary):
    gamma = gamma()
    monkeypatch.setattr(chains, "boundary", lambda g: Chain0(g.graph, fake_boundary))
    with pytest.raises(AssertionError, match="disagree"):
        is_cycle(gamma)


# ---------------------------------------------------------------------------
# the checks of k0-map and k1-map, through cli.main


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_cli(tmp_path, capsys, command, graph, chain, *extra) -> tuple[int, dict]:
    """Exit code and {check name: passed} of one --json report."""
    rc = cli.main(
        [
            command,
            "--graph",
            _write(tmp_path, "graph.json", graph),
            "--chain",
            _write(tmp_path, "chain.json", chain),
            "--json",
            *extra,
        ]
    )
    report = json.loads(capsys.readouterr().out)
    return rc, {c["name"]: c["passed"] for c in report["checks"]}


def _only_failure(rc: int, verdicts: dict, name: str) -> None:
    assert rc == 1
    assert [n for n, ok in verdicts.items() if not ok] == [name]


PATH3 = {
    "kind": "finite",
    "vertices": [0, 1, 2],
    "edges": [
        {"id": "a", "source": 0, "target": 1},
        {"id": "b", "source": 1, "target": 2},
    ],
}
BOUNDARY = {"degree": 0, "coeffs": {"0": -1, "2": 1}}  # d(a + b)
NOT_A_BOUNDARY = {"degree": 0, "coeffs": {"0": 1}}


def _faulty_pair(monkeypatch, fault) -> None:
    real = cli.build_projection_pair
    monkeypatch.setattr(cli, "build_projection_pair", lambda c: fault(real(c)))


def not_idempotent(pair):
    """f sends the vector it projects onto to slot 1 of vertex 1, where the
    chain is 0: still orthogonal to g and of the same rank count, but
    f*f = 0 != f."""
    (b,) = pair.f.moves  # the chain is positive at one vertex
    f = SparseBlockOperator(pair.f.domain, {b: BlockIndex(1, Ordinal(1))})
    return dataclasses.replace(pair, f=f)


def one_extra_rank(pair):
    """f also projects onto slot 1 of vertex 1, where the chain is 0: still a
    projection orthogonal to g, but the signature grows by one."""
    b = BlockIndex(1, Ordinal(1))
    f = SparseBlockOperator(pair.f.domain, {**pair.f.moves, b: b})
    return dataclasses.replace(pair, f=f)


@pytest.mark.parametrize("chain", [BOUNDARY, NOT_A_BOUNDARY])
def test_k0_map_passes_on_the_real_pairs(tmp_path, capsys, chain):
    rc, verdicts = _run_cli(tmp_path, capsys, "k0-map", PATH3, chain)
    assert rc == 0 and all(verdicts.values()) and len(verdicts) == 3


def test_k0_map_a_non_idempotent_projection_fails_only_the_identities(
    tmp_path, capsys, monkeypatch
):
    _faulty_pair(monkeypatch, not_idempotent)
    rc, verdicts = _run_cli(tmp_path, capsys, "k0-map", PATH3, BOUNDARY)
    _only_failure(rc, verdicts, "projections are idempotent, selfadjoint and orthogonal")


def test_k0_map_a_signature_off_by_one_fails_only_the_signature(
    tmp_path, capsys, monkeypatch
):
    _faulty_pair(monkeypatch, one_extra_rank)
    rc, verdicts = _run_cli(tmp_path, capsys, "k0-map", PATH3, NOT_A_BOUNDARY)
    _only_failure(rc, verdicts, "signature equals coefficient sum")


CYCLE5 = {
    "kind": "finite",
    "vertices": list(range(5)),
    "edges": [{"id": f"e{i}", "source": i, "target": (i + 1) % 5} for i in range(5)],
}
AROUND5 = {"degree": 1, "coeffs": {f"e{i}": 1 for i in range(5)}}


def test_k1_map_passes_on_the_real_unitary(tmp_path, capsys):
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", CYCLE5, AROUND5)
    assert rc == 0 and all(verdicts.values()) and len(verdicts) == 3


def test_k1_map_a_move_between_non_adjacent_vertices_fails_only_adjacency(
    tmp_path, capsys, monkeypatch
):
    real = cli.cycle_unitary
    monkeypatch.setattr(cli, "cycle_unitary", lambda gamma: non_adjacent_move(real(gamma)))
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", CYCLE5, AROUND5)
    _only_failure(rc, verdicts, "entries join adjacent vertices only")


LINE = {"kind": "banded_z", "edges_per_cell": 1}
CLASS2 = {"degree": 1, "tail_left": 2, "tail_right": 2}
WINDOW = ("--window", "4", "--margin", "8")


def test_k1_map_on_the_line_passes_with_the_real_windows(tmp_path, capsys):
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", LINE, CLASS2, *WINDOW)
    assert rc == 0 and verdicts == {"index pairing stable under window doubling": True}


def test_k1_map_a_doubled_window_operator_of_another_index_fails(
    tmp_path, capsys, monkeypatch
):
    def shifted_index(k, window):
        """Index of the doubled-window unitary followed by the shift."""
        u = line_cycle_unitary(k, window).u
        return index_pairing(u.compose(bilateral_shift(window, u.domain.slots)), window)

    monkeypatch.setattr(cli, "constant_cycle_index", shifted_index)
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", LINE, CLASS2, *WINDOW)
    _only_failure(rc, verdicts, "index pairing stable under window doubling")


# ---------------------------------------------------------------------------
# the compression checks, through run_random_finite and k1-map


def _on_u_basis(res, op):
    """op, an operator over u_tilde's basis, over u's basis: each ordinal
    slot replaced by the expanded edge it numbers."""

    def edge(b):
        return BlockIndex(b.vertex, res.slots[b.slot.index - 1])

    moves = {edge(c): None if r is None else edge(r) for c, r in op.moves.items()}
    return SparseBlockOperator(res.u.domain, moves, op.scalar)


def moved_above_the_corner(res):
    """t also swaps, at one vertex, a corner slot that u_tilde moves with a
    slot beyond the corner, and u_tilde is the conjugation by that t: still
    a permutation of the same index that conjugates back to u, but it moves
    a vector beyond the corner."""
    u = res.u_tilde
    beyond = [s for s in u.domain.slots if s.index > res.n]
    c = next((c for c in u.moves if c.slot.index <= res.n), None)
    if not beyond or c is None:
        return res
    q = BlockIndex(c.vertex, beyond[0])
    swap = SparseBlockOperator(u.domain, {c: q, q: c}, 1)
    return dataclasses.replace(
        res,
        t=res.t.compose(_on_u_basis(res, swap)),
        u_tilde=swap.compose(u).compose(swap),
    )


def swapped_in_the_corner(res):
    """u_tilde also swaps a vector it moves with another corner slot of its
    vertex: still a permutation inside the corner, of the same index, but no
    longer the conjugation of u by t."""
    u = res.u_tilde
    c = next(c for c, r in u.moves.items() if r is not None)
    other = next(s for s in u.domain.slots if s.index <= res.n and s != c.slot)
    q = BlockIndex(c.vertex, other)
    return dataclasses.replace(res, u_tilde=u.compose(SparseBlockOperator(u.domain, {c: q, q: c}, 1)))


def t_losing_a_vector(res):
    """t also sends to zero the vector it carries onto a column u moves:
    u_tilde is unchanged, but conjugating back no longer recovers u."""
    c = next(c for c, r in res.u.moves.items() if r is not None)
    b = res.t.adjoint().moves.get(c, c)
    return dataclasses.replace(res, t=res.t.compose(SparseBlockOperator(res.t.domain, {b: None}, 1)))


def shifted_lane(res):
    """u_tilde followed by a shift of the slot-1 lane one vertex up, cut at
    the window's end, and u followed by the same shift conjugated back: the
    compression of another operator, consistent and inside the corner, but
    its index is one lower than that of the unitary it was handed."""
    u = res.u_tilde
    lane = [BlockIndex(x, Ordinal(1)) for x in u.domain.vertices]
    shift = SparseBlockOperator(u.domain, dict(zip(lane, lane[1:] + [None])), 1)
    back = res.t.compose(_on_u_basis(res, shift)).compose(res.t.adjoint())
    return dataclasses.replace(res, u=res.u.compose(back), u_tilde=u.compose(shift))


def _faulty_compression(monkeypatch, module, fault, line_only=False) -> None:
    real = module.compress_to_uniform

    def faulty(cu):
        res = real(cu)
        return fault(res) if cu.window is not None or not line_only else res

    monkeypatch.setattr(module, "compress_to_uniform", faulty)


COMPRESSION = "compression into the ordinal corner"


def _random_finite_compression(monkeypatch, fault, line_only=False) -> dict:
    """The details of the compression check of run_random_finite, the only
    check that fails apart from the advisory two-conjugation route."""
    _faulty_compression(monkeypatch, scenarios, fault, line_only)
    report = scenarios.run_random_finite(SEED, COUNT)
    failed = [c.name for c in report.checks if not c.passed and not c.advisory]
    assert failed == [COMPRESSION]
    details = next(c.details for c in report.checks if c.name == COMPRESSION)
    assert not details["line_ok"]
    return details


def test_run_random_finite_compression_passes_on_the_real_results():
    checks = {c.name: c for c in scenarios.run_random_finite(SEED, COUNT).checks}
    assert checks[COMPRESSION].passed


def test_run_random_finite_a_move_beyond_the_corner_fails_only_confinement(monkeypatch):
    details = _random_finite_compression(monkeypatch, moved_above_the_corner)
    assert details["failures"] and not any(f["round_trip"] is False for f in details["failures"])
    for v in details["line"].values():
        assert not v["confinement"] and v["round_trip"] and v["index_equal"]


def test_run_random_finite_a_lossy_conjugator_fails_only_the_round_trip(monkeypatch):
    details = _random_finite_compression(monkeypatch, t_losing_a_vector)
    assert details["failures"] and all(f["round_trip"] is False for f in details["failures"])
    for v in details["line"].values():
        assert v["confinement"] and not v["round_trip"] and v["index_equal"]


def test_run_random_finite_a_wrong_compressed_operator_fails_only_the_round_trip(monkeypatch):
    details = _random_finite_compression(monkeypatch, swapped_in_the_corner)
    assert details["failures"] and all(f["round_trip"] is False for f in details["failures"])
    for v in details["line"].values():
        assert v["confinement"] and not v["round_trip"] and v["index_equal"]


def test_run_random_finite_a_compressed_index_off_by_one_fails_only_index_equal(monkeypatch):
    details = _random_finite_compression(monkeypatch, shifted_lane, line_only=True)
    assert details["finite_ok"]
    for v in details["line"].values():
        assert v["confinement"] and v["round_trip"] and not v["index_equal"]
        assert v["index_compressed"] == v["index_original"] - 1


@pytest.mark.parametrize(
    "fault", [moved_above_the_corner, swapped_in_the_corner, t_losing_a_vector]
)
def test_k1_map_a_faulty_compression_fails_only_the_corner_check(
    tmp_path, capsys, monkeypatch, fault
):
    _faulty_compression(monkeypatch, cli, fault)
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", CYCLE5, AROUND5)
    _only_failure(rc, verdicts, COMPRESSION)


# ---------------------------------------------------------------------------
# the matching-independence report, directly and through k1-map --matching

BIGON = {
    "kind": "finite",
    "vertices": [0, 1],
    "edges": [
        {"id": "a", "source": 0, "target": 1},
        {"id": "b", "source": 1, "target": 0},
    ],
}
TWICE_AROUND = {"degree": 1, "coeffs": {"a": 2, "b": 2}}
# the parallel copies swapped at both vertices: both routes hold, with a
# conjugator V that is not the identity
SWAPS = {"positions": {"0": [1, 0], "1": [1, 0]}}
MATCHING_CHECKS = (
    "matching independence (product identity)",
    "matching independence (two-conjugation route)",
)


def _bigon_report():
    g = graph_from_json(BIGON)
    gamma = Chain1(g, TWICE_AROUND["coeffs"])
    ex = expand_graph(g, gamma)
    beta = permuted_matching(ex, {0: (1, 0), 1: (1, 0)})
    return verify_matching_independence(gamma, canonical_matching(ex), beta)


def _verdicts(rep) -> dict:
    return {k: v for k, v in rep.to_json().items() if isinstance(v, bool)}


def _faulty(monkeypatch, name, fault) -> None:
    """k1_map.name with fault applied to each of its results."""
    real = getattr(k1_map, name)
    monkeypatch.setattr(k1_map, name, lambda *args: fault(real(*args)))


def _flipped(monkeypatch, name, fault) -> set:
    """The verdicts of the report that a faulty k1_map.name turns false."""
    assert all(_verdicts(_bigon_report()).values())
    _faulty(monkeypatch, name, fault)
    return {k for k, v in _verdicts(_bigon_report()).items() if not v}


def _swapped_after(r: SparseBlockOperator, p: BlockIndex, q: BlockIndex):
    """r followed by swapping the basis vectors p and q, which r fixes."""
    return r.compose(SparseBlockOperator(r.domain, {p: q, q: p}, 1))


def cross_vertex_move(r):
    """Two vectors that no route touches swapped between vertices 0 and 1:
    still a permutation, but with propagation 1; since U_alpha is
    invertible, R = U_alpha* U_beta is forced, so U_alpha R moves too."""
    return _swapped_after(r, BlockIndex(0, CopyEdge("a", 1)), BlockIndex(1, CopyEdge("b", 1)))


def same_vertex_move(r):
    """Two untouched slots at vertex 0 swapped: a permutation of
    propagation zero, but U_alpha R no longer equals U_beta."""
    return _swapped_after(r, BlockIndex(0, CopyEdge("a", 1)), BlockIndex(0, CopyEdge("a", 2)))


def identity_conjugator(decision):
    """Claims the identity conjugates U_alpha onto the hybrid, which here
    equals U_beta != U_alpha."""
    per_vertex, _ = decision
    return {x: {} for x in per_vertex}, None


def test_a_cross_vertex_correction_fails_propagation_zero(monkeypatch):
    flipped = _flipped(monkeypatch, "matching_correction", cross_vertex_move)
    assert flipped == {"correction_propagation_zero", "correction_identity", "content_ok"}


def test_a_correction_off_the_product_identity_fails_only_the_identity(monkeypatch):
    flipped = _flipped(monkeypatch, "matching_correction", same_vertex_move)
    assert flipped == {"correction_identity", "content_ok"}


def test_a_wrong_conjugator_fails_only_its_identity(monkeypatch):
    flipped = _flipped(monkeypatch, "_block_conjugator", identity_conjugator)
    assert flipped == {"literal_v_identity", "literal_route_ok"}


def _k1_matching(tmp_path, capsys) -> tuple[int, dict]:
    matching = _write(tmp_path, "m.json", SWAPS)
    return _run_cli(
        tmp_path, capsys, "k1-map", BIGON, TWICE_AROUND,
        "--matching", matching, "--strict-matching",
    )


def test_k1_map_matching_passes_on_the_real_report(tmp_path, capsys):
    rc, verdicts = _k1_matching(tmp_path, capsys)
    assert rc == 0 and all(verdicts.values())
    assert set(MATCHING_CHECKS) <= set(verdicts)


@pytest.mark.parametrize("fault", [cross_vertex_move, same_vertex_move])
def test_k1_map_a_faulty_correction_fails_only_the_product_identity(
    tmp_path, capsys, monkeypatch, fault
):
    _faulty(monkeypatch, "matching_correction", fault)
    rc, verdicts = _k1_matching(tmp_path, capsys)
    _only_failure(rc, verdicts, MATCHING_CHECKS[0])


def test_k1_map_a_wrong_conjugator_fails_only_the_two_conjugation_route(
    tmp_path, capsys, monkeypatch
):
    _faulty(monkeypatch, "_block_conjugator", identity_conjugator)
    rc, verdicts = _k1_matching(tmp_path, capsys)
    _only_failure(rc, verdicts, MATCHING_CHECKS[1])
