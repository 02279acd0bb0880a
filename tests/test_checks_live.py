"""Each named check must be able to fail.

Good input shows only that a check passes; a check that always passes
would pass it too.  These tests feed one faulty object through the real
code path and require that exactly the check aimed at the fault fails."""

import dataclasses
import json

import pytest

from coarsek import chains, cli, k0_map, k1_map, scenarios
from coarsek.chains import BandedZChain, Chain0, Chain1, is_cycle
from coarsek.graphs import BandedZGraph, graph_from_json
from coarsek.k0_map import boundary_witness, expand_graph
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    bilateral_shift,
    index_pairing,
)
from coarsek.k1_map import (
    CycleUnitary,
    cycle_unitary,
    line_cycle_unitary,
    permuted_matching,
    verify_matching_independence,
)
from helpers import cycle_graph, path_graph

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
    monkeypatch.setattr(scenarios, "cycle_unitary", lambda *args: fault(real(*args)))
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
    monkeypatch.setattr(scenarios, "cycle_unitary", lambda *args: fault(real(*args)))
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
    real = scenarios.build_projection_pair
    monkeypatch.setattr(scenarios, "build_projection_pair", lambda c: fault(real(c)))


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


def test_k0_map_an_exchange_that_swaps_nothing_fails_only_the_witness(
    tmp_path, capsys, monkeypatch
):
    # the exchange permutations become the identity, so they no longer
    # carry the edge slots onto the ordinal ranks
    monkeypatch.setattr(k0_map, "order_matched_involution", lambda s1, s2: {})
    rc, verdicts = _run_cli(tmp_path, capsys, "k0-map", PATH3, BOUNDARY)
    _only_failure(rc, verdicts, "boundary witness identities")


TWO_PATHS = {
    "kind": "finite",
    "vertices": [0, 1, 2, 3, 4],
    "edges": [*PATH3["edges"], {"id": "c", "source": 3, "target": 4}],
}
TWO_BOUNDARIES = {"degree": 0, "coeffs": {"0": -1, "2": 1, "3": -1, "4": 1}}  # d(a + b + c)


@pytest.mark.parametrize(
    "graph, chain", [(PATH3, BOUNDARY), (TWO_PATHS, TWO_BOUNDARIES)], ids=["one", "two"]
)
def test_k0_map_a_solver_that_misses_a_boundary_fails_only_the_obstruction(
    tmp_path, capsys, monkeypatch, graph, chain
):
    # a boundary reported as not bounding: no component signature is nonzero
    monkeypatch.setattr(scenarios, "solve_boundary_finite", lambda g, c: None)
    rc, verdicts = _run_cli(tmp_path, capsys, "k0-map", graph, chain)
    _only_failure(rc, verdicts, "chain does not bound (signature is the obstruction witness)")


PATH4 = {
    "kind": "finite",
    "vertices": [0, 1, 2, 3],
    "edges": [*PATH3["edges"], {"id": "c", "source": 2, "target": 3}],
}


def _rerouted_expansion(monkeypatch, targets: dict) -> None:
    """expand_graph with the copies of each edge named in targets sent to
    the vertex it names instead: the witness is built over a multigraph the
    host does not contain."""
    real = k0_map.expand_graph

    def faulty(g, gamma):
        ex = real(g, gamma)
        edges = [e._replace(target=targets.get(e.id.edge, e.target)) for e in ex.edges]
        return type(ex)._trusted(ex.vertices, tuple(edges))

    monkeypatch.setattr(k0_map, "expand_graph", faulty)


@pytest.mark.parametrize(
    "targets, flipped",
    [
        # the copy of c ends at 0 instead of 3: 2 and 0 share no edge, and
        # the in-counts at 0 and 3 no longer match the boundary
        ({"c": 0}, {"adjacency", "rank_bookkeeping"}),
        # a and c trade targets (0 -> 3, 2 -> 1): every in- and out-count
        # holds, and 0 and 3 share no edge
        ({"a": 3, "c": 1}, {"adjacency"}),
    ],
)
def test_a_copy_between_non_adjacent_host_vertices_flips_the_witness_adjacency(
    monkeypatch, targets, flipped
):
    g = graph_from_json(PATH4)
    gamma = Chain1(g, {"a": 1, "b": 1, "c": 1})
    assert boundary_witness(gamma).ok
    _rerouted_expansion(monkeypatch, targets)
    w = boundary_witness(gamma)
    assert {name for name, ok in w.checks.items() if not ok} == flipped


def test_k0_map_a_copy_between_non_adjacent_vertices_fails_only_the_witness(
    tmp_path, capsys, monkeypatch
):
    _rerouted_expansion(monkeypatch, {"a": 3, "c": 1})
    rc, verdicts = _run_cli(
        tmp_path, capsys, "k0-map", PATH4, {"degree": 0, "coeffs": {"0": -1, "3": 1}}
    )
    _only_failure(rc, verdicts, "boundary witness identities")


def _faulty_witness(monkeypatch, name: str, fault) -> None:
    """scenarios.boundary_witness with fault applied, in place, to the
    operator the real construction stores as name, as soon as it is built,
    so the real checks read the faulty operator.  A clean run first finds
    which of the operators built through _trusted that one is."""
    real = scenarios.boundary_witness
    trusted = SparseBlockOperator._trusted.__func__

    def run(gamma, faulty_index):
        built = []

        def build(cls, domain, moves, scalar):
            a = trusted(cls, domain, moves, scalar)
            if len(built) == faulty_index:
                fault(a)
            built.append(a)
            return a

        with monkeypatch.context() as m:
            m.setattr(SparseBlockOperator, "_trusted", classmethod(build))
            return real(gamma), built

    def faulty(gamma):
        w, built = run(gamma, None)
        return run(gamma, next(i for i, a in enumerate(built) if a is getattr(w, name)))[0]

    monkeypatch.setattr(scenarios, "boundary_witness", faulty)


def _first_move(a):
    return min(a.moves.items(), key=repr)


def column_to_another_slot(v):
    """One source vector of V is replaced by ordinal slot 1 of its vertex:
    V*V projects onto another vector of the same vertex, so its per-vertex
    ranks hold."""
    c, r = _first_move(v)
    del v.moves[c]
    v.moves[BlockIndex(c.vertex, Ordinal(1))] = r


def row_to_another_slot(v):
    """One source vector of V lands on ordinal slot 1 of its target vertex
    instead of the target slot: VV* projects onto another vector of the same
    vertex, so its per-vertex ranks hold."""
    c, r = _first_move(v)
    v.moves[c] = BlockIndex(r.vertex, Ordinal(1))


def one_swap_undone(exchange):
    """The exchange leaves one ordinal slot and the edge slot it traded with
    in place: still an involution, but it no longer carries every edge slot
    onto the ordinal ranks."""
    c, r = _first_move(exchange)
    del exchange.moves[c], exchange.moves[r]


def _failed_witness_checks(tmp_path, capsys) -> set:
    """The witness checks that fail when k0-map certifies the boundary of
    the path a + b, whose only failing verdict must be the witness."""
    rc = cli.main(
        ["k0-map", "--graph", _write(tmp_path, "graph.json", PATH3),
         "--chain", _write(tmp_path, "chain.json", BOUNDARY), "--json"]
    )
    checks = json.loads(capsys.readouterr().out)["checks"]
    _only_failure(rc, {c["name"]: c["passed"] for c in checks}, scenarios.WITNESS)
    details = next(c["details"] for c in checks if c["name"] == scenarios.WITNESS)
    return {name for name, ok in details["checks"].items() if not ok}


@pytest.mark.parametrize(
    "check, operator, fault",
    [
        ("initial_projection", "v", column_to_another_slot),
        ("final_projection", "v", row_to_another_slot),
        ("in_exchange", "exchange_in", one_swap_undone),
        ("out_exchange", "exchange_out", one_swap_undone),
    ],
    ids=["initial_projection", "final_projection", "in_exchange", "out_exchange"],
)
def test_k0_map_a_faulty_witness_operator_fails_only_its_check(
    tmp_path, capsys, monkeypatch, check, operator, fault
):
    _faulty_witness(monkeypatch, operator, fault)
    assert _failed_witness_checks(tmp_path, capsys) == {check}


def test_k0_map_a_boundary_off_at_one_vertex_fails_only_the_rank_bookkeeping(
    tmp_path, capsys, monkeypatch
):
    # the witness reads its own boundary of gamma; one unit more at vertex 1
    # breaks in(x) - out(x) = c(x) there and touches no operator
    real = k0_map.boundary

    def off_by_one(gamma):
        c = real(gamma)
        return Chain0(c.graph, {**c.coeffs, 1: c.coeff(1) + 1})

    monkeypatch.setattr(k0_map, "boundary", off_by_one)
    assert _failed_witness_checks(tmp_path, capsys) == {"rank_bookkeeping"}


CYCLE5 = {
    "kind": "finite",
    "vertices": list(range(5)),
    "edges": [{"id": f"e{i}", "source": i, "target": (i + 1) % 5} for i in range(5)],
}
AROUND5 = {"degree": 1, "coeffs": {f"e{i}": 1 for i in range(5)}}


def test_k1_map_passes_on_the_real_unitary(tmp_path, capsys):
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", CYCLE5, AROUND5)
    assert rc == 0 and all(verdicts.values()) and len(verdicts) == 3


def test_k1_map_a_moved_column_fails_only_unitarity(tmp_path, capsys, monkeypatch):
    real = cli.cycle_unitary
    monkeypatch.setattr(cli, "cycle_unitary", lambda *args: column_moved(real(*args)))
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", CYCLE5, AROUND5)
    _only_failure(rc, verdicts, "cycle unitary is exactly unitary")


def test_k1_map_a_move_between_non_adjacent_vertices_fails_only_adjacency(
    tmp_path, capsys, monkeypatch
):
    real = cli.cycle_unitary
    monkeypatch.setattr(cli, "cycle_unitary", lambda *args: non_adjacent_move(real(*args)))
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", CYCLE5, AROUND5)
    _only_failure(rc, verdicts, "entries join adjacent vertices only")


LINE = {"kind": "banded_z", "edges_per_cell": 1}
CLASS2 = {"degree": 1, "tail_left": 2, "tail_right": 2}
WINDOW = ("--window", "4", "--margin", "8")


def test_k1_map_on_the_line_passes_with_the_real_windows(tmp_path, capsys):
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", LINE, CLASS2, *WINDOW)
    assert rc == 0 and verdicts == {"index pairing stable under window doubling": True}


def shifted_index(k, window):
    """Index of the constant-k unitary followed by the shift: one lower."""
    u = line_cycle_unitary(k, window).u
    return index_pairing(u.compose(bilateral_shift(window, u.domain.slots)), window)


def test_k1_map_a_doubled_window_operator_of_another_index_fails(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(scenarios, "constant_cycle_index", shifted_index)
    rc, verdicts = _run_cli(tmp_path, capsys, "k1-map", LINE, CLASS2, *WINDOW)
    _only_failure(rc, verdicts, "index pairing stable under window doubling")


# ---------------------------------------------------------------------------
# the four failure kinds of check_k0_signatures


def _k0_signature_kinds() -> set:
    return {f["kind"] for f in scenarios.check_k0_signatures(SEED, COUNT)["failures"]}


def _faulty_scenario_pairs(monkeypatch, fault) -> None:
    real = scenarios.build_projection_pair
    monkeypatch.setattr(scenarios, "build_projection_pair", lambda c: fault(real(c)))


def _one_slot_more(pair, f_moves: dict, g_moves: dict):
    """pair with the given moves over its basis grown by one ordinal slot."""
    dom = pair.f.domain
    dom = ProductBasis(dom.vertices, [*dom.slots, Ordinal(len(dom.slots) + 1)])
    return dataclasses.replace(
        pair, f=SparseBlockOperator(dom, f_moves), g=SparseBlockOperator(dom, g_moves)
    )


def g_one_slot_up(pair):
    """g projects onto the slots one above those of its ranks: the ranks
    and the orthogonality hold, but negating the chain no longer swaps f
    and g."""
    up = [BlockIndex(b.vertex, Ordinal(b.slot.index + 1)) for b in pair.g.moves]
    return _one_slot_more(pair, pair.f.moves, {b: b for b in up})


def shared_vector(pair):
    """f and g both also project onto a new slot of the first vertex: the
    signature and the swap under negation hold, but fg != 0."""
    b = BlockIndex(pair.f.domain.vertices[0], Ordinal(len(pair.f.domain.slots) + 1))
    return _one_slot_more(pair, {**pair.f.moves, b: b}, {**pair.g.moves, b: b})


def test_k0_signature_check_passes_on_the_real_pairs():
    assert _k0_signature_kinds() == set()


def test_a_boundary_off_by_a_vertex_fails_only_the_boundary_signature(monkeypatch):
    real = scenarios.boundary

    def off_by_a_vertex(gamma):
        return real(gamma) + Chain0(gamma.graph, {gamma.graph.vertices[0]: 1})

    monkeypatch.setattr(scenarios, "boundary", off_by_a_vertex)
    assert _k0_signature_kinds() == {"boundary signature nonzero"}


def test_a_doubled_signature_fails_only_the_coefficient_sum(monkeypatch):
    # right wherever the signature is 0, as on every boundary
    real = scenarios.k0_signature
    monkeypatch.setattr(scenarios, "k0_signature", lambda pair: 2 * real(pair))
    assert _k0_signature_kinds() == {"signature != coefficient sum"}


def test_a_shifted_g_fails_only_the_swap_under_negation(monkeypatch):
    _faulty_scenario_pairs(monkeypatch, g_one_slot_up)
    assert _k0_signature_kinds() == {"negation does not swap f and g"}


def test_a_vector_shared_by_f_and_g_fails_only_orthogonality(monkeypatch):
    _faulty_scenario_pairs(monkeypatch, shared_vector)
    assert _k0_signature_kinds() == {"f and g not orthogonal projections"}


# ---------------------------------------------------------------------------
# the line scenario checks, which share their verdicts with k0-map and k1-map

LINE_VERDICTS = ("windows_agree", "linear", "injective", "additive")


def _failed_line_verdicts() -> set:
    out = scenarios.check_line_isomorphism()
    failed = {v for v in LINE_VERDICTS if not out[v]}
    assert out["ok"] == (not failed and out["shift_index"] == -1)
    return failed


def _every_line_unitary(monkeypatch, k_of) -> None:
    """The constant-k_of(k) unitary wherever the line isomorphism asks for
    the constant-k one, on every window."""
    real = k1_map.line_cycle_unitary

    def faulty(k, window, *rest):
        return real(k_of(k), window, *rest)

    monkeypatch.setattr(k1_map, "line_cycle_unitary", faulty)
    monkeypatch.setattr(scenarios, "line_cycle_unitary", faulty)


def test_line_isomorphism_passes_on_the_real_indexes():
    assert _failed_line_verdicts() == set()


def test_a_doubled_window_of_another_index_fails_only_windows_agree(monkeypatch):
    monkeypatch.setattr(scenarios, "constant_cycle_index", shifted_index)
    assert _failed_line_verdicts() == {"windows_agree"}


def test_a_shift_of_the_opposite_sign_fails_only_linearity(monkeypatch):
    # the values stay -k, injective and additive, but the sign reads +1
    real = scenarios.bilateral_shift
    monkeypatch.setattr(
        scenarios, "bilateral_shift", lambda window, *rest: real(window, *rest).adjoint()
    )
    assert _failed_line_verdicts() == {"linear"}


def test_every_class_sent_to_zero_fails_injectivity(monkeypatch):
    # additive still holds (0 + 0 == 0); linear with sign -1 implies injective
    _every_line_unitary(monkeypatch, lambda k: 0)
    assert _failed_line_verdicts() == {"injective", "linear"}


def test_every_class_off_by_one_fails_additivity(monkeypatch):
    # -(k + 1) stays injective; linear with sign -1 implies additive
    _every_line_unitary(monkeypatch, lambda k: k + 1)
    assert _failed_line_verdicts() == {"additive", "linear"}


def one_slot_over_the_bound(pair):
    """f also projects onto a new ordinal slot above all others at the first
    vertex: still a projection orthogonal to g, but above the uniform bound."""
    b = BlockIndex(pair.f.domain.vertices[0], Ordinal(len(pair.f.domain.slots) + 1))
    return _one_slot_more(pair, {**pair.f.moves, b: b}, pair.g.moves)


def _pairs_over_the_bound(monkeypatch) -> None:
    real = scenarios.build_projection_pair
    monkeypatch.setattr(
        scenarios, "build_projection_pair", lambda *args: one_slot_over_the_bound(real(*args))
    )


def test_a_pair_over_the_uniform_bound_fails_only_the_corner_on_the_line(monkeypatch):
    real = scenarios.check_line_homology()
    _pairs_over_the_bound(monkeypatch)
    out = scenarios.check_line_homology()
    assert real["uniform_corner"] and not out["uniform_corner"] and not out["ok"]
    assert out["slot_ceiling"] == real["slot_ceiling"] + 1
    changed = {"uniform_corner", "slot_ceiling", "ok", "seconds"}
    assert {k: v for k, v in out.items() if k not in changed} == {
        k: v for k, v in real.items() if k not in changed
    }


BANDED_CLASS = {"degree": 0, "tail_left": 2, "tail_right": -1}


def test_k0_map_on_the_line_passes_with_the_real_pair(tmp_path, capsys):
    rc, verdicts = _run_cli(tmp_path, capsys, "k0-map", LINE, BANDED_CLASS, *WINDOW)
    assert rc == 0 and all(verdicts.values()) and len(verdicts) == 3


def test_k0_map_a_pair_over_the_uniform_bound_fails_only_the_corner(
    tmp_path, capsys, monkeypatch
):
    _pairs_over_the_bound(monkeypatch)
    rc, verdicts = _run_cli(tmp_path, capsys, "k0-map", LINE, BANDED_CLASS, *WINDOW)
    _only_failure(rc, verdicts, "pair confined to the corner below the uniform bound")


# ---------------------------------------------------------------------------
# the compression checks, through run_random_finite and k1-map


def _back(res, b):
    """The vector of u's basis that phi sends to b, a vector of u_tilde's."""
    e = res.slots[b.slot.index - 1]
    back = {t: s for s, t in res.involution[b.vertex].items()}
    return BlockIndex(b.vertex, back.get(e, e))


def _on_u_basis(res, op):
    """op, an operator over u_tilde's basis, over u's basis: each vector
    mapped back through phi^-1."""
    moves = {_back(res, c): None if r is None else _back(res, r) for c, r in op.moves.items()}
    return SparseBlockOperator(res.u.domain, moves, op.scalar)


def moved_above_the_corner(res):
    """phi is followed by a swap, at one vertex, of a corner slot that
    u_tilde moves with a slot beyond the corner, and u_tilde is relabelled
    by that swap: still a permutation of the same index that maps back to
    u, but it moves a vector beyond the corner."""
    u = res.u_tilde
    beyond = [s for s in u.domain.slots if s.index > res.max_valence]
    c = next((c for c in u.moves if c.slot.index <= res.max_valence), None)
    if not beyond or c is None:
        return res
    q = BlockIndex(c.vertex, beyond[0])
    swap = SparseBlockOperator(u.domain, {c: q, q: c}, 1)
    # the slots phi sent to c and q trade ordinals
    sc, sq = (_back(res, b).slot for b in (c, q))
    ec, eq = (res.slots[b.slot.index - 1] for b in (c, q))
    m = {**res.involution[c.vertex], sc: eq, sq: ec}
    return dataclasses.replace(
        res,
        involution={**res.involution, c.vertex: {s: t for s, t in m.items() if s != t}},
        u_tilde=swap.compose(u).compose(swap),
    )


def swapped_in_the_corner(res):
    """u_tilde also swaps a vector it moves with another corner slot of its
    vertex: still a permutation inside the corner, of the same index, but no
    longer the relabelling of u by phi."""
    u = res.u_tilde
    c = next(c for c, r in u.moves.items() if r is not None)
    other = next(s for s in u.domain.slots if s.index <= res.max_valence and s != c.slot)
    q = BlockIndex(c.vertex, other)
    return dataclasses.replace(res, u_tilde=u.compose(SparseBlockOperator(u.domain, {c: q, q: c}, 1)))


def t_losing_a_vector(res):
    """phi forgets where it sends the slot of a column c that u moves: that
    slot goes to its own ordinal, which phi also gives another slot, so phi
    is lossy.  u_tilde is unchanged, but mapping it back through phi^-1 no
    longer puts c's column at c."""
    x, s = next(c for c, r in res.u.moves.items() if r is not None)
    m = dict(res.involution[x])
    if m.pop(s, s) == s:
        m[next(e for e in res.slots if e != s)] = s
    return dataclasses.replace(res, involution={**res.involution, x: m})


def shifted_lane(res):
    """u_tilde followed by a shift of the slot-1 lane one vertex up, cut at
    the window's end, and u followed by the same shift mapped back through
    phi^-1: the compression of another operator, consistent and inside the
    corner, but its index is one lower than that of the unitary it was
    handed."""
    u = res.u_tilde
    lane = [BlockIndex(x, Ordinal(1)) for x in u.domain.vertices]
    shift = SparseBlockOperator(u.domain, dict(zip(lane, lane[1:] + [None])), 1)
    return dataclasses.replace(
        res, u=res.u.compose(_on_u_basis(res, shift)), u_tilde=u.compose(shift)
    )


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
    _faulty_compression(monkeypatch, scenarios, fault)
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
    return verify_matching_independence(cycle_unitary(gamma), beta)


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


# ---------------------------------------------------------------------------
# the line, edgeless-line and homology-engine checks, through verify


def _failed_verify_checks() -> list:
    """The checks of every verify scenario that fail, the advisory
    two-conjugation route aside."""
    return [
        c.name
        for report in scenarios.run_all(SEED)
        for c in report.checks
        if not c.passed and not c.advisory
    ]


def test_verify_passes_every_line_and_engine_check_on_the_real_objects():
    assert _failed_verify_checks() == []


def test_a_line_witness_off_at_one_cell_fails_only_the_h0_quotient(monkeypatch):
    # the bounded solution of d(gamma) = c is off by one on the cell after
    # its window: still bounded, but its boundary is no longer c
    real = scenarios.solve_boundary_on_z

    def one_cell_off(c):
        g = real(c)
        if g is None:
            return None
        values = (*g.window_values, g.tail_right + 1)
        return BandedZChain(1, g.tail_left, g.tail_right, g.window_start, values)

    monkeypatch.setattr(scenarios, "solve_boundary_on_z", one_cell_off)
    assert _failed_verify_checks() == ["degree-0 quotient certificates"]
    out = scenarios.check_line_h0_quotient(SEED)
    assert [f["kind"] for f in out["failures"]] == ["no bounded witness"] * out["count"]
    assert out["classes_separated"] and out["constant_one_unbounded"] and out["step_unbounded"]


EDGELESS = "edgeless line scenario"


def test_an_edgeless_line_with_its_cell_edges_fails_only_the_edgeless_check(monkeypatch):
    monkeypatch.setattr(scenarios, "BandedZGraph", lambda edges_per_cell: BandedZGraph(1))
    assert _failed_verify_checks() == [EDGELESS]
    out = scenarios.check_edgeless_line()
    assert not out["no_edges"] and out["h1_rank"] == 0
    assert out["translate_distinct_in_homology"] and out["shift_conjugation_matches"]


def test_a_translate_one_step_too_far_fails_only_the_edgeless_shift(monkeypatch):
    real = BandedZChain.shifted
    monkeypatch.setattr(BandedZChain, "shifted", lambda c, n: real(c, n + 1))
    assert _failed_verify_checks() == [EDGELESS]
    out = scenarios.check_edgeless_line()
    assert not out["shift_conjugation_matches"]
    assert out["no_edges"] and out["translate_distinct_in_homology"]


def test_a_non_cycle_in_the_h1_basis_fails_only_the_homology_engine(monkeypatch):
    # the first basis vector keeps only its first edge: same rank, same
    # number of basis vectors, but no longer a cycle
    real = scenarios.homology_finite

    def one_edge_of_the_first_cycle(g):
        res = real(g)
        if not res.h1_basis:
            return res
        first, *rest = res.h1_basis
        eid, value = next(iter(first.coeffs.items()))
        broken = Chain1(g, {eid: value})
        return dataclasses.replace(res, h1_basis=(broken, *rest))

    monkeypatch.setattr(scenarios, "homology_finite", one_edge_of_the_first_cycle)
    assert _failed_verify_checks() == ["homology engine cross-check"]
    assert scenarios.check_homology_engine(SEED)["failures"]


LINE_HOMOLOGY = "banded 1-cycles are the constants"
CYCLE_VERDICTS = ("constant_is_cycle", "constant_class", "nonconstant_is_cycle")


def _failed_cycle_verdicts() -> set:
    """The cycle verdicts of check_line_homology that do not hold, once
    verify has failed that check alone."""
    assert _failed_verify_checks() == [LINE_HOMOLOGY]
    out = scenarios.check_line_homology()
    assert out["uniform_corner"] and not out["ok"]
    holds = {
        "constant_is_cycle": out["constant_is_cycle"],
        "constant_class": out["constant_class"] == 2,
        "nonconstant_is_cycle": not out["nonconstant_is_cycle"],
    }
    return {v for v in CYCLE_VERDICTS if not holds[v]}


def _banded_is_cycle(monkeypatch, verdict) -> None:
    """scenarios.is_cycle with verdict(chain) on banded chains; finite ones,
    the homology engine's, keep the real test."""
    real = scenarios.is_cycle
    monkeypatch.setattr(
        scenarios,
        "is_cycle",
        lambda gamma: verdict(gamma) if isinstance(gamma, BandedZChain) else real(gamma),
    )


def test_a_cycle_test_that_refuses_every_chain_fails_only_constant_is_cycle(monkeypatch):
    _banded_is_cycle(monkeypatch, lambda gamma: False)
    assert _failed_cycle_verdicts() == {"constant_is_cycle"}


def test_a_class_off_by_one_fails_only_constant_class(monkeypatch):
    real = scenarios.banded_cycle_value
    monkeypatch.setattr(scenarios, "banded_cycle_value", lambda gamma: real(gamma) + 1)
    assert _failed_cycle_verdicts() == {"constant_class"}


def test_a_cycle_test_that_passes_every_chain_fails_only_nonconstant_is_cycle(monkeypatch):
    _banded_is_cycle(monkeypatch, lambda gamma: True)
    assert _failed_cycle_verdicts() == {"nonconstant_is_cycle"}
