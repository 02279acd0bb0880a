"""Each named check must be able to fail.

Good input shows only that a check passes; a check that always passes
would pass it too.  These tests feed one faulty object through the real
code path and require that exactly the check aimed at the fault fails."""

import pytest

from coarsek import chains, scenarios
from coarsek.chains import Chain0, Chain1, is_cycle
from coarsek.corpus import cycle_graph, path_graph
from coarsek.operators import BlockIndex, SparseBlockOperator
from coarsek.k1_map import CycleUnitary

SEED = 1
COUNT = 12


def _with_moves(cu: CycleUnitary, moves: dict) -> CycleUnitary:
    """cu with the columns in moves sent to the given basis vectors."""
    u = cu.u
    delta = {(r, c): v for (r, c), v in u.delta.items() if c not in moves}
    for c, img in moves.items():
        delta[(c, c)] = delta.get((c, c), 0) - 1
        delta[(img, c)] = delta.get((img, c), 0) + 1
    faulty = SparseBlockOperator(u.domain, delta, u.scalar)
    return CycleUnitary(cu.expanded, cu.matching, faulty)


def _moved_columns(cu: CycleUnitary) -> list:
    """(column, image) of every basis vector the unitary moves."""
    return sorted(
        ((c, r) for (r, c), v in cu.u.delta.items() if v == 1 and r != c),
        key=repr,
    )


def _fixed_slots(cu: CycleUnitary, x) -> list:
    """Basis vectors at x that the unitary leaves alone."""
    return [
        BlockIndex(x, s)
        for s in cu.u.domain.slots
        if (BlockIndex(x, s), BlockIndex(x, s)) not in cu.u.delta
    ]


def column_moved(cu: CycleUnitary) -> CycleUnitary:
    """One moved column lands on a vector that stays fixed at the same
    vertex: two columns share a row, so the operator is not unitary, but
    every entry still joins adjacent vertices and no block grows."""
    moved = _moved_columns(cu)
    if not moved:
        return cu
    c, img = moved[0]
    return _with_moves(cu, {c: _fixed_slots(cu, img.vertex)[0]})


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
