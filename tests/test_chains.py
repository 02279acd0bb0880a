import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek import chains, intlinalg
from coarsek.chains import (
    BandedZChain,
    Chain0,
    Chain1,
    ChainError,
    banded_cycle_value,
    boundary,
    chain_from_json,
    homology_finite,
    is_cycle,
    solve_boundary_finite,
    solve_boundary_on_z,
    uf_class_on_z,
    spanning_forest,
    uniform_bound,
)
from coarsek.corpus import random_chain1, random_graph
from coarsek.graphs import BandedZGraph, Edge, OrientedGraph
from helpers import (
    boundary_matrix,
    chain_to_json,
    connected_graph,
    cycle_graph,
    kernel_basis,
    path_graph,
    triangle_with_chord_orientation,
)


def is_connected(g: OrientedGraph) -> bool:
    """A spanning forest of a connected graph has at most one root."""
    _, up = spanning_forest(g)
    return sum(e is None for e in up.values()) <= 1


def test_boundary_of_unit_cell_on_line():
    gamma = BandedZChain(1, 0, 0, 0, (1,))
    c = boundary(gamma)
    assert c.value(1) == 1 and c.value(0) == -1
    assert c.tail_left == 0 == c.tail_right


def test_boundary_of_zero():
    g = path_graph(3)
    assert boundary(Chain1(g, {})).is_zero()
    assert boundary(BandedZChain(1, 0, 0)) == BandedZChain(0, 0, 0)


def test_boundary_telescopes_on_path():
    # checked by direct evaluation edge by edge
    g = path_graph(3)
    gamma = Chain1(g, {"e0": 1, "e1": 1})
    by_id = {e.id: e for e in g.edges}
    expected = {}
    for eid in ("e0", "e1"):
        e = by_id[eid]
        expected[e.target] = expected.get(e.target, 0) + 1
        expected[e.source] = expected.get(e.source, 0) - 1
    expected = {k: v for k, v in expected.items() if v}
    assert boundary(gamma).coeffs == expected == {2: 1, 0: -1}


def test_is_cycle_triangle():
    _, gamma = triangle_with_chord_orientation()
    assert is_cycle(gamma)


def test_single_edge_is_not_a_cycle():
    g = path_graph(2)
    assert not is_cycle(Chain1(g, {"e0": 1}))


def test_banded_constant_is_cycle():
    assert is_cycle(BandedZChain(1, 7, 7))
    assert banded_cycle_value(BandedZChain(1, 7, 7)) == 7
    assert not is_cycle(BandedZChain(1, 7, 7, 0, (5,)))
    assert banded_cycle_value(BandedZChain(1, 0, 1)) is None


def test_uniform_bound():
    g = path_graph(4)
    assert uniform_bound(Chain1(g, {"e0": 3, "e1": -2})) == 4
    assert uniform_bound(Chain0(g, {})) == 1
    assert uniform_bound(BandedZChain(0, 2, -5, 0, (1,))) == 6


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["e0", "e1", "e2", "e3"]), st.integers(-9, 9)),
    st.dictionaries(st.sampled_from(["e0", "e1", "e2", "e3"]), st.integers(-9, 9)),
)
def test_boundary_is_additive(c1, c2):
    g = cycle_graph(5)
    g1 = Chain1(g, c1)
    g2 = Chain1(g, c2)
    assert boundary(g1 + g2) == boundary(g1) + boundary(g2)


def test_boundary_additive_banded():
    a = BandedZChain(1, 1, 2, 0, (5, -1))
    b = BandedZChain(1, -1, 3, -2, (0, 4))
    # a + b, summed pointwise over both windows and the tails
    total = BandedZChain(1, 0, 5, -2, tuple(a.value(i) + b.value(i) for i in range(-2, 2)))
    da, db, dt = boundary(a), boundary(b), boundary(total)
    for i in range(-6, 6):  # both tails and every window position
        assert dt.value(i) == da.value(i) + db.value(i)


def test_boundary_sums_to_zero_per_component():
    rng = random.Random(9)
    for _ in range(25):
        g = random_graph(rng, max_vertices=12, max_edges=18)
        c = boundary(random_chain1(rng, g))
        comp = {}
        for v in g.vertices:
            comp[v] = v
        # union-find by repeated relabel (small graphs)
        changed = True
        while changed:
            changed = False
            for e in g.edges:
                a, b = comp[e.source], comp[e.target]
                if a != b:
                    lo, hi = min(a, b), max(a, b)
                    for k, val in comp.items():
                        if val == hi:
                            comp[k] = lo
                    changed = True
        sums = {}
        for v in g.vertices:
            sums[comp[v]] = sums.get(comp[v], 0) + c.coeff(v)
        assert all(s == 0 for s in sums.values())


# ---------------------------------------------------------------------------
# homology


def test_homology_connected_five_vertices_seven_edges():
    g = OrientedGraph(
        range(5),
        [
            Edge("t1", 0, 1),
            Edge("t2", 1, 2),
            Edge("t3", 2, 3),
            Edge("t4", 3, 4),
            Edge("x1", 4, 0),
            Edge("x2", 0, 2),
            Edge("x3", 1, 3),
        ],
    )
    assert is_connected(g)
    res = homology_finite(g)
    assert res.h0_rank == 1
    # independent oracle: rank H1 = |E| - |V| + number of components
    assert len(res.h1_basis) == 7 - 5 + 1 == 3
    for b in res.h1_basis:
        assert is_cycle(b)


def test_homology_edgeless():
    res = homology_finite(OrientedGraph(range(4), []))
    assert res.h0_rank == 4
    assert len(res.h1_basis) == 0


def test_homology_cycle_graph():
    res = homology_finite(cycle_graph(3))
    assert res.h0_rank == 1
    assert len(res.h1_basis) == 1
    assert is_cycle(res.h1_basis[0])


def test_homology_factorises_once_and_keeps_the_kernel_basis(monkeypatch):
    real = intlinalg.smith_normal_form
    calls = []

    def counting(rows, n):
        calls.append(rows)
        return real(rows, n)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    monkeypatch.setattr(chains, "smith_normal_form", counting)
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, max_vertices=9, max_edges=14)
        calls.clear()
        res = homology_finite(g)
        assert len(calls) == 1
        expected = [
            {e.id: vec[j] for j, e in enumerate(g.edges) if vec[j]}
            for vec in kernel_basis(boundary_matrix(g))
        ]
        assert [b.coeffs for b in res.h1_basis] == expected


@pytest.mark.parametrize(
    "g",
    [path_graph(2000), connected_graph(1000, 1000)],
    ids=["path-2000", "random-1000-2000"],
)
def test_homology_memory_is_bounded_by_the_graph(g):
    """The incidence rows are built sparse and Smith normal form keeps no U,
    so the peak stays far below the dense V x E matrix (15 MB at V = 1000,
    E = 2000) and below U, which on the path is its full lower triangle."""
    tracemalloc.start()
    try:
        res = homology_finite(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.h1_basis) == len(g.edges) - len(g.vertices) + 1
    assert peak < 10 * 2**20, peak


def test_solve_boundary_finite():
    g, gamma = triangle_with_chord_orientation()
    c = boundary(Chain1(g, {"e01": 2, "e12": 1}))
    found = solve_boundary_finite(g, c)
    assert found is not None and boundary(found) == c
    assert solve_boundary_finite(g, Chain0(g, {0: 1})) is None


# ---------------------------------------------------------------------------
# the line


def test_solve_boundary_inverse_of_unit_cell():
    c = BandedZChain(0, 0, 0, 0, (-1, 1))  # -1 at 0, +1 at 1
    sol = solve_boundary_on_z(c)
    assert sol.bounded
    assert sol.gamma == BandedZChain(1, 0, 0, 0, (1,))


def test_constant_chain_does_not_bound_boundedly():
    sol = solve_boundary_on_z(BandedZChain(0, 1, 1))
    assert not sol.bounded and sol.gamma is None
    assert (sol.slope_left, sol.slope_right) == (-1, -1)


def test_step_chain_grows_on_the_right():
    sol = solve_boundary_on_z(BandedZChain(0, 0, 1))
    assert not sol.bounded
    assert sol.slope_left == 0 and sol.slope_right == -1


def test_solve_boundary_rejects_degree_one():
    with pytest.raises(ChainError):
        solve_boundary_on_z(BandedZChain(1, 0, 0))


def test_finite_support_chains_bound_exactly():
    rng = random.Random(4)
    for _ in range(40):
        vals = {
            rng.randint(-8, 8): rng.choice([-3, -2, -1, 1, 2, 3])
            for _ in range(rng.randint(1, 6))
        }
        c = BandedZChain.from_finite_values(0, vals)
        sol = solve_boundary_on_z(c)
        assert sol.bounded
        assert boundary(sol.gamma) == c
        assert uf_class_on_z(c) == (0, 0)


def test_uf_classes():
    assert uf_class_on_z(BandedZChain(0, 5, 5)) == (5, 5)
    assert uf_class_on_z(BandedZChain(0, 0, 1)) == (0, 1)
    deltas = {uf_class_on_z(BandedZChain(0, 0, 0)), (0, 1), (1, 1)}
    assert len(deltas) == 3


# ---------------------------------------------------------------------------
# interchange


def test_chain_json_round_trip():
    g = path_graph(3)
    c = Chain0(g, {0: 2, 2: -1})
    assert chain_from_json(chain_to_json(c), g) == c
    gamma = Chain1(g, {"e1": -4})
    assert chain_from_json(chain_to_json(gamma), g) == gamma


def test_banded_json_round_trip():
    c = BandedZChain(0, 1, -2, 3, (9, 0, 7))
    assert chain_from_json(chain_to_json(c)) == c


def test_banded_constant_chains_compare_equal_whatever_the_window_start():
    assert BandedZChain(0, 0, 0, -1, ()) == BandedZChain(0, 0, 0)
    assert BandedZChain(1, 2, 2, 5, (2, 2)) == BandedZChain(1, 2, 2)
    # a step chain keeps the position of its step
    assert BandedZChain(0, 0, 1, 3, ()) != BandedZChain(0, 0, 1)


def test_banded_normalization():
    c = BandedZChain(0, 1, 2, 0, (1, 1, 5, 2, 2))
    assert c.window_start == 2
    assert c.window_values == (5,)
    assert c.value(1) == 1 and c.value(2) == 5 and c.value(3) == 2


def test_banded_normalization_trims_a_long_left_tail_in_linear_time():
    began = time.perf_counter()
    c = BandedZChain(0, 1, 0, 0, (1,) * 400_000)
    assert time.perf_counter() - began < 2.0
    assert c.window_start == 400_000
    assert c.window_values == ()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Chain1(cycle_graph(3), {"e0": 1.9, "e1": 0.5}),
        lambda: Chain1(cycle_graph(3), {"e0": 0.0}),
        lambda: Chain0(cycle_graph(3), {0: True}),
        lambda: Chain0(cycle_graph(3), {0: False}),
        lambda: Chain1(cycle_graph(3), {"e0": 1}).scaled(1.5),
        lambda: Chain1(cycle_graph(3), {"e0": 1}).scaled(True),
    ],
)
def test_chains_refuse_non_integer_coefficients(make):
    # never truncated, as the JSON readers never truncate
    with pytest.raises(ChainError, match="must be an integer"):
        make()


@pytest.mark.parametrize(
    "args, field",
    [
        ((0, 0, 0, 0, (1.5, 2.7)), "window_values[0]"),
        ((0, 0, 0, 0, (1, True)), "window_values[1]"),
        ((0, 0.5, 0.5), "tail_left"),
        ((1, 2, 2.0), "tail_right"),
        ((0, 0, 1, 0.5), "window_start"),
    ],
)
def test_banded_chains_refuse_non_integer_fields(args, field):
    # never truncated: (1.5, 2.7) must not become the window (1, 2)
    with pytest.raises(ChainError, match="^" + re.escape(f"{field} must be an integer")):
        BandedZChain(*args)


def test_chains_of_different_degrees_do_not_add():
    # on a line window vertex 0 and edge 0 share a label
    g = BandedZGraph().window(0, 2)
    with pytest.raises(ChainError):
        Chain0(g, {0: 1}) + Chain1(g, {0: 1})
