"""The spanning forest against the reference constructions it replaced.

The oracles below are the earlier implementations: a boundary solver by
Smith normal form of the incidence matrix, and fundamental cycles found by
breadth-first search through the tree edges.  The forest must agree with
them on random graphs, disconnected and edgeless ones included.
"""

import random
from collections import deque
from itertools import combinations

import pytest

from coarsek.chains import (
    Chain0,
    Chain1,
    boundary,
    fundamental_cycle,
    homology_finite,
    solve_boundary_finite,
    spanning_forest,
)
from coarsek.corpus import (
    all_connected_graphs,
    random_chain0,
    random_chain1,
    random_cycle,
)
from coarsek.graphs import Edge, OrientedGraph
from helpers import boundary_matrix, determinant, reference_smith_normal_form


def snf_solve_boundary(g, c):
    """A 1-chain with boundary c by Smith normal form, or None."""
    mat = boundary_matrix(g)
    nv = len(g.vertices)
    ne = len(g.edges)
    cvec = [c.coeff(v) for v in g.vertices]
    if ne == 0:
        return Chain1(g, {}) if c.is_zero() else None
    u, d, v = reference_smith_normal_form(mat)
    y = [sum(u[i][j] * cvec[j] for j in range(nv)) for i in range(nv)]
    z = [0] * ne
    for i in range(nv):
        di = d[i][i] if i < min(nv, ne) else 0
        if di:
            if y[i] % di:
                return None
            z[i] = y[i] // di
        elif y[i]:
            return None
    coeffs = {}
    for row, e in zip(range(ne), g.edges):
        val = sum(v[row][j] * z[j] for j in range(ne))
        if val:
            coeffs[e.id] = val
    return Chain1(g, coeffs)


def bfs_fundamental_cycle(g, tree, extra):
    """The extra edge plus the tree path closing it up, by BFS."""
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.id in tree:
            adj[e.source].append((e, e.target, 1))
            adj[e.target].append((e, e.source, -1))
    start, goal = extra.target, extra.source
    prev = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            break
        for e, nxt, sign in adj[cur]:
            if nxt not in prev:
                prev[nxt] = (cur, e, sign)
                queue.append(nxt)
    coeffs = {extra.id: 1}
    cur = goal
    while prev[cur] is not None:
        back, e, sign = prev[cur]
        coeffs[e.id] = coeffs.get(e.id, 0) + sign
        cur = back
    return Chain1(g, coeffs)


def union_find_tree(g):
    """Edge ids a union-find over the stored edge order keeps, and the least
    vertex of the component of every vertex."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    tree = set()
    for e in g.edges:
        ru, rv = find(e.source), find(e.target)
        if ru != rv:
            parent[ru] = rv
            tree.add(e.id)
    least = {}
    for v in g.vertices:
        least.setdefault(find(v), v)
    return tree, {v: least[find(v)] for v in g.vertices}


def random_multigraph(rng):
    """Up to 12 vertices and 20 edges, parallel edges allowed; about one in
    six is edgeless and many are disconnected."""
    n = rng.randint(1, 12)
    m = 0 if n == 1 or rng.random() < 0.15 else rng.randint(1, 20)
    edges = []
    for i in range(m):
        u, v = rng.sample(range(n), 2)
        edges.append(Edge(f"e{i}", u, v))
    return OrientedGraph(range(n), edges)


_RNG = random.Random(5)
CORPUS = [random_multigraph(_RNG) for _ in range(320)]


def test_corpus_covers_edgeless_and_disconnected_graphs():
    roots = [
        sum(e is None for e in spanning_forest(g)[1].values()) for g in CORPUS
    ]
    assert sum(not g.edges for g in CORPUS) >= 30
    assert sum(r > 1 for r in roots) >= 100
    assert sum(r == 1 for r in roots) >= 50


def test_forest_is_the_union_find_tree_rooted_at_least_vertices():
    for g in CORPUS:
        order, up = spanning_forest(g)
        tree, least = union_find_tree(g)
        assert sorted(order) == list(g.vertices)
        assert {e.id for e in up.values() if e} == tree
        position = {x: i for i, x in enumerate(order)}
        for x, e in up.items():
            if e is None:
                assert least[x] == x
            else:
                assert x in (e.source, e.target)
                parent = e.source if e.target == x else e.target
                assert position[parent] < position[x]


def test_solver_bounds_exactly_when_the_snf_oracle_does():
    solved = unsolved = 0
    for i, g in enumerate(CORPUS):
        rng = random.Random(i)
        for c in (boundary(random_chain1(rng, g)), random_chain0(rng, g)):
            expected = snf_solve_boundary(g, c)
            found = solve_boundary_finite(g, c)
            assert (found is None) == (expected is None)
            if found is None:
                unsolved += 1
                continue
            solved += 1
            assert boundary(found) == c
            _, up = spanning_forest(g)
            tree = {e.id for e in up.values() if e}
            assert set(found.coeffs) <= tree
            positive = sum(v for v in c.coeffs.values() if v > 0)
            assert sum(map(abs, found.coeffs.values())) <= (
                (len(g.vertices) - 1) * positive
            )
    assert solved >= 300 and unsolved >= 100


def test_fundamental_cycles_equal_the_bfs_cycles():
    compared = 0
    for g in CORPUS:
        _, up = spanning_forest(g)
        tree = {e.id for e in up.values() if e}
        for extra in g.edges:
            if extra.id in tree:
                continue
            cycle = fundamental_cycle(g, up, extra)
            expected = bfs_fundamental_cycle(g, tree, extra)
            # equal chains, with the edges even listed in the same order
            assert cycle == expected
            assert list(cycle.coeffs) == list(expected.coeffs)
            compared += 1
    assert compared >= 500


def test_forest_basis_and_snf_basis_differ_by_a_unimodular_matrix():
    for g in CORPUS:
        _, up = spanning_forest(g)
        tree = {e.id for e in up.values() if e}
        extras = [e for e in g.edges if e.id not in tree]
        forest = [fundamental_cycle(g, up, e) for e in extras]
        snf = homology_finite(g).h1_basis
        assert len(snf) == len(forest)
        # a forest cycle is 1 on its own non-tree edge and 0 on the others,
        # so the coordinates of any cycle are its non-tree coefficients
        change = [[z.coeff(e.id) for e in extras] for z in snf]
        for z, row in zip(snf, change):
            combo = Chain1(g, {})
            for coeff, b in zip(row, forest):
                combo = combo + b.scaled(coeff)
            assert combo == z
        assert determinant(change) in (1, -1)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_path_witness_carries_the_chain_along_the_path(n):
    edges = [Edge(i, i, i + 1) for i in range(n)]
    path = OrientedGraph(range(n + 1), edges)
    c = Chain0(path, {0: -3, n: 3})
    assert solve_boundary_finite(path, c).coeffs == {i: 3 for i in range(n)}


# ---------------------------------------------------------------------------
# corpus generators against the forms that built every cycle and graph


def whole_basis_random_cycle(rng, g, bound=3, nonzero=False):
    """random_cycle as it was: every fundamental cycle built, then drawn."""
    _, up = spanning_forest(g)
    tree = {e.id for e in up.values() if e is not None}
    basis = [fundamental_cycle(g, up, e) for e in g.edges if e.id not in tree]
    zero = Chain1(g, {})
    if not basis:
        return zero
    for _ in range(30):
        chosen = rng.sample(basis, min(len(basis), rng.randint(1, 4)))
        acc = zero
        for b in chosen:
            acc = acc + b.scaled(rng.choice([-2, -1, 1, 1, 2]))
        if acc.coeffs and max(abs(v) for v in acc.coeffs.values()) <= bound:
            return acc
        if not acc.coeffs and not nonzero:
            return acc
    return rng.choice(basis)


@pytest.mark.parametrize("bound, nonzero", [(3, False), (1, True)])
def test_random_cycle_draws_like_the_whole_basis(bound, nonzero):
    for i, g in enumerate(CORPUS):
        rng, ref_rng = random.Random(i), random.Random(i)
        got = random_cycle(rng, g, bound, nonzero)
        want = whole_basis_random_cycle(ref_rng, g, bound, nonzero)
        assert got == want
        assert list(got.coeffs) == list(want.coeffs)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n", range(6))
def test_all_connected_graphs_are_the_graphs_with_one_forest_root(n):
    pairs = list(combinations(range(n), 2))
    want = []
    for mask in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = OrientedGraph(range(n), [Edge(f"e{u}-{v}", u, v) for u, v in chosen])
        if sum(e is None for e in spanning_forest(g)[1].values()) <= 1:
            want.append(g)
    assert list(all_connected_graphs(n)) == want
