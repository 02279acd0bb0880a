"""Differential tests: the exact block-conjugator decision of the
two-conjugation route against the backtracking search it replaced.

The search assigns per-vertex slot permutations one ingoing edge at a time,
propagates each choice along both matchings and backtracks on a conflict.
It is exponential in the worst case and recursive, so it keeps a step
budget and is run only on small cases; whenever it finishes, the decision
must give the same existence verdict, and every conjugator the decision
returns must satisfy V* U_alpha V = U_beta."""

import random

from coarsek.chains import Chain1
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import block_diagonal_slot_permutation, expand_graph
from coarsek.k1_map import (
    _block_conjugator,
    _hybrid_intermediate,
    _least_rotation,
    canonical_matching,
    cycle_unitary,
    permuted_matching,
    verify_matching_independence,
)

SEARCH_BUDGET = 200_000  # propagation steps before the search gives up


def search_block_conjugator(g, alpha, beta):
    """Per-vertex permutations pi_x of the ingoing edges with

        alpha_x(pi_x(e)) = pi_y(beta_x(e)),   y = target(beta_x(e)),

    by deterministic backtracking; returns (per-vertex slot maps, None),
    (None, "exhausted") or (None, "budget")."""
    pi: dict = {x: {} for x in g.vertices}
    used: dict = {x: set() for x in g.vertices}
    alpha_inv = {x: {v: k for k, v in alpha.at(x).items()} for x in g.vertices}
    beta_inv = {x: {v: k for k, v in beta.at(x).items()} for x in g.vertices}
    points = [(x, e) for x in g.vertices for e in g.in_edges(x)]
    steps = 0

    def propagate(x, e, p, trail):
        nonlocal steps
        stack = [(x, e, p)]
        while stack:
            steps += 1
            if steps > SEARCH_BUDGET:
                raise TimeoutError
            x, e, p = stack.pop()
            cur = pi[x].get(e)
            if cur is not None:
                if cur != p:
                    return False
                continue
            if p in used[x] or p.target != x or p.source != e.source:
                return False
            if alpha.at(x)[p].target != beta.at(x)[e].target:
                return False
            pi[x][e] = p
            used[x].add(p)
            trail.append((x, e, p))
            # forward: the constraint attached to the edge beta_x(e)
            f = beta.at(x)[e]
            stack.append((f.target, f, alpha.at(x)[p]))
            # backward: the constraint attached to the edge e itself
            s = e.source
            e0 = beta_inv[s].get(e)
            if e0 is not None:
                p0 = alpha_inv[s].get(p)
                if p0 is None:
                    return False
                stack.append((s, e0, p0))
        return True

    def undo(trail):
        for x, e, p in trail:
            del pi[x][e]
            used[x].discard(p)

    def solve(idx):
        while idx < len(points) and points[idx][1] in pi[points[idx][0]]:
            idx += 1
        if idx == len(points):
            return True
        x, e = points[idx]
        for p in [p for p in g.in_edges(x) if p not in used[x]]:
            trail: list = []
            if propagate(x, e, p, trail) and solve(idx + 1):
                return True
            undo(trail)
        return False

    try:
        if solve(0):
            return {x: {e.id: p.id for e, p in m.items()} for x, m in pi.items()}, None
        return None, "exhausted"
    except TimeoutError:
        return None, "budget"


LABELS = [0, 1, 2, "a", "b", "z"]


def random_pair(rng: random.Random):
    """A cycle on a random multigraph over mixed int/str labels, the sum of
    closed walks that reuse host edges both ways (so expanded edges come in
    parallel and antiparallel copies), with two matchings of it.  Half the
    time beta reroutes alpha only within parallel classes, so that the
    hybrid intermediate is unitary."""
    vertices = rng.sample(LABELS, rng.randint(2, 4))
    edges: list = []
    coeffs: dict = {}
    for _ in range(rng.randint(1, 3)):
        walk = [rng.choice(vertices)]
        for _ in range(rng.randint(1, 3)):
            walk.append(rng.choice([v for v in vertices if v != walk[-1]]))
        walk.append(walk[0])
        times = rng.randint(1, 3)
        for u, v in zip(walk, walk[1:]):
            if u == v:
                continue
            both_ways = [(e, 1) for e in edges if (e.source, e.target) == (u, v)]
            both_ways += [(e, -1) for e in edges if (e.source, e.target) == (v, u)]
            if both_ways and rng.random() < 0.7:
                e, sign = rng.choice(both_ways)
            else:
                e, sign = Edge(f"e{len(edges)}", u, v), 1
                edges.append(e)
            coeffs[e.id] = coeffs.get(e.id, 0) + sign * times
    g = OrientedGraph(vertices, edges)
    gamma = Chain1(g, coeffs)
    ex = expand_graph(g, gamma)
    pos_a = {}
    pos_b = {}
    for x in ex.vertices:
        outs = ex.out_edges(x)
        perm = list(range(len(outs)))
        if rng.random() < 0.5:
            rng.shuffle(perm)
        pos_a[x] = tuple(perm)
        if rng.random() < 0.5:
            # a permutation of the outgoing edges at x within each target
            classes: dict = {}
            for i, e in enumerate(outs):
                classes.setdefault(e.target, []).append(i)
            within = list(range(len(outs)))
            for members in classes.values():
                shuffled = members[:]
                rng.shuffle(shuffled)
                for i, j in zip(members, shuffled):
                    within[i] = j
            pos_b[x] = tuple(within[p] for p in perm)
        else:
            pos_b[x] = tuple(rng.sample(range(len(outs)), len(outs)))
    return gamma, ex, permuted_matching(ex, pos_a), permuted_matching(ex, pos_b)


def test_least_rotation_is_the_least_of_all_rotations():
    rng = random.Random(5)
    for _ in range(2000):
        word = [rng.randrange(3) for _ in range(rng.randint(1, 9))]
        k = _least_rotation(word)
        assert word[k:] + word[:k] == min(word[i:] + word[:i] for i in range(len(word)))


def test_decision_agrees_with_the_search_on_random_pairs():
    rng = random.Random(20240801)
    compared = found = unitary = 0
    while compared < 2000:
        gamma, ex, alpha, beta = random_pair(rng)
        if not ex.edges:
            continue
        want, reason = search_block_conjugator(ex, alpha, beta)
        got, obstruction = _block_conjugator(ex, alpha, beta)
        if reason == "budget":
            continue
        compared += 1
        assert (got is None) == (want is None), (gamma.coeffs, alpha.per_vertex, beta.per_vertex)
        if got is None:
            assert obstruction.startswith("closed walk ")
            continue
        found += 1
        u_a = cycle_unitary(gamma, alpha).u
        v = block_diagonal_slot_permutation(u_a.domain, got)
        conjugated = v.adjoint().compose(u_a).compose(v)
        assert conjugated == cycle_unitary(gamma, beta).u
        hybrid, collision = _hybrid_intermediate(ex, alpha, beta)
        if collision is None:
            unitary += 1
            assert conjugated == hybrid
    # both verdicts occur, and a good share of the found conjugators went
    # through a unitary hybrid, the case the report decides
    assert 200 < found < compared - 200
    assert unitary > 200


# both matchings have cycle type (2, 5), and beta only swaps the parallel
# copies of e01 at 0 and of e20 at 2, so the hybrid is unitary; but the
# 2-cycle of alpha walks 0 -> 1 -> 0 while that of beta walks 0 -> 2 -> 0
POSITIONS = {0: (1, 0, 2), 1: (0, 1), 2: (1, 0)}
CERTIFICATE = (
    "closed walk [0, 1, 0] has multiplicity 1 among the alpha tracks and 0 "
    "among the beta tracks: no slot-permutation conjugator exists"
)


def test_equal_cycle_types_without_a_conjugator_carry_the_walk_certificate():
    g = OrientedGraph(
        [0, 1, 2],
        [
            Edge("e01", 0, 1),
            Edge("e12", 1, 2),
            Edge("e20", 2, 0),
            Edge("e02", 0, 2),
            Edge("e10", 1, 0),
        ],
    )
    gamma = Chain1(g, {"e01": 2, "e12": 1, "e20": 2, "e02": 1, "e10": 1})
    ex = expand_graph(g, gamma)
    alpha = canonical_matching(ex)
    beta = permuted_matching(ex, POSITIONS)
    assert search_block_conjugator(ex, alpha, beta) == (None, "exhausted")
    rep = verify_matching_independence(gamma, alpha, beta)
    assert rep.content_ok
    assert rep.literal_intermediate_unitary
    assert rep.cycle_types[0] == rep.cycle_types[1]
    assert rep.literal_v is None and rep.literal_v_identity is None
    assert rep.literal_v_obstruction == CERTIFICATE
    assert not rep.literal_route_ok
