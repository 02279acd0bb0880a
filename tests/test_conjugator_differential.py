"""Differential tests: the exact block-conjugator decision of the
two-conjugation route against the backtracking search it replaced, and the
comparison of a built cycle unitary with a second matching against the
comparison of two unitaries built each from its own expansion, which also
conjugates the hybrid by the identity W that the report leaves out.

The search assigns per-vertex slot permutations one ingoing edge at a time,
propagates each choice along both matchings and backtracks on a conflict.
It is exponential in the worst case and recursive, so it keeps a step
budget and is run only on small cases; whenever it finishes, the decision
must give the same existence verdict, and every conjugator the decision
returns must satisfy V* U_alpha V = U_beta."""

import json
import random

from coarsek import cli, corpus, k0_map, k1_map, scenarios
from coarsek.chains import Chain1
from coarsek.graphs import Edge, OrientedGraph
from coarsek.k0_map import block_diagonal_slot_permutation, expand_graph
from coarsek.k1_map import (
    MatchingIndependenceReport,
    _block_conjugator,
    _hybrid_intermediate,
    _least_rotation,
    cycle_unitary,
    matching_correction,
    permutation_cycle_type,
    permuted_matching,
    verify_matching_independence,
)
from coarsek.operators import SparseBlockOperator, diagonal_block_ranks

SEARCH_BUDGET = 200_000  # propagation steps before the search gives up


def search_block_conjugator(g, alpha, beta):
    """Per-vertex permutations pi_x of the ingoing edges with

        alpha_x(pi_x(e)) = pi_y(beta_x(e)),   y = target(beta_x(e)),

    by deterministic backtracking; returns (per-vertex slot maps, None),
    (None, "exhausted") or (None, "budget")."""
    pi: dict = {x: {} for x in g.vertices}
    used: dict = {x: set() for x in g.vertices}
    alpha_inv = {x: {v: k for k, v in alpha[x].items()} for x in g.vertices}
    beta_inv = {x: {v: k for k, v in beta[x].items()} for x in g.vertices}
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
            if alpha[x][p].target != beta[x][e].target:
                return False
            pi[x][e] = p
            used[x].add(p)
            trail.append((x, e, p))
            # forward: the constraint attached to the edge beta_x(e)
            f = beta[x][e]
            stack.append((f.target, f, alpha[x][p]))
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
        assert (got is None) == (want is None), (gamma.coeffs, alpha, beta)
        if got is None:
            assert obstruction.startswith("closed walk ")
            continue
        found += 1
        u_a = k1_map._unitary(ex, alpha)
        v = block_diagonal_slot_permutation(u_a.domain, got)
        conjugated = v.adjoint().compose(u_a).compose(v)
        assert conjugated == k1_map._unitary(ex, beta)
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
    cu = cycle_unitary(gamma)
    alpha, beta = cu.matching, permuted_matching(ex, POSITIONS)
    assert search_block_conjugator(ex, alpha, beta) == (None, "exhausted")
    rep = verify_matching_independence(cu, beta)
    assert rep.content_ok
    assert rep.literal_intermediate_unitary
    assert rep.cycle_types[0] == rep.cycle_types[1]
    assert _block_conjugator(ex, alpha, beta) == (None, CERTIFICATE)
    assert rep.literal_v_identity is None
    assert rep.literal_v_obstruction == CERTIFICATE
    assert not rep.literal_route_ok


# ---------------------------------------------------------------------------
# a built cycle unitary against two independent builds


def comparison_of_two_builds(gamma, alpha, beta) -> tuple:
    """The comparison as it was made from gamma and two matchings: the
    unitaries of alpha and beta each built by the checking constructor on
    its own expansion of gamma, and the correction, hybrid and conjugator on a
    third expansion.  Returns the report with the operators it is decided
    by: U_beta, the correction and the conjugator V (None when none is
    built)."""
    g = expand_graph(gamma.graph, gamma)
    u_a = k1_map._unitary(expand_graph(gamma.graph, gamma), alpha)
    u_b = k1_map._unitary(expand_graph(gamma.graph, gamma), beta)
    correction = matching_correction(g, alpha, beta)
    hybrid, collision = _hybrid_intermediate(g, alpha, beta)
    types = (permutation_cycle_type(u_a), permutation_cycle_type(u_b))
    v_op = v_identity = v_obstruction = w_op = w_identity = w_obstruction = None
    if collision is None:
        if types[0] is not None and types[0] != types[1]:
            v_obstruction = (
                f"cycle types differ ({types[0]} vs {types[1]}): "
                "no unitary conjugation can exist"
            )
        else:
            per_vertex, v_obstruction = _block_conjugator(g, alpha, beta)
            if per_vertex is not None:
                v_op = block_diagonal_slot_permutation(u_a.domain, per_vertex)
                v_identity = v_op.adjoint().compose(u_a).compose(v_op) == hybrid
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
    report = MatchingIndependenceReport(
        correction_identity=u_a.compose(correction) == u_b,
        correction_is_permutation=correction.adjoint().compose(correction)
        == SparseBlockOperator.identity(correction.domain),
        correction_propagation_zero=all(
            r is None or r.vertex == c.vertex for c, r in correction.moves.items()
        ),
        correction_block_ranks=dict(diagonal_block_ranks(correction)),
        literal_intermediate_unitary=collision is None,
        literal_v_identity=v_identity,
        literal_v_obstruction=v_obstruction,
        literal_w_identity=w_identity,
        literal_w_obstruction=w_obstruction,
        cycle_types=types,
    )
    return report, u_b, correction, v_op


def w_step_is_the_identity(g, alpha, beta, u_b) -> bool:
    """The facts the report's W step rests on: the hybrid of alpha and beta
    is injective exactly when both route every ingoing edge to the same
    target vertex, and then it equals U_beta, so W = 1 and W*U'W = U'.
    Returns whether the hybrid is injective."""
    hybrid, collision = _hybrid_intermediate(g, alpha, beta)
    two_targets = any(
        alpha[x][e].target != beta[x][e].target for x in g.vertices for e in g.in_edges(x)
    )
    assert (collision is None) != two_targets
    if collision is None:
        assert hybrid == u_b
    return collision is None


def test_the_hybrid_is_u_beta_or_routes_an_edge_to_two_targets():
    rng = random.Random(7)
    injective = colliding = 0
    while injective + colliding < 2000:
        gamma, ex, alpha, beta = random_pair(rng)
        if not ex.edges:
            continue
        if w_step_is_the_identity(ex, alpha, beta, k1_map._unitary(ex, beta)):
            injective += 1
        else:
            colliding += 1
    assert injective > 1000 and colliding > 100


def scenario_pairs(monkeypatch) -> list:
    """(gamma, beta) of every pair that check_matching_independence compares
    at the default seed; the other matching is the canonical one."""
    sources, pairs = {}, []
    real_build, real_verify = scenarios.cycle_unitary, scenarios.verify_matching_independence

    def building(gamma):
        cu = real_build(gamma)
        # cu is kept so that its id names no later unitary
        sources[id(cu)] = (cu, gamma)
        return cu

    def verifying(cu, beta):
        pairs.append((sources[id(cu)][1], beta))
        return real_verify(cu, beta)

    monkeypatch.setattr(scenarios, "cycle_unitary", building)
    monkeypatch.setattr(scenarios, "verify_matching_independence", verifying)
    scenarios.check_matching_independence(scenarios.DEFAULT_SEED)
    monkeypatch.undo()
    return pairs


def test_a_built_unitary_compares_as_two_independent_builds(monkeypatch):
    pairs = scenario_pairs(monkeypatch)
    assert len(pairs) == 50
    assert pairs[0][0].coeffs == corpus.figure_eight()[1].coeffs
    hybrids = set()
    for gamma, beta in pairs:
        cu = cycle_unitary(gamma)
        alpha = cu.matching
        got = verify_matching_independence(cu, beta)
        want, u_b, correction, v = comparison_of_two_builds(gamma, alpha, beta)
        assert got.to_json() == want.to_json()
        # the operators the package decides by, built on cu's expansion
        ex = cu.expanded
        assert k1_map._unitary(ex, beta) == u_b
        assert matching_correction(ex, alpha, beta) == correction
        if v is not None:
            per_vertex, _ = _block_conjugator(ex, alpha, beta)
            assert block_diagonal_slot_permutation(cu.u.domain, per_vertex) == v
        hybrids.add(w_step_is_the_identity(ex, alpha, beta, u_b))
    # both branches of the literal route are compared
    assert hybrids == {True, False}


def test_a_matching_request_expands_the_graph_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = k0_map.expand_graph

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (k0_map, k1_map, corpus, scenarios, cli):
        if hasattr(module, "expand_graph"):
            monkeypatch.setattr(module, "expand_graph", counting)
    files = {
        "graph": {
            "kind": "finite",
            "vertices": [0, 1],
            "edges": [{"id": "a", "source": 0, "target": 1}, {"id": "b", "source": 1, "target": 0}],
        },
        "chain": {"degree": 1, "coeffs": {"a": 2, "b": 2}},
        "matching": {"positions": {"0": [1, 0], "1": [1, 0]}},
    }
    argv = ["k1-map", "--json"]
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        argv += [f"--{name}", str(path)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert len(calls) == 1
