"""Fixtures, references and JSON writers that only the tests use: small
named graphs, the dense incidence matrix, dense integer matrix algebra, the
dense Smith normal form the sparse one must reproduce, per-block ranks,
graph and chain files in the format the command line reads, and the
boundary witness through the checking constructor."""

import random
from collections import Counter

from coarsek.chains import BandedZChain, Chain1, boundary
from coarsek.graphs import BandedZGraph, Edge, GraphError, OrientedGraph
from coarsek.intlinalg import Matrix, Sparse, smith_normal_form
from coarsek.k0_map import expand_graph, order_matched_involution
from coarsek.operators import (
    BlockIndex,
    Ordinal,
    SparseBlockOperator,
    diagonal_block_ranks,
)

# ---------------------------------------------------------------------------
# small named graphs


def path_graph(n: int) -> OrientedGraph:
    return OrientedGraph(
        range(n), [Edge(f"e{i}", i, i + 1) for i in range(n - 1)]
    )


def cycle_graph(n: int) -> OrientedGraph:
    edges = [Edge(f"e{i}", i, (i + 1) % n) for i in range(n)]
    return OrientedGraph(range(n), edges)


def connected_graph(n: int, seed: int) -> OrientedGraph:
    """A random spanning tree plus n + 1 random chords: E = 2V."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(n + 1)]
    return OrientedGraph(range(n), [Edge(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)])


def triangle_with_chord_orientation() -> tuple[OrientedGraph, Chain1]:
    """Triangle oriented 0->1, 1->2, 0->2 and the cycle e01 + e12 - e02."""
    g = OrientedGraph(
        range(3),
        [Edge("e01", 0, 1), Edge("e12", 1, 2), Edge("e02", 0, 2)],
    )
    return g, Chain1(g, {"e01": 1, "e12": 1, "e02": -1})


# ---------------------------------------------------------------------------
# JSON writers, the inverses of graph_from_json and chain_from_json


def graph_to_json(g) -> dict:
    if isinstance(g, BandedZGraph):
        return {
            "kind": "banded_z",
            "edges_per_cell": g.edges_per_cell,
            "perturbation": None,
        }
    for v in g.vertices:
        if not isinstance(v, (int, str)):
            raise GraphError("only int or str vertex ids are serializable")
    for e in g.edges:
        if not isinstance(e.id, (int, str)):
            raise GraphError("only int or str edge ids are serializable")
    return {
        "kind": "finite",
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "source": e.source, "target": e.target} for e in g.edges
        ],
    }


def chain_to_json(chain) -> dict:
    if isinstance(chain, BandedZChain):
        return {
            "degree": chain.degree,
            "tail_left": chain.tail_left,
            "tail_right": chain.tail_right,
            "window_start": chain.window_start,
            "window_values": list(chain.window_values),
        }
    return {
        "degree": chain.degree,
        "coeffs": {str(k): v for k, v in sorted(chain.coeffs.items(), key=lambda kv: str(kv[0]))},
    }


# ---------------------------------------------------------------------------
# dense integer matrices


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[] for _ in a]
    assert len(a[0]) == len(b), "inner dimensions must agree"
    cols = len(b[0])
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for k, av in enumerate(row):
            if av:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += av * brow[j]
    return out


def determinant(a: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a)
    w = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if not w[c][c]:
            piv = next((i for i in range(c + 1, n) if w[i][c]), None)
            if piv is None:
                return 0
            w[c], w[piv] = w[piv], w[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                w[i][j] = (w[c][c] * w[i][j] - w[i][c] * w[c][j]) // prev
            w[i][c] = 0
        prev = w[c][c]
    return sign * w[n - 1][n - 1]


def boundary_matrix(g: OrientedGraph) -> Matrix:
    """Vertices-by-edges incidence matrix of d(e) = t(e) - s(e)."""
    vindex = {v: i for i, v in enumerate(g.vertices)}
    mat = [[0] * len(g.edges) for _ in g.vertices]
    for j, e in enumerate(g.edges):
        mat[vindex[e.target]][j] += 1
        mat[vindex[e.source]][j] -= 1
    return mat


def random_multigraph(rng) -> OrientedGraph:
    """Up to 12 vertices and E <= 2V edges; loops excluded, parallel and
    antiparallel edges allowed.  Edgeless and disconnected graphs occur."""
    n = rng.randint(1, 12)
    m = rng.randint(0, 2 * n) if n > 1 else 0
    edges = []
    for i in range(m):
        s, t = rng.sample(range(n), 2)
        edges.append(Edge(f"e{i}", s, t))
    if edges and rng.random() < 0.3:
        e = rng.choice(edges)
        edges.append(Edge(f"e{len(edges)}", e.source, e.target))
        edges.append(Edge(f"e{len(edges)}", e.target, e.source))
    return OrientedGraph(range(n), edges)


def _permuted_and_signed(a: Matrix, rng) -> Matrix:
    n = len(a[0]) if a else 0
    order = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[j] * row[j] for j in order] for row in a]


# ways to turn an incidence matrix into another totally unimodular matrix
TU_VARIANTS = {
    "incidence": lambda a, rng: a,
    "transpose": lambda a, rng: [list(col) for col in zip(*a)],
    "permuted-signed": _permuted_and_signed,
}


def totally_unimodular_matrix(rng, variant: str) -> Matrix:
    """The incidence matrix of a random multigraph, turned by the named
    TU_VARIANTS entry."""
    return TU_VARIANTS[variant](boundary_matrix(random_multigraph(rng)), rng)


def sparse_rows(a: Matrix) -> tuple[Sparse, int]:
    """The arguments of smith_normal_form for the dense a: one {column:
    nonzero entry} dict per row, and the column count."""
    n = len(a[0]) if a else 0
    return [{j: x for j, x in enumerate(row) if x} for row in a], n


def dense_factors(factors: tuple) -> tuple[Matrix, Matrix]:
    """The dense (D, V) of smith_normal_form's sparse factors: D (m x n)
    from its {column: entry} rows, V (n x n) from its {row: entry}
    columns."""
    d, v = factors
    n = len(v)
    return [[row.get(j, 0) for j in range(n)] for row in d], [
        [col.get(i, 0) for col in v] for i in range(n)
    ]


def reference_smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """The dense, general Smith normal form that smith_normal_form replaced,
    kept verbatim: (U, D, V) with U*a*V = D, U and V unimodular, D diagonal
    with each diagonal entry dividing the next, for any integer a.  Dense
    rows, a global pivot search over the whole tail block, remainders
    promoted to pivot, full-height column operations, and a divisor-chain
    scan after every pivot."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(m, n):
        # global pivot search: smallest nonzero magnitude in the tail block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(piv[0], t)
        if piv[1] != t:
            swap_cols(piv[1], t)

        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_sub(i, t, q)
                    if d[i][t]:
                        # remainder is strictly smaller: promote it to pivot
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_sub(j, t, q)
                    if d[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            if any(d[t][j] for j in range(t + 1, n)):
                continue
            # pivot must divide every remaining entry for the divisor chain
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_sub(t, culprit, -1)  # drag the offending row into play

        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return u, d, v


def kernel_basis(a: Matrix) -> list[list[int]]:
    """Integer basis of the kernel lattice {x : a*x = 0}: the columns of V
    past D's nonzero diagonal.  The factors are the package's, or, when it
    refuses a (a non-unit pivot: a is not totally unimodular), the general
    reference's."""
    try:
        d, v = dense_factors(smith_normal_form(*sparse_rows(a)))
    except ValueError:
        _, d, v = reference_smith_normal_form(a)
    n = len(v)
    pivots = sum(1 for i, row in enumerate(d) if i < n and row[i])
    return [[row[j] for row in v] for j in range(pivots, n)]


# ---------------------------------------------------------------------------
# vertex blocks of operators


def block_rank(a: SparseBlockOperator, x, y) -> int:
    """Exact rank of the (x, y) vertex block of a - 1, one block at a time:
    the reference for operators.block_ranks.

    Off the diagonal a - 1 agrees with a, so the rank is the number of
    columns at y moved into x; diagonal_block_ranks reads the diagonal."""
    if x != y:
        return sum(r is not None and (r.vertex, c.vertex) == (x, y) for c, r in a.moves.items())
    return diagonal_block_ranks(a)[x]


# ---------------------------------------------------------------------------
# the boundary witness


def reference_witness(gamma: Chain1) -> tuple[dict, dict]:
    """The witness operators through the checking constructor, and the
    checks walking every vertex of the host."""
    g = expand_graph(gamma.graph, gamma)
    c = boundary(gamma)
    ceiling = max(
        (max(len(g.in_edges(x)), len(g.out_edges(x))) for x in g.vertices), default=0
    )
    dom = frozenset(
        {BlockIndex(e.source, e.id) for e in g.edges}
        | {BlockIndex(e.target, e.id) for e in g.edges}
        | {BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, ceiling + 1)}
    )

    def diag(blocks):
        return SparseBlockOperator(dom, {b: b for b in blocks})

    def exchange(edges_at):
        moves = {}
        for x in g.vertices:
            ordinals = [Ordinal(i) for i in range(1, len(edges_at(x)) + 1)]
            swaps = order_matched_involution(ordinals, [e.id for e in edges_at(x)])
            moves.update({BlockIndex(x, a): BlockIndex(x, b) for a, b in swaps.items()})
        return SparseBlockOperator(dom, moves, 1)

    ops = {
        "v": SparseBlockOperator(
            dom,
            {BlockIndex(e.source, e.id): BlockIndex(e.target, e.id) for e in g.edges},
        ),
        "source_projection": diag(BlockIndex(e.source, e.id) for e in g.edges),
        "target_projection": diag(BlockIndex(e.target, e.id) for e in g.edges),
        "in_rank_projection": diag(
            BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, len(g.in_edges(x)) + 1)
        ),
        "out_rank_projection": diag(
            BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, len(g.out_edges(x)) + 1)
        ),
        "exchange_in": exchange(g.in_edges),
        "exchange_out": exchange(g.out_edges),
    }
    v = ops["v"]
    vv, ww = v.adjoint().compose(v), v.compose(v.adjoint())
    in_ranks = Counter(b.vertex for b, r in ww.moves.items() if r == b)
    out_ranks = Counter(b.vertex for b, r in vv.moves.items() if r == b)

    def conjugates(t, p, q):
        return t.compose(p).compose(t.adjoint()) == q

    checks = {
        "initial_projection": vv == ops["source_projection"],
        "final_projection": ww == ops["target_projection"],
        "in_ranks": all(in_ranks[x] == len(g.in_edges(x)) for x in g.vertices),
        "out_ranks": all(out_ranks[x] == len(g.out_edges(x)) for x in g.vertices),
        "in_exchange": conjugates(
            ops["exchange_in"], ops["target_projection"], ops["in_rank_projection"]
        ),
        "out_exchange": conjugates(
            ops["exchange_out"], ops["source_projection"], ops["out_rank_projection"]
        ),
        "rank_bookkeeping": all(
            len(g.in_edges(x)) - len(g.out_edges(x)) == c.coeff(x) for x in g.vertices
        ),
        "adjacency": all(
            r.vertex == col.vertex or r.vertex in gamma.graph.neighbors(col.vertex)
            for col, r in v.moves.items()
        ),
    }
    return ops, checks
