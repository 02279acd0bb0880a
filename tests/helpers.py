"""Fixtures, references and JSON writers that only the tests use: small
named graphs, dense integer matrix algebra over the sparse Smith factors,
per-block ranks, graph and chain files in the format the command line
reads, and the boundary witness through the checking constructor."""

from collections import Counter

from coarsek.chains import BandedZChain, Chain1, boundary
from coarsek.graphs import BandedZGraph, Edge, GraphError, OrientedGraph
from coarsek.intlinalg import Matrix, smith_normal_form
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


def dense_factors(factors: tuple) -> tuple[Matrix, Matrix, Matrix]:
    """The dense (U, D, V) of smith_normal_form's sparse factors: U (m x m)
    and D (m x n) from their {column: entry} rows, V (n x n) from its
    {row: entry} columns."""
    u, d, v = factors
    m, n = len(u), len(v)

    def dense_rows(rows, width):
        return [[row.get(j, 0) for j in range(width)] for row in rows]

    return dense_rows(u, m), dense_rows(d, n), [[col.get(i, 0) for col in v] for i in range(n)]


def kernel_basis(a: Matrix) -> list[list[int]]:
    """Integer basis of the kernel lattice {x : a*x = 0}: the columns of V
    past D's nonzero diagonal."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return identity_matrix(n)
    _, d, v = smith_normal_form(a)
    return [
        [col.get(i, 0) for i in range(n)]
        for j, col in enumerate(v)
        if j >= m or j not in d[j]
    ]


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
        (max(g.in_count(x), g.out_count(x)) for x in g.vertices), default=0
    )
    dom = frozenset(
        {BlockIndex(e.source, e.id) for e in g.edges}
        | {BlockIndex(e.target, e.id) for e in g.edges}
        | {BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, ceiling + 1)}
    )

    def diag(blocks):
        return SparseBlockOperator(dom, {b: b for b in blocks})

    def exchange(count, edges_at):
        moves = {}
        for x in g.vertices:
            ordinals = [Ordinal(i) for i in range(1, count(x) + 1)]
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
            BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, g.in_count(x) + 1)
        ),
        "out_rank_projection": diag(
            BlockIndex(x, Ordinal(i)) for x in g.vertices for i in range(1, g.out_count(x) + 1)
        ),
        "exchange_in": exchange(g.in_count, g.in_edges),
        "exchange_out": exchange(g.out_count, g.out_edges),
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
        "in_ranks": all(in_ranks[x] == g.in_count(x) for x in g.vertices),
        "out_ranks": all(out_ranks[x] == g.out_count(x) for x in g.vertices),
        "in_exchange": conjugates(
            ops["exchange_in"], ops["target_projection"], ops["in_rank_projection"]
        ),
        "out_exchange": conjugates(
            ops["exchange_out"], ops["source_projection"], ops["out_rank_projection"]
        ),
        "rank_bookkeeping": all(
            g.in_count(x) - g.out_count(x) == c.coeff(x) for x in g.vertices
        ),
        "adjacency": all(
            r.vertex == col.vertex or r.vertex in gamma.graph.neighbors(col.vertex)
            for col, r in v.moves.items()
        ),
    }
    return ops, checks
