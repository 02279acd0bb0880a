"""Smith normal form against the implementation it replaced.

The oracle below is the earlier ``smith_normal_form``, kept verbatim: dense
rows, a global pivot search over the whole tail block, full-height column
operations, and a divisor-chain scan after every pivot.  The current
function stores D, U and V sparsely, skips the work a unit pivot makes
pointless and returns the factors as stored; read densely through
``dense_factors`` they must equal the oracle's ``(U, D, V)`` for every
input, so the comparison is exact equality.  Incidence matrices of random multigraphs
(mostly unit pivots) and small general integer matrices (non-unit pivots,
torsion, the divisor-chain row drag) are both covered.
"""

import copy
import random

import pytest

from coarsek.chains import boundary_matrix, homology_finite, spanning_forest
from coarsek.graphs import Edge, OrientedGraph
from coarsek.intlinalg import Matrix, smith_normal_form
from helpers import dense_factors, identity_matrix


def reference_smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*a*V = D, U and V unimodular, D diagonal
    with each diagonal entry dividing the next."""
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


def random_multigraph(rng):
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


def test_incidence_matrices_of_random_multigraphs():
    rng = random.Random(2024)
    shapes = {"edgeless": 0, "disconnected": 0, "parallel": 0, "antiparallel": 0}
    for _ in range(320):
        g = random_multigraph(rng)
        ends = [(e.source, e.target) for e in g.edges]
        _, up = spanning_forest(g)
        shapes["edgeless"] += not ends
        shapes["disconnected"] += sum(e is None for e in up.values()) > 1
        shapes["parallel"] += len(set(ends)) < len(ends)
        shapes["antiparallel"] += any((t, s) in ends for s, t in ends)
        mat = boundary_matrix(g)
        assert dense_factors(smith_normal_form(mat)) == reference_smith_normal_form(mat)
    assert all(count >= 10 for count in shapes.values()), shapes


def connected_incidence_matrix(n: int, seed: int) -> Matrix:
    """A random spanning tree plus n + 1 random chords, E = 2V."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(n + 1)]
    g = OrientedGraph(range(n), [Edge(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)])
    return boundary_matrix(g)


def test_connected_incidence_matrix_with_many_cycles():
    mat = connected_incidence_matrix(40, 7)
    assert dense_factors(smith_normal_form(mat)) == reference_smith_normal_form(mat)


def test_connected_incidence_matrix_of_benchmark_size():
    """V = 160, E = 320: the largest homology request of the benchmark."""
    mat = connected_incidence_matrix(160, 160)
    assert dense_factors(smith_normal_form(mat)) == reference_smith_normal_form(mat)


@pytest.mark.parametrize(
    "vertices, ends",
    [
        # parallel and antiparallel edges on a triangle, one isolated vertex
        (range(4), [(0, 1), (0, 1), (1, 0), (1, 2), (2, 0), (2, 0), (0, 2)]),
        # isolated vertices first, last and in between
        (range(6), [(1, 2), (2, 4), (4, 1), (2, 1), (4, 2)]),
        # two components, each a bundle of parallel and antiparallel edges
        (range(5), [(0, 1), (1, 0), (0, 1), (3, 4), (3, 4), (4, 3), (4, 3)]),
        # only isolated vertices
        (range(3), []),
    ],
)
def test_multigraph_incidence_matrices(vertices, ends):
    g = OrientedGraph(vertices, [Edge(f"e{i}", s, t) for i, (s, t) in enumerate(ends)])
    mat = boundary_matrix(g)
    assert dense_factors(smith_normal_form(mat)) == reference_smith_normal_form(mat)


def random_integer_matrix(rng):
    """Entries within +-9.  About two in five are a common factor times a
    small matrix, half of them with one entry nudged by 1: torsion, and
    diagonals that need the divisor-chain row drag."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    if rng.random() < 0.6:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    f = rng.randint(2, 4)
    a = [[f * rng.randint(-(8 // f), 8 // f) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        a[rng.randrange(m)][rng.randrange(n)] += rng.choice((-1, 1))
    return a


def test_small_general_integer_matrices():
    rng = random.Random(99)
    non_unit = 0
    for _ in range(200):
        a = random_integer_matrix(rng)
        u, d, v = dense_factors(smith_normal_form(a))
        assert (u, d, v) == reference_smith_normal_form(a)
        non_unit += any(abs(row[i]) > 1 for i, row in enumerate(d) if i < len(row))
    assert non_unit >= 50


# m = 0 and n = 0 (also [[]]), a zero matrix, 1 x 1 cases; diag(2, 3),
# whose Smith form diag(1, 6) needs the row drag, and diag(-2, 3), which
# drags below a negative pivot; a zero quotient in a column operation
# ([[4, 3], [-2, -2]]) and in a row operation (the 3 x 3 case after it); a
# negative non-unit pivot that ends up negated; a drag on a 3 x 3 matrix
# with torsion
@pytest.mark.parametrize(
    "a",
    [
        [],
        [[], []],
        [[0, 0], [0, 0]],
        [[5]],
        [[-1]],
        [[2, 0], [0, 3]],
        [[]],
        [[-2, 0], [0, 3]],
        [[4, 3], [-2, -2]],
        [[5, 6, 3], [1, -4, -1], [-5, -6, -4]],
        [[-4, 6], [6, -4]],
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
    ],
)
def test_fixed_small_matrices(a):
    assert dense_factors(smith_normal_form(a)) == reference_smith_normal_form(a)


def test_the_input_matrix_is_left_unchanged():
    rng = random.Random(5)
    cases = [random_integer_matrix(rng) for _ in range(50)]
    cases += [boundary_matrix(random_multigraph(rng)) for _ in range(50)]
    for a in cases:
        before = copy.deepcopy(a)
        smith_normal_form(a)
        assert a == before


def test_homology_basis_is_the_one_the_reference_factors_give():
    """homology_finite reads each H1 chain off a sparse column of V, entries
    sorted by row; reading the oracle's dense V column by column past D's
    nonzero diagonal gives the same chains, coefficient order included."""
    rng = random.Random(4242)
    shapes = {"disconnected": 0, "parallel": 0, "cycles": 0}
    for _ in range(300):
        g = random_multigraph(rng)
        got = [list(b.coeffs.items()) for b in homology_finite(g).h1_basis]
        expected = []
        if g.edges:
            _, d, v = reference_smith_normal_form(boundary_matrix(g))
            rank = sum(1 for i, row in enumerate(d) if i < len(row) and row[i])
            expected = [
                [(e.id, row[j]) for e, row in zip(g.edges, v) if row[j]]
                for j in range(rank, len(g.edges))
            ]
        assert got == expected
        ends = [(e.source, e.target) for e in g.edges]
        _, up = spanning_forest(g)
        shapes["disconnected"] += sum(e is None for e in up.values()) > 1
        shapes["parallel"] += len(set(ends)) < len(ends)
        shapes["cycles"] += len(got) > 1
    assert all(count >= 10 for count in shapes.values()), shapes


def test_factors_of_a_long_path_store_only_the_nonzeros_touched():
    """A path of 1,000 vertices, edge i from i to i + 1.  D stores its E unit pivots and V, which
    no column operation touches, its E diagonal ones, where the dense V
    alone held E^2 cells.  Each row operation adds the row of U above to
    the next, so U is the full lower triangle: its V(V + 1)/2 stored
    entries are exactly its nonzeros, and homology discards it."""
    n = 1000
    path = OrientedGraph(range(n), [Edge(i, i, i + 1) for i in range(n - 1)])
    u, d, v = smith_normal_form(boundary_matrix(path))
    assert all(x for rows in (u, d, v) for row in rows for x in row.values())
    assert d == [{i: 1} for i in range(n - 1)] + [{}]
    assert v == [{j: 1} for j in range(n - 1)]
    assert [sorted(row) for row in u] == [list(range(i + 1)) for i in range(n)]
