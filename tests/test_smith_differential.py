"""Smith normal form against the implementation it replaced.

The oracle is the earlier ``smith_normal_form``, kept verbatim as
``helpers.reference_smith_normal_form``: dense rows, a global pivot search
over the whole tail block, full-height column operations, and a
divisor-chain scan after every pivot.  The current function takes sparse
rows, stores D and V sparsely, records no U, skips the work a unit pivot
makes pointless and returns the factors as stored; read densely through
``dense_factors`` they must equal the oracle's D and V for every input, so
the comparison is exact equality.  Incidence matrices of random multigraphs
(mostly unit pivots) and small general integer matrices (non-unit pivots,
torsion, the divisor-chain row drag) are both covered.
"""

import copy
import random

import pytest

from coarsek.chains import homology_finite, spanning_forest
from coarsek.graphs import Edge, OrientedGraph
from coarsek.intlinalg import Matrix, smith_normal_form
from helpers import (
    boundary_matrix,
    connected_graph,
    dense_factors,
    reference_smith_normal_form,
    sparse_rows,
)


def package_factors(a: Matrix) -> tuple[Matrix, Matrix]:
    """The package's (D, V) of the dense a, read densely."""
    return dense_factors(smith_normal_form(*sparse_rows(a)))


def reference_factors(a: Matrix) -> tuple[Matrix, Matrix]:
    """The oracle's D and V of a."""
    return reference_smith_normal_form(a)[1:]


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
        assert package_factors(mat) == reference_factors(mat)
    assert all(count >= 10 for count in shapes.values()), shapes


def test_connected_incidence_matrix_with_many_cycles():
    mat = boundary_matrix(connected_graph(40, 7))
    assert package_factors(mat) == reference_factors(mat)


def test_connected_incidence_matrix_of_benchmark_size():
    """V = 160, E = 320: the largest homology request of the benchmark."""
    mat = boundary_matrix(connected_graph(160, 160))
    assert package_factors(mat) == reference_factors(mat)


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
    assert package_factors(mat) == reference_factors(mat)


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
        d, v = package_factors(a)
        assert (d, v) == reference_factors(a)
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
    assert package_factors(a) == reference_factors(a)


def test_the_input_matrix_is_left_unchanged():
    rng = random.Random(5)
    cases = [random_integer_matrix(rng) for _ in range(50)]
    cases += [boundary_matrix(random_multigraph(rng)) for _ in range(50)]
    for a in cases:
        rows, n = sparse_rows(a)
        before = copy.deepcopy(rows)
        smith_normal_form(rows, n)
        assert rows == before


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
    alone held E^2 cells.  No U is kept, which on this path would be the
    full lower triangle."""
    n = 1000
    path = OrientedGraph(range(n), [Edge(i, i, i + 1) for i in range(n - 1)])
    d, v = smith_normal_form(*sparse_rows(boundary_matrix(path)))
    assert all(x for rows in (d, v) for row in rows for x in row.values())
    assert d == [{i: 1} for i in range(n - 1)] + [{}]
    assert v == [{j: 1} for j in range(n - 1)]
