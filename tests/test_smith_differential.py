"""Smith normal form against the implementation it replaced.

The oracle is the earlier, general ``smith_normal_form``, kept verbatim as
``helpers.reference_smith_normal_form``: dense rows, a global pivot search
over the whole tail block, remainders promoted to pivot, and a
divisor-chain scan after every pivot.  The current function takes only
matrices whose elimination meets a unit pivot at every step, as every
totally unimodular (TU) matrix does: it takes sparse rows, makes one sweep
per +-1 pivot, records no U and returns D and V as stored.  On TU input,
read densely through ``dense_factors``, they must equal the oracle's D and V
entry for entry.  The inputs are incidence matrices of random multigraphs,
their transposes, and copies with columns permuted and sign-flipped.  A
matrix that runs out of unit pivots must be refused with ValueError naming
the step, and the oracle's diagonal must start with one 1 per step before.
"""

import copy
import math
import random
import re
import time

import pytest

from coarsek.chains import homology_finite, spanning_forest
from coarsek.graphs import Edge, OrientedGraph
from coarsek.intlinalg import Matrix, smith_normal_form
from helpers import (
    TU_VARIANTS,
    boundary_matrix,
    connected_graph,
    dense_factors,
    random_multigraph,
    reference_smith_normal_form,
    sparse_rows,
    totally_unimodular_matrix,
)


def package_factors(a: Matrix) -> tuple[Matrix, Matrix]:
    """The package's (D, V) of the dense a, read densely."""
    return dense_factors(smith_normal_form(*sparse_rows(a)))


def reference_factors(a: Matrix) -> tuple[Matrix, Matrix]:
    """The oracle's D and V of a."""
    return reference_smith_normal_form(a)[1:]


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


@pytest.mark.parametrize("variant", sorted(TU_VARIANTS))
def test_totally_unimodular_matrices(variant):
    """D and V equal the oracle's entry for entry on 250 TU matrices of each
    variant, a third or more of them with parallel edges."""
    rng = random.Random(f"tu-{variant}")
    parallel = 0
    for _ in range(250):
        g = random_multigraph(rng)
        ends = [(e.source, e.target) for e in g.edges]
        parallel += len(set(ends)) < len(ends)
        mat = TU_VARIANTS[variant](boundary_matrix(g), rng)
        assert package_factors(mat) == reference_factors(mat)
    assert parallel >= 80, parallel


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


def refusal_step(a: Matrix):
    """The step at which smith_normal_form refuses a, or None if it does
    not; a refusal must be a ValueError that names its step."""
    try:
        smith_normal_form(*sparse_rows(a))
    except ValueError as err:
        found = re.search(r"no unit pivot at step (\d+)", str(err))
        assert found, err
        return int(found[1])
    return None


def test_small_general_integer_matrices():
    """On a general integer matrix the function either meets a unit pivot at
    every step, and then returns the oracle's D and V, or refuses at the
    first step without one.  The steps before a refusal took unit pivots,
    so the oracle's diagonal starts with that many ones; a nonzero matrix
    whose entries share a factor has no unit at all and is refused at once."""
    rng = random.Random(99)
    refused = factored = 0
    for _ in range(200):
        a = random_integer_matrix(rng)
        step = refusal_step(a)
        d, v = reference_factors(a)
        if step is None:
            factored += 1
            assert package_factors(a) == (d, v)
            continue
        refused += 1
        assert [d[i][i] for i in range(step)] == [1] * step
        if math.gcd(*(x for row in a for x in row)) > 1:
            assert step == 0
    assert refused >= 100 and factored >= 10, (refused, factored)


def test_the_matrix_that_blew_up_the_general_form_is_refused_at_once():
    """The general form took 3-4 s on this matrix and returned U and V with
    entries of about 209,000 digits, for a diagonal of 1, 1, 1, 5, 30,
    15279630.  After one unit pivot its remaining block holds no +-1."""
    a = [
        [46, 45, 1, -15, -30, 16],
        [15, -20, -5, 25, 5, -24],
        [-25, 25, 15, 20, 41, -20],
        [10, -5, -15, -5, 25, 46],
        [15, -20, 30, 45, 30, -20],
        [-35, 40, -10, 25, 35, -44],
    ]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no unit pivot at step 1"):
        smith_normal_form(*sparse_rows(a))
    assert time.perf_counter() - start < 0.5


# m = 0 and n = 0 (also [[]]), a zero matrix and [[-1]] are factored; the
# rest have a step without a unit pivot and are refused there: 1 x 1 [[5]];
# diag(2, 3) and diag(-2, 3), whose general Smith form diag(1, 6) needs the
# divisor-chain row drag; [[4, 3], [-2, -2]], a zero quotient in a column
# operation; the 3 x 3 case after it, which takes one unit pivot and then
# has none; a negative non-unit pivot; a 3 x 3 matrix with torsion
FIXED_SMALL_MATRICES = [
    ([], None),
    ([[], []], None),
    ([[0, 0], [0, 0]], None),
    ([[5]], 0),
    ([[-1]], None),
    ([[2, 0], [0, 3]], 0),
    ([[]], None),
    ([[-2, 0], [0, 3]], 0),
    ([[4, 3], [-2, -2]], 0),
    ([[5, 6, 3], [1, -4, -1], [-5, -6, -4]], 1),
    ([[-4, 6], [6, -4]], 0),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 0),
]


@pytest.mark.parametrize(
    "a, refused_at",
    FIXED_SMALL_MATRICES,
    ids=[f"a{i}" for i in range(len(FIXED_SMALL_MATRICES))],
)
def test_fixed_small_matrices(a, refused_at):
    assert refusal_step(a) == refused_at
    if refused_at is None:
        assert package_factors(a) == reference_factors(a)


def test_the_input_matrix_is_left_unchanged():
    rng = random.Random(5)
    cases = [totally_unimodular_matrix(rng, v) for v in sorted(TU_VARIANTS) for _ in range(40)]
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
