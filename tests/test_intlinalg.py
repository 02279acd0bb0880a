import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.intlinalg import rank, smith_normal_form
from helpers import (
    TU_VARIANTS,
    dense_factors,
    determinant,
    identity_matrix,
    kernel_basis,
    mat_mul,
    reference_smith_normal_form,
    sparse_rows,
    totally_unimodular_matrix,
)


def random_matrix(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_identity_and_mul():
    a = [[1, 2], [3, 4]]
    assert mat_mul(identity_matrix(2), a) == a
    assert mat_mul(a, identity_matrix(2)) == a


def naive_rank_over_q(a):
    # independent oracle: elimination with Fractions
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in a]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_against_fraction_elimination():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        assert rank(a) == naive_rank_over_q(a)


def test_smith_normal_form_properties():
    # totally unimodular inputs, the only ones smith_normal_form takes
    rng = random.Random(11)
    variants = sorted(TU_VARIANTS)
    for k in range(60):
        a = totally_unimodular_matrix(rng, variants[k % len(variants)])
        factors = smith_normal_form(*sparse_rows(a))
        u, d, v = reference_smith_normal_form(a)
        # the package keeps no U: its D and V are the reference's, whose U
        # completes the factorisation
        assert dense_factors(factors) == (d, v)
        assert mat_mul(mat_mul(u, a), v) == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = [row.get(i, 0) for i, row in enumerate(factors[0])]
        assert diag == [row[i] if i < len(row) else 0 for i, row in enumerate(d)]
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for small, big in zip(nonzero, nonzero[1:]):
            assert big % small == 0
        # nonzero diagonal entries come first
        seen_zero = False
        for x in diag:
            if x == 0:
                seen_zero = True
            else:
                assert not seen_zero


def test_kernel_basis_is_a_kernel_lattice_basis():
    # general matrices take the reference's factors, totally unimodular
    # ones the package's
    rng = random.Random(23)
    cases = [random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), bound=4) for _ in range(40)]
    cases += [totally_unimodular_matrix(rng, v) for v in sorted(TU_VARIANTS) for _ in range(15)]
    for a in cases:
        m = len(a)
        n = len(a[0]) if m else 0
        basis = kernel_basis(a)
        assert len(basis) == n - rank(a)
        for vec in basis:
            assert all(
                sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(m)
            )
        if basis:
            assert rank([list(col) for col in zip(*basis)]) == len(basis)


def test_known_smith_forms():
    # diagonals frozen from an independent computer-algebra run; no entry is
    # a unit, so the package refuses both at the first step
    for a, diagonal in [
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156]),
    ]:
        _, d, _ = reference_smith_normal_form(a)
        assert [row[i] for i, row in enumerate(d)] == diagonal
        with pytest.raises(ValueError, match="no unit pivot at step 0"):
            smith_normal_form(*sparse_rows(a))


@st.composite
def signed_incidence_matrices(draw):
    """2 to 4 vertices and 3 edges, parallel ones allowed, each column
    possibly negated: totally unimodular, 2 to 4 rows of 3 entries."""
    m = draw(st.integers(2, 4))
    a = [[0] * 3 for _ in range(m)]
    for j in range(3):
        s, t = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        sign = draw(st.sampled_from((-1, 1)))
        a[t][j], a[s][j] = sign, -sign
    return a


@settings(max_examples=60, deadline=None)
@given(signed_incidence_matrices())
def test_snf_transform_identity_property(a):
    u, d, v = reference_smith_normal_form(a)
    assert dense_factors(smith_normal_form(*sparse_rows(a))) == (d, v)
    assert mat_mul(mat_mul(u, a), v) == d
