import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.intlinalg import diagonal_of, rank, smith_normal_form
from helpers import (
    dense_factors,
    determinant,
    identity_matrix,
    kernel_basis,
    mat_mul,
    reference_smith_normal_form,
    sparse_rows,
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
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        factors = smith_normal_form(*sparse_rows(a))
        u, d, v = reference_smith_normal_form(a)
        # the package keeps no U: its D and V are the reference's, whose U
        # completes the factorisation
        assert dense_factors(factors) == (d, v)
        assert mat_mul(mat_mul(u, a), v) == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = diagonal_of(factors[0])
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
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n, bound=4)
        basis = kernel_basis(a)
        assert len(basis) == n - rank(a)
        for vec in basis:
            assert all(
                sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(m)
            )
        if basis:
            assert rank([list(col) for col in zip(*basis)]) == len(basis)


def test_known_smith_forms():
    # frozen from an independent computer-algebra run
    d, _ = smith_normal_form(*sparse_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    assert diagonal_of(d) == [2, 6, 12]
    d, _ = smith_normal_form(*sparse_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert diagonal_of(d) == [2, 2, 156]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_snf_transform_identity_property(a):
    u, d, v = reference_smith_normal_form(a)
    assert dense_factors(smith_normal_form(*sparse_rows(a))) == (d, v)
    assert mat_mul(mat_mul(u, a), v) == d
