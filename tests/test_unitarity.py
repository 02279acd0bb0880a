"""Differential tests of the signed-permutation unitarity check and of the
partial-monomial block rank.

The oracle is the product-based check: it builds D*D, DD* and s(D + D*)
from the defect and compares a*a and aa* with the identity on every row and
column through the region.  Each named case below also pins one branch of
the signed-permutation reading, so that dropping any one of its tests
changes a verdict."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.intlinalg import rank as matrix_rank
from coarsek.operators import (
    BlockIndex,
    OperatorError,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    block_key,
    block_rank,
    is_unitary_on,
)

DOMAIN = ProductBasis(range(3), (Ordinal(1), Ordinal(2)))
BASIS = sorted(DOMAIN, key=block_key)
A, B, C, D, E, F = BASIS  # (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)


# ---------------------------------------------------------------------------
# the product-based oracle


def _gram(delta: dict, contract_rows: bool) -> dict:
    """D*D (contracting rows) or DD* (contracting columns) as an entry dict."""
    groups: dict = {}
    for (r, c), v in delta.items():
        if contract_rows:
            groups.setdefault(r, []).append((c, v))
        else:
            groups.setdefault(c, []).append((r, v))
    prod: dict = {}
    for vals in groups.values():
        for i1, v1 in vals:
            for i2, v2 in vals:
                prod[(i1, i2)] = prod.get((i1, i2), 0) + v1 * v2
    return prod


def _is_identity_on(base: int, extra: dict, region) -> bool:
    """base*1 + extra equals the identity on every row and column through
    region."""
    covered = 0
    for (r, c), v in extra.items():
        if v and (r in region or c in region):
            if r != c or base + v != 1:
                return False
            covered += 1
    return base == 1 or covered == len(region)


def product_is_unitary_on(a: SparseBlockOperator, interior=None) -> bool:
    """a*a - 1 = (s^2 - 1)*1 + s(D + D*) + D*D, and aa* - 1 the same with
    DD*, checked on the rows and columns through the region."""
    region = a.domain if interior is None else interior
    s = a.scalar
    linear: dict = {}
    if s:
        for (r, c), v in a.delta.items():
            linear[(r, c)] = linear.get((r, c), 0) + s * v
            linear[(c, r)] = linear.get((c, r), 0) + s * v
    for contract_rows in (True, False):
        extra = _gram(a.delta, contract_rows)
        for key, v in linear.items():
            extra[key] = extra.get(key, 0) + v
        if not _is_identity_on(s * s, extra, region):
            return False
    return True


def assert_verdict(a: SparseBlockOperator, region, expected: bool):
    assert product_is_unitary_on(a, region) is expected
    assert is_unitary_on(a, region) is expected


# ---------------------------------------------------------------------------
# random near-unitaries


REGIONS = {
    "None": None,
    "ProductBasis": DOMAIN,
    "ProductBasis of one vertex": ProductBasis((1,), DOMAIN.slots),
    "frozenset": frozenset(BASIS[::2]),
    "empty set": frozenset(),
}


@st.composite
def near_unitaries(draw):
    """A signed permutation with some columns left to the scalar, stored
    against a scalar of -2..2 over a product or an explicit basis, then a
    few entries overwritten with 0 (cancelling), -s on the diagonal
    (cancelling the scalar) or one of +-1, +-2."""
    s = draw(st.integers(-2, 2))
    perm = draw(st.permutations(BASIS))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=6, max_size=6))
    kept = draw(st.sets(st.sampled_from(BASIS)))
    cells = {}
    for c, r, sign in zip(BASIS, perm, signs):
        if c in kept:
            cells[(c, c)] = cells.get((c, c), 0) - s
            cells[(r, c)] = cells.get((r, c), 0) + sign
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.sampled_from(BASIS)), draw(st.sampled_from(BASIS))
        cells[(r, c)] = draw(
            st.sampled_from((0, -s, -2, -1, 1, 2) if r == c else (0, -2, -1, 1, 2))
        )
    domain = draw(st.sampled_from((DOMAIN, frozenset(BASIS))))
    region = draw(
        st.one_of(
            st.sampled_from(list(REGIONS.values())),
            st.frozensets(st.sampled_from(BASIS)),
        )
    )
    return SparseBlockOperator(domain, cells, s), region


@settings(max_examples=600, deadline=None)
@given(near_unitaries())
def test_signed_permutation_check_agrees_with_product_check(case):
    a, region = case
    assert is_unitary_on(a, region) == product_is_unitary_on(a, region)


def test_random_operators_agree_with_product_check():
    rng = random.Random(7)
    unitary = 0
    for _ in range(3000):
        s = rng.randint(-2, 2)
        cells = {
            (rng.choice(BASIS), rng.choice(BASIS)): rng.choice((-2, -1, 1, 2))
            for _ in range(rng.randint(0, 8))
        }
        a = SparseBlockOperator(DOMAIN, cells, s)
        for region in REGIONS.values():
            verdict = is_unitary_on(a, region)
            assert verdict == product_is_unitary_on(a, region)
            unitary += verdict
    assert unitary  # the empty region at least


# ---------------------------------------------------------------------------
# named cases: each pins one test of the signed-permutation reading


def swap(x, y, s=1, sign=1):
    """s*1 plus a defect turning columns x and y into sign*e_y, sign*e_x."""
    return SparseBlockOperator(
        DOMAIN, {(x, x): -s, (y, y): -s, (y, x): sign, (x, y): sign}, s
    )


@pytest.mark.parametrize("s", [-1, 1])
@pytest.mark.parametrize("region", list(REGIONS.values()), ids=list(REGIONS))
def test_signed_swaps_are_unitary(s, region):
    assert_verdict(swap(A, D, s, sign=-1), region, True)
    assert_verdict(SparseBlockOperator(DOMAIN, {}, s), region, True)


@pytest.mark.parametrize("region", list(REGIONS.values()), ids=list(REGIONS))
def test_scalar_zero_signed_permutation_is_unitary(region):
    perm = dict(zip(BASIS, BASIS[1:] + BASIS[:1]))
    a = SparseBlockOperator(DOMAIN, {(img, b): -1 for b, img in perm.items()}, 0)
    assert_verdict(a, region, True)


@pytest.mark.parametrize("s", [-2, 0, 2])
def test_untouched_region_vector_fails_unless_scalar_is_a_sign(s):
    # every line but those through F is a signed swap; F holds the scalar
    # alone, so only the untouched-line guard sees it
    cells = {}
    for x, y in ((A, B), (C, D)):
        cells.update({(x, x): -s, (y, y): -s, (x, y): 1, (y, x): 1})
    cells.update({(E, E): 1 - s})
    a = SparseBlockOperator(DOMAIN, cells, s)
    assert_verdict(a, None, False)
    assert_verdict(a, frozenset({F}), False)
    assert_verdict(a, frozenset({A, E}), True)
    assert_verdict(SparseBlockOperator(DOMAIN, {}, s), frozenset({A}), False)
    assert_verdict(SparseBlockOperator(DOMAIN, {}, s), frozenset(), True)


def test_column_with_two_entries_fails_the_one_entry_test():
    # column A holds 1 at rows B and C, each of which holds nothing else;
    # rows B and C lie outside the region, so only column A can fail
    cells = {(A, A): -1, (B, A): 1, (C, A): 1, (B, B): -1, (C, C): -1}
    # row A is e_D*, so that row A passes on its own
    cells.update({(A, D): 1, (D, D): -1})
    a = SparseBlockOperator(DOMAIN, cells, 1)
    assert_verdict(a, frozenset({A}), False)
    # on the row side: row A holds 1 at columns B and C
    assert_verdict(a.adjoint(), frozenset({A}), False)


def test_entry_of_two_fails_the_sign_test():
    cells = {(A, A): -1, (B, A): 2, (B, B): -1, (A, D): 1, (D, D): -1}
    a = SparseBlockOperator(DOMAIN, cells, 1)
    assert_verdict(a, frozenset({A}), False)
    assert_verdict(a.adjoint(), frozenset({A}), False)
    # over scalar -1 a diagonal 2 adds up to 1, a diagonal 3 to 2
    assert_verdict(SparseBlockOperator(DOMAIN, {(A, A): 2}, -1), None, True)
    assert_verdict(SparseBlockOperator(DOMAIN, {(A, A): 3}, -1), None, False)


def test_unit_column_whose_row_holds_a_second_entry_fails_the_partner_test():
    # column A is e_B and row A is e_D*, both fine alone; row B also holds
    # an entry at column C, and only the partner test reads row B
    a = SparseBlockOperator(DOMAIN, {(B, A): 1, (B, C): 1, (A, D): 1}, 0)
    assert_verdict(a, frozenset({A}), False)
    assert_verdict(a.adjoint(), frozenset({A}), False)


def test_two_columns_sent_into_one_row():
    # A and C both go to B; B's own column goes nowhere
    a = SparseBlockOperator(
        DOMAIN, {(A, A): -1, (C, C): -1, (B, B): -1, (B, A): 1, (B, C): 1}, 1
    )
    for region in (None, frozenset({A}), frozenset({C}), frozenset({B})):
        assert_verdict(a, region, False)
    assert_verdict(a, frozenset({E, F}), True)


def test_cancelling_entries():
    # a defect entry that cancels the scalar leaves a zero diagonal
    a = SparseBlockOperator(DOMAIN, {(A, A): -1}, 1)
    assert_verdict(a, frozenset({A}), False)
    assert_verdict(a, frozenset({B}), True)
    # a swap stored over scalar 2: the diagonal cancels to 0 exactly
    assert_verdict(swap(A, B, 2), frozenset({A, B}), True)
    assert_verdict(swap(A, B, 2), frozenset({A, C}), False)


def test_region_outside_the_basis_is_refused():
    with pytest.raises(OperatorError):
        is_unitary_on(SparseBlockOperator.identity(DOMAIN), {BlockIndex(9, Ordinal(1))})


# ---------------------------------------------------------------------------
# block rank: partial monomial blocks count their entries


@st.composite
def vertex_blocks(draw):
    """An operator whose (0, y) block is a partial monomial matrix, now and
    then with one extra entry, under a scalar of -2..2."""
    slots = tuple(Ordinal(i) for i in range(4))
    domain = ProductBasis(range(2), slots)
    y = draw(st.sampled_from((0, 1)))
    s = draw(st.integers(-2, 2))
    rows = draw(st.permutations(slots))
    used = draw(st.sets(st.sampled_from(slots)))
    cells = {}
    for cs, rs in zip(slots, rows):
        if cs in used:
            cells[(BlockIndex(0, rs), BlockIndex(y, cs))] = draw(
                st.sampled_from((-2, -1, 1, 2, 3, -s))
            )
    if draw(st.booleans()):
        extra = (BlockIndex(0, draw(st.sampled_from(slots))), BlockIndex(y, draw(st.sampled_from(slots))))
        cells[extra] = draw(st.sampled_from((-1, 1, 2, -s)))
    a = SparseBlockOperator(domain, cells, s)
    return a, y, slots


@settings(max_examples=300, deadline=None)
@given(vertex_blocks())
def test_block_rank_matches_elimination(case):
    a, y, slots = case
    block = [
        [a.entry(BlockIndex(0, rs), BlockIndex(y, cs)) for cs in slots] for rs in slots
    ]
    assert block_rank(a, 0, y) == matrix_rank(block)
