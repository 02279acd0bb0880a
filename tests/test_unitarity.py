"""Differential tests of the partial-permutation unitarity check and of the
block rank of u - 1.

The oracle is the product-based check: it builds a*a and aa* from the
materialised entries and compares them with the identity on every row and
column through the region.  Each named case below also pins one branch of
the partial-permutation reading (a zero column, an empty row), or one
refusal of the constructor that keeps every operator a partial
permutation."""

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
    is_unitary_on,
)

from helpers import block_rank

DOMAIN = ProductBasis(range(3), (Ordinal(1), Ordinal(2)))
BASIS = sorted(DOMAIN, key=block_key)
A, B, C, D, E, F = BASIS  # (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)


# ---------------------------------------------------------------------------
# the product-based oracle


def _gram(entries: dict, contract_rows: bool) -> dict:
    """a*a (contracting rows) or aa* (contracting columns) as an entry dict."""
    groups: dict = {}
    for (r, c), v in entries.items():
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


def product_is_unitary_on(a: SparseBlockOperator, interior=None) -> bool:
    """a*a = aa* = 1 on every row and column through the region, from the
    dense entries."""
    region = a.domain if interior is None else interior
    for contract_rows in (True, False):
        prod = _gram(a.entries, contract_rows)
        if any(prod.get((b, b), 0) != 1 for b in region):
            return False
        for (i1, i2), v in prod.items():
            if v and i1 != i2 and (i1 in region or i2 in region):
                return False
    return True


def assert_verdict(a: SparseBlockOperator, region, expected: bool):
    assert product_is_unitary_on(a, region) is expected
    assert is_unitary_on(a, region) is expected


# ---------------------------------------------------------------------------
# random partial permutations


REGIONS = {
    "None": None,
    "ProductBasis": DOMAIN,
    "ProductBasis of one vertex": ProductBasis((1,), DOMAIN.slots),
    "frozenset": frozenset(BASIS[::2]),
    "empty set": frozenset(),
}


@st.composite
def partial_permutations(draw, basis=BASIS):
    """A partial permutation of basis: with scalar 0 a partial injection,
    with scalar 1 a permutation of the moved columns with some of them
    sent to zero."""
    scalar = draw(st.integers(0, 1))
    moved = draw(st.lists(st.sampled_from(basis), unique=True))
    rows = draw(st.permutations(moved if scalar else basis))
    zero = draw(st.sets(st.sampled_from(moved))) if moved else set()
    moves = {c: None if c in zero else r for c, r in zip(moved, rows)}
    return moves, scalar


@st.composite
def near_unitaries(draw):
    """A partial permutation over a product or an explicit basis, with a
    region to check it on."""
    moves, scalar = draw(partial_permutations())
    domain = draw(st.sampled_from((DOMAIN, frozenset(BASIS))))
    region = draw(
        st.one_of(
            st.sampled_from(list(REGIONS.values())),
            st.frozensets(st.sampled_from(BASIS)),
        )
    )
    return SparseBlockOperator(domain, moves, scalar), region


@settings(max_examples=600, deadline=None)
@given(near_unitaries())
def test_signed_permutation_check_agrees_with_product_check(case):
    a, region = case
    assert is_unitary_on(a, region) == product_is_unitary_on(a, region)


def test_random_operators_agree_with_product_check():
    rng = random.Random(7)
    unitary = 0
    for _ in range(3000):
        s = rng.randint(0, 1)
        moved = rng.sample(BASIS, rng.randint(0, len(BASIS)))
        rows = rng.sample(moved if s else BASIS, len(moved))
        moves = {c: r if rng.random() < 0.8 else None for c, r in zip(moved, rows)}
        a = SparseBlockOperator(DOMAIN, moves, s)
        for region in REGIONS.values():
            verdict = is_unitary_on(a, region)
            assert verdict == product_is_unitary_on(a, region)
            unitary += verdict
    assert unitary  # the empty region at least


# ---------------------------------------------------------------------------
# named cases: each pins one test of the partial-permutation reading


def swap(x, y, s=1):
    """Columns x and y exchanged, every other column s*e_b."""
    return SparseBlockOperator(DOMAIN, {x: y, y: x}, s)


@pytest.mark.parametrize("s", [-1, 1])
@pytest.mark.parametrize("region", list(REGIONS.values()), ids=list(REGIONS))
def test_signed_swaps_are_unitary(s, region):
    # signs left with the general integer arithmetic: the scalar -1 is
    # refused, and the swap itself is unitary
    if s < 0:
        with pytest.raises(OperatorError, match="must be the integer 0 or 1"):
            SparseBlockOperator(DOMAIN, {}, s)
    assert_verdict(swap(A, D), region, True)
    assert_verdict(SparseBlockOperator(DOMAIN, {}, 1), region, True)


@pytest.mark.parametrize("region", list(REGIONS.values()), ids=list(REGIONS))
def test_scalar_zero_signed_permutation_is_unitary(region):
    perm = dict(zip(BASIS, BASIS[1:] + BASIS[:1]))
    a = SparseBlockOperator(DOMAIN, perm, 0)
    assert_verdict(a, region, True)


@pytest.mark.parametrize("s", [-2, 0, 2])
def test_untouched_region_vector_fails_unless_scalar_is_a_sign(s):
    if s:
        with pytest.raises(OperatorError, match="must be the integer 0 or 1"):
            SparseBlockOperator(DOMAIN, {}, s)
        return
    # every line but those through F is a swap or fixed; F holds the
    # scalar 0 alone, so only the count of unmoved region vectors sees it
    a = SparseBlockOperator(DOMAIN, {A: B, B: A, C: D, D: C, E: E}, s)
    assert_verdict(a, None, False)
    assert_verdict(a, frozenset({F}), False)
    assert_verdict(a, frozenset({A, E}), True)
    assert_verdict(SparseBlockOperator(DOMAIN, {}, s), frozenset({A}), False)
    assert_verdict(SparseBlockOperator(DOMAIN, {}, s), frozenset(), True)


def test_column_with_two_entries_fails_the_one_entry_test():
    # a column holds at most one entry, so the one-entry test asks only
    # that column A is not zero; row A is e_D*, so that row A passes alone
    a = SparseBlockOperator(DOMAIN, {A: None, D: A}, 1)
    assert_verdict(a, frozenset({A}), False)
    # on the row side: row A of the adjoint is empty
    assert_verdict(a.adjoint(), frozenset({A}), False)


def test_entry_of_two_fails_the_sign_test():
    # every entry is 1: a value in place of a row and a scalar of -1 are
    # refused, so no entry can be 2 or -1
    for moves, s in (({A: 2}, 0), ({A: 2}, 1), ({A: -1}, 0), ({}, -1)):
        with pytest.raises(OperatorError):
            SparseBlockOperator(DOMAIN, moves, s)
    a = SparseBlockOperator(DOMAIN, {A: B, B: None, D: A}, 1)
    assert {v for v in a.entries.values()} == {1}
    assert a.entry(B, A) == 1 and a.entry(A, A) == 0 and a.entry(B, B) == 0


def test_unit_column_whose_row_holds_a_second_entry_fails_the_partner_test():
    # a row holds at most one entry: a second column sent into row B is
    # refused, so column A being e_B settles row B
    with pytest.raises(OperatorError, match="two columns are sent into row"):
        SparseBlockOperator(DOMAIN, {A: B, C: B, D: A}, 0)
    a = SparseBlockOperator(DOMAIN, {A: B, D: A}, 0)
    assert_verdict(a, frozenset({A}), True)
    # column B is zero
    assert_verdict(a, frozenset({B}), False)
    assert_verdict(a.adjoint(), frozenset({A}), True)


def test_two_columns_sent_into_one_row():
    # A and C both go to B; B's own column goes nowhere
    for s in (0, 1):
        with pytest.raises(OperatorError, match="two columns are sent into row"):
            SparseBlockOperator(DOMAIN, {A: B, C: B, B: None}, s)
    # with scalar 1 a row outside the moved columns holds its fixed vector
    with pytest.raises(OperatorError, match="of a fixed vector"):
        SparseBlockOperator(DOMAIN, {A: B}, 1)
    # B's row empty and A's column zero: only the rest is unitary
    a = SparseBlockOperator(DOMAIN, {A: None, C: A, B: C}, 1)
    for region in (None, frozenset({A}), frozenset({B})):
        assert_verdict(a, region, False)
    assert_verdict(a, frozenset({C, E, F}), True)


def test_cancelling_entries():
    # a column sent to zero leaves an empty diagonal
    a = SparseBlockOperator(DOMAIN, {A: None}, 1)
    assert_verdict(a, frozenset({A}), False)
    assert_verdict(a, frozenset({B}), True)
    # a swap over scalar 0: every other column is zero
    assert_verdict(swap(A, B, 0), frozenset({A, B}), True)
    assert_verdict(swap(A, B, 0), frozenset({A, C}), False)


def test_region_outside_the_basis_is_refused():
    with pytest.raises(OperatorError):
        is_unitary_on(SparseBlockOperator.identity(DOMAIN), {BlockIndex(9, Ordinal(1))})


# ---------------------------------------------------------------------------
# block rank of u - 1


SLOTS = tuple(Ordinal(i) for i in range(4))
BLOCK_DOMAIN = ProductBasis(range(2), SLOTS)


@st.composite
def vertex_blocks(draw):
    """A partial permutation over two vertices of four slots each, and a
    vertex y: the (0, y) block of u - 1 is checked."""
    moves, scalar = draw(partial_permutations(sorted(BLOCK_DOMAIN, key=block_key)))
    return SparseBlockOperator(BLOCK_DOMAIN, moves, scalar), draw(st.sampled_from((0, 1)))


@settings(max_examples=300, deadline=None)
@given(vertex_blocks())
def test_block_rank_matches_elimination(case):
    a, y = case
    block = [
        [
            a.entry(BlockIndex(0, rs), BlockIndex(y, cs)) - (y == 0 and rs == cs)
            for cs in SLOTS
        ]
        for rs in SLOTS
    ]
    assert block_rank(a, 0, y) == matrix_rank(block)
