import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.k1_map import line_cycle_unitary
from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    MarginError,
    OperatorError,
    Ordinal,
    SparseBlockOperator,
    Window,
    bilateral_shift,
    block_key,
    dump_lines,
    index_pairing,
    is_unitary_on,
    operator_to_json,
    propagation,
)

from helpers import block_rank

DOMAIN = frozenset(
    BlockIndex(x, Ordinal(i)) for x in range(4) for i in (1, 2)
)


def op_from(moves, scalar=0):
    return SparseBlockOperator(DOMAIN, moves, scalar)


def random_operator(rng, density=0.3):
    """A random partial permutation: with scalar 0 a partial injection of
    the basis, with scalar 1 a permutation of the moved columns with some
    of them sent to zero."""
    basis = sorted(DOMAIN, key=block_key)
    moved = [b for b in basis if rng.random() < density * 2]
    scalar = rng.randint(0, 1)
    rows = list(moved if scalar else basis)
    rng.shuffle(rows)
    return op_from(
        {c: None if rng.random() < density else r for c, r in zip(moved, rows)}, scalar
    )


def test_identity_composition():
    one = SparseBlockOperator.identity(DOMAIN)
    t = random_operator(random.Random(0))
    assert one.compose(t) == t
    assert t.compose(one) == t


def test_permutation_times_adjoint_is_identity_on_support():
    perm = {b: BlockIndex((b.vertex + 1) % 4, b.slot) for b in DOMAIN}
    p = SparseBlockOperator(DOMAIN, perm)
    assert p.compose(p.adjoint()) == SparseBlockOperator.identity(DOMAIN)
    assert is_unitary_on(p)


def test_two_shift_tracks_compose_to_double_shift():
    w = Window(radius=3, margin=2)
    s = bilateral_shift(w)
    ss = s.compose(s)
    expected = {
        (BlockIndex(x + 2, Ordinal(1)), BlockIndex(x, Ordinal(1))): 1
        for x in range(w.lo, w.hi - 1)
    }
    assert ss.entries == expected


def test_adjoint_examples():
    diag = op_from({b: b for b in list(sorted(DOMAIN, key=str))[:3]})
    assert diag.adjoint() == diag
    r, c = sorted(DOMAIN, key=str)[:2]
    single = op_from({c: r})
    assert single.adjoint().entries == {(c, r): 1}
    # with scalar 1 a moved column that nothing lands on has an empty row
    zeroed = op_from({c: None}, 1)
    assert zeroed.adjoint() == zeroed
    shifted = op_from({r: c, c: None}, 1)
    assert shifted.adjoint().moves == {c: r, r: None}
    t = random_operator(random.Random(1))
    assert t.adjoint().adjoint() == t


def test_propagation_examples():
    diag = op_from({b: b for b in DOMAIN})
    assert propagation(diag) == 0
    assert propagation(op_from({BlockIndex(3, Ordinal(1)): None}, 1)) == 0
    w = Window(radius=3, margin=1)
    assert propagation(bilateral_shift(w)) == 1


def test_block_rank():
    # block_rank reads the blocks of a - 1
    assert block_rank(op_from({}), 0, 1) == 0
    assert block_rank(op_from({}), 0, 0) == 2
    assert block_rank(SparseBlockOperator.identity(DOMAIN), 0, 0) == 0
    r1 = BlockIndex(0, Ordinal(1))
    r2 = BlockIndex(0, Ordinal(2))
    c1 = BlockIndex(1, Ordinal(1))
    c2 = BlockIndex(1, Ordinal(2))
    t = op_from({c1: r1, c2: r2, r1: c1, r2: c2}, 1)
    assert block_rank(t, 0, 1) == block_rank(t, 1, 0) == 2
    assert block_rank(t, 0, 0) == block_rank(t, 1, 1) == 2
    assert block_rank(op_from({c1: r2, r1: c2, r2: c1, c2: r1}, 1), 0, 1) == 2
    # a projection minus 1 keeps the slots it does not project onto
    proj = op_from({r1: r1})
    assert block_rank(proj, 0, 0) == 1
    # a swap inside a vertex is one closed cycle of two moved slots
    assert block_rank(op_from({r1: r2, r2: r1}, 1), 0, 0) == 1
    assert block_rank(op_from({r1: r2, r2: None}, 1), 0, 0) == 2


def test_block_rank_of_line_defect():
    w = Window(radius=4, margin=2)
    cu = line_cycle_unitary(1, w)
    # the diagonal block at an interior vertex is one lost track vector
    assert block_rank(cu.u, 0, 0) == 1 <= 2


def test_is_unitary_examples():
    assert is_unitary_on(SparseBlockOperator.identity(DOMAIN))
    r, c = sorted(DOMAIN, key=str)[:2]
    v = op_from({c: r})  # non-square partial isometry
    assert not is_unitary_on(v)
    assert is_unitary_on(v, {c}) is False and is_unitary_on(v, set()) is True


def test_is_unitary_general_fallback_detects_non_unitary():
    r1, r2, c1, c2 = sorted(DOMAIN, key=str)[:4]
    # a shift along four vectors whose last column is zero: every column
    # but c2 is a unit vector, and row r1 is empty
    t = op_from({r1: r2, r2: c1, c1: c2, c2: None}, 1)
    assert not is_unitary_on(t)
    assert not is_unitary_on(t, {c2}) and not is_unitary_on(t, {r1})
    assert is_unitary_on(t, {r2, c1})


# ---------------------------------------------------------------------------
# algebraic property tests

small_ops = st.integers(0, 2**30)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9))
def test_compose_associative(seed1, seed2, seed3):
    a = random_operator(random.Random(seed1))
    b = random_operator(random.Random(seed2))
    c = random_operator(random.Random(seed3))
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_adjoint_antihomomorphism(seed1, seed2):
    a = random_operator(random.Random(seed1))
    b = random_operator(random.Random(seed2))
    assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())


def test_propagation_subadditive():
    rng = random.Random(12)
    for _ in range(20):
        a = random_operator(rng, density=0.2)
        b = random_operator(rng, density=0.2)
        ab = a.compose(b)
        if ab.is_zero():
            continue
        assert propagation(ab) <= propagation(a) + propagation(b)


# ---------------------------------------------------------------------------
# index pairing


def test_index_of_identity_is_zero():
    w = Window(radius=4, margin=2)
    dom = frozenset(BlockIndex(x, Ordinal(1)) for x in range(w.lo, w.hi + 1))
    assert index_pairing(SparseBlockOperator.identity(dom), w) == 0


def test_index_of_forward_shift_is_minus_one():
    # oracle fixing the global sign: P - u*Pu is minus the rank-one
    # projection at position -1
    w = Window(radius=6, margin=3)
    assert index_pairing(bilateral_shift(w), w) == -1


def test_index_additive_under_composition():
    w = Window(radius=8, margin=6)
    s = bilateral_shift(w)
    assert index_pairing(s.compose(s), w) == -2
    assert index_pairing(s.compose(s.adjoint()), w) == 0


def test_index_invariant_under_block_diagonal_conjugation():
    w = Window(radius=6, margin=4)
    slots = (Ordinal(1), Ordinal(2))
    s = bilateral_shift(w, slots)
    swap = {
        b: BlockIndex(b.vertex, Ordinal(3 - b.slot.index)) for b in s.domain
    }
    v = SparseBlockOperator(s.domain, swap)
    conj = v.adjoint().compose(s).compose(v)
    assert index_pairing(conj, w) == index_pairing(s, w) == -2


def test_index_window_stable():
    for k in (1, -2, 3):
        small = Window(radius=8, margin=4)
        big = Window(radius=16, margin=4)
        a = index_pairing(line_cycle_unitary(k, small).u, small)
        b = index_pairing(line_cycle_unitary(k, big).u, big)
        assert a == b


def test_margin_too_small_is_reported():
    w = Window(radius=6, margin=3)
    s = bilateral_shift(w)
    ss = s.compose(s)  # propagation 2 needs margin >= 4
    with pytest.raises(MarginError):
        index_pairing(ss, w)


# ---------------------------------------------------------------------------
# dumps


def test_dump_is_sorted_and_deterministic():
    domain = DOMAIN | {BlockIndex(0, CopyEdge("e", 1))}
    t = SparseBlockOperator(
        domain,
        {
            BlockIndex(0, CopyEdge("e", 1)): BlockIndex(1, Ordinal(2)),
            BlockIndex(0, Ordinal(1)): BlockIndex(0, Ordinal(1)),
        },
    )
    first, second = io.StringIO(), io.StringIO()
    dump_lines(t, first)
    dump_lines(t, second)
    assert first.getvalue() == '0\to:1\t0\to:1\t1\n1\to:2\t0\te:"e":1\t1\n'
    assert second.getvalue() == first.getvalue()


def _label_from_json(x):
    if isinstance(x, list):
        return tuple(_label_from_json(part) for part in x)
    return x


def _index_from_json(vertex, slot) -> BlockIndex:
    if "ordinal" in slot:
        return BlockIndex(_label_from_json(vertex), Ordinal(slot["ordinal"]))
    edge = CopyEdge(_label_from_json(slot["edge"]), slot["copy"])
    return BlockIndex(_label_from_json(vertex), edge)


def operator_from_json(data: dict) -> SparseBlockOperator:
    """The operator of a JSON dump, stored with scalar 0: every entry is
    one move, and a dump never holds any other value than 1."""
    domain = [_index_from_json(v, s) for v, s in data["basis"]]
    moves = {}
    for rv, rs, cv, cs, val in data["entries"]:
        assert val == 1
        moves[_index_from_json(cv, cs)] = _index_from_json(rv, rs)
    return SparseBlockOperator(domain, moves)


def test_operator_json_round_trip():
    domain = DOMAIN | {
        BlockIndex(2, CopyEdge((0, 1), 2)),
        BlockIndex(1, Ordinal(1)),
    }
    for scalar in (0, 1):
        t = SparseBlockOperator(
            domain,
            {
                BlockIndex(1, Ordinal(1)): BlockIndex(2, CopyEdge((0, 1), 2)),
                BlockIndex(2, CopyEdge((0, 1), 2)): BlockIndex(0, Ordinal(2)),
                BlockIndex(0, Ordinal(2)): None,
            },
            scalar,
        )
        buf = io.StringIO()
        operator_to_json(t, buf)
        back = operator_from_json(json.loads(buf.getvalue()))
        assert back == t


@pytest.mark.parametrize(
    "entries, scalar",
    [
        ({BlockIndex(0, Ordinal(1)): 2.7}, 0),
        ({BlockIndex(0, Ordinal(1)): True}, 0),
        ({BlockIndex(0, Ordinal(1)): 0.0}, 0),
        ({}, 1.0),
        ({}, True),
    ],
)
def test_operators_refuse_non_integer_values(entries, scalar):
    # never truncated or coerced, as the JSON readers never truncate: a
    # number is no basis vector, and the scalar is the int 0 or 1
    with pytest.raises(OperatorError, match="outside the declared basis|must be the integer"):
        SparseBlockOperator(DOMAIN, entries, scalar)
