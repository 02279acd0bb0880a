"""Differential tests: the streamed operator dumps against the materialising
reference writers they replaced.

The reference builds every nonzero entry of the matrix, sorts them all by
block_key and formats the text dump as joined lines and the JSON dump with
json.dumps(indent=1, sort_keys=True).  The streamed writers must produce the
same bytes on every operator."""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.operators import (
    BlockIndex,
    CopyEdge,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    _CHUNK,
    _fmt,
    _fmt_slot,
    _json_slot_at,
    block_key,
    dump_lines,
    operator_from_json,
    operator_to_json,
)

# ---------------------------------------------------------------------------
# reference writers


def label_json(x):
    if isinstance(x, tuple):
        return [label_json(part) for part in x]
    return x


def fmt(x) -> str:
    return json.dumps(label_json(x), separators=(",", ":"))


def fmt_slot(s) -> str:
    if isinstance(s, Ordinal):
        return f"o:{s.index}"
    return f"e:{fmt(s.edge)}:{s.copy}"


def slot_json(s):
    if isinstance(s, Ordinal):
        return {"ordinal": s.index}
    return {"edge": label_json(s.edge), "copy": s.copy}


def sorted_entries(a: SparseBlockOperator) -> list:
    return sorted(
        a.entries.items(), key=lambda kv: (block_key(kv[0][0]), block_key(kv[0][1]))
    )


def reference_text(a: SparseBlockOperator) -> str:
    lines = [
        f"{fmt(r.vertex)}\t{fmt_slot(r.slot)}\t{fmt(c.vertex)}\t{fmt_slot(c.slot)}\t{v}"
        for (r, c), v in sorted_entries(a)
    ]
    return "\n".join(lines) + "\n"


def reference_json(a: SparseBlockOperator) -> str:
    data = {
        "basis": [
            [label_json(b.vertex), slot_json(b.slot)]
            for b in sorted(a.domain, key=block_key)
        ],
        "entries": [
            [
                label_json(r.vertex),
                slot_json(r.slot),
                label_json(c.vertex),
                slot_json(c.slot),
                v,
            ]
            for (r, c), v in sorted_entries(a)
        ],
    }
    return json.dumps(data, indent=1, sort_keys=True)


def streamed(writer, a: SparseBlockOperator) -> str:
    buf = io.StringIO()
    writer(a, buf)
    return buf.getvalue()


def assert_dumps_match_the_reference(a):
    # compared as line lists: a failing diff of two long strings is very slow
    for writer, reference in (
        (dump_lines, reference_text),
        (operator_to_json, reference_json),
    ):
        got = streamed(writer, a).splitlines(keepends=True)
        assert got == reference(a).splitlines(keepends=True)


# ---------------------------------------------------------------------------
# operators with mixed labels

TEXT = st.text(alphabet='a"\\é→\n0 ', max_size=3)
LABELS = st.recursive(
    st.integers(-3, 3) | TEXT,
    lambda inner: st.lists(inner, max_size=2).map(tuple),
    max_leaves=4,
)
SLOTS = st.one_of(
    st.integers(0, 3).map(Ordinal),
    st.builds(CopyEdge, LABELS, st.integers(0, 2)),
)


@st.composite
def operators(draw):
    vertices = draw(st.lists(LABELS, unique=True, max_size=4))
    slots = draw(st.lists(SLOTS, unique=True, max_size=3))
    product = ProductBasis(vertices, slots)
    if draw(st.booleans()):
        domain = product
    else:
        domain = frozenset(b for b in product if draw(st.booleans()))
    basis = sorted(domain, key=block_key)
    scalar = draw(st.sampled_from([0, 1, 2, -1]))
    delta = {}
    if basis:
        vectors = st.sampled_from(basis)
        delta = draw(
            st.dictionaries(
                st.tuples(vectors, vectors), st.integers(-2, 2), max_size=8
            )
        )
        # diagonal entries that cancel the scalar
        for b in draw(st.lists(vectors, max_size=3)):
            delta[(b, b)] = -scalar
    return SparseBlockOperator(domain, delta, scalar)


@settings(max_examples=300, deadline=None)
@given(operators())
def test_streamed_dumps_match_the_reference_bytes(a):
    assert streamed(dump_lines, a) == reference_text(a)
    text = streamed(operator_to_json, a)
    assert text == reference_json(a)
    assert operator_from_json(json.loads(text)) == a


def test_empty_operators_dump_like_the_reference():
    single = ProductBasis((("x", ()),), (CopyEdge((1, "é"), 0),))
    for domain in (frozenset(), ProductBasis((), ()), single):
        for a in (
            SparseBlockOperator(domain),
            # the defect cancels the whole diagonal
            SparseBlockOperator(domain, {(b, b): -2 for b in domain}, 2),
        ):
            assert streamed(dump_lines, a) == reference_text(a) == "\n"
            assert streamed(operator_to_json, a) == reference_json(a)
    assert streamed(operator_to_json, SparseBlockOperator(frozenset())) == (
        '{\n "basis": [],\n "entries": []\n}'
    )


def test_large_dumps_cross_chunk_boundaries():
    domain = ProductBasis(range(-70, 70), [Ordinal(i) for i in range(1, 31)])
    x, y = BlockIndex(0, Ordinal(1)), BlockIndex(1, Ordinal(2))
    assert_dumps_match_the_reference(SparseBlockOperator.from_moves(domain, {x: y, y: x}))


def test_a_row_cancelled_between_two_rows_of_its_vertex():
    domain = ProductBasis([0, 1], [Ordinal(1), Ordinal(2), Ordinal(3)])
    middle = BlockIndex(0, Ordinal(2))
    a = SparseBlockOperator(domain, {(middle, middle): -1}, 1)
    assert_dumps_match_the_reference(a)
    assert "0\to:2" not in streamed(dump_lines, a)


def test_vertices_whose_rows_all_cancel_first_middle_and_last():
    domain = ProductBasis(range(5), [Ordinal(1), CopyEdge("e", 0)])
    cancelled = [b for b in domain if b.vertex in (0, 2, 4)]
    a = SparseBlockOperator(domain, {(b, b): -2 for b in cancelled}, 2)
    assert_dumps_match_the_reference(a)
    entries = json.loads(streamed(operator_to_json, a))["entries"]
    assert sorted({row[0] for row in entries}) == [1, 3]


def test_scalar_zero_without_defect_over_a_nonempty_basis():
    domain = ProductBasis(["a", "b"], [Ordinal(0), CopyEdge(("x", 1), 2)])
    a = SparseBlockOperator(domain)
    assert streamed(dump_lines, a) == "\n"
    data = json.loads(streamed(operator_to_json, a))
    assert data["entries"] == [] and len(data["basis"]) == 4
    assert_dumps_match_the_reference(a)


def test_explicit_basis_with_uneven_slot_sets():
    w, f0 = (1, "w"), CopyEdge("f", 0)
    slots = {
        0: [Ordinal(1), Ordinal(2), CopyEdge("e", 0)],
        "v": [Ordinal(2)],
        w: [CopyEdge("e", 1), f0, Ordinal(3), Ordinal(1)],
    }
    domain = frozenset(BlockIndex(x, s) for x, ss in slots.items() for s in ss)
    delta = {
        (BlockIndex(0, Ordinal(2)), BlockIndex(w, Ordinal(3))): 4,
        (BlockIndex(w, f0), BlockIndex(w, f0)): -1,
        (BlockIndex(w, f0), BlockIndex("v", Ordinal(2))): 2,
        (BlockIndex("v", Ordinal(2)), BlockIndex(0, CopyEdge("e", 0))): -3,
    }
    for scalar in (0, 1, -2):
        assert_dumps_match_the_reference(SparseBlockOperator(domain, delta, scalar))


def test_one_vertex_with_more_than_a_chunk_of_rows():
    n = _CHUNK + 50
    domain = ProductBasis(["only", "other"], [Ordinal(i) for i in range(n)])
    x, y = BlockIndex("only", Ordinal(3)), BlockIndex("only", Ordinal(n - 7))
    edge = BlockIndex("only", Ordinal(_CHUNK))
    a = SparseBlockOperator.from_moves(domain, {x: y, y: x, edge: None})
    assert_dumps_match_the_reference(a)


# ---------------------------------------------------------------------------
# label and slot texts, written without json.dumps

# quotes, backslashes, control, non-ASCII and astral characters
WILD_TEXT = st.text(
    alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\b\t\n\ré→\u2028\U0001f600 '),
    max_size=4,
) | st.text(max_size=3)
WILD_LABELS = st.recursive(
    st.integers(-(10**30), 10**30) | WILD_TEXT,
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


def indented(value, depth: int) -> str:
    text = json.dumps(value, indent=1, sort_keys=True)
    return text.replace("\n", "\n" + " " * depth)


@settings(max_examples=400, deadline=None)
@given(WILD_LABELS, st.integers(0, 100), st.integers(0, 4))
def test_label_and_slot_texts_equal_json_dumps(label, copy, depth):
    assert _fmt(label) == fmt(label)
    assert _fmt(label, depth) == indented(label_json(label), depth)
    for s in (Ordinal(copy), CopyEdge(label, copy)):
        assert _fmt_slot(s) == fmt_slot(s)
        assert _json_slot_at(s, depth) == indented(slot_json(s), depth)
