"""Partial permutation operators on the space spanned by (vertex, slot)
basis vectors.

A slot is either an ordinal position of an abstract Hilbert basis or a copy
of an edge of an expanded graph; together with a vertex it names one basis
vector.  Every operator the package builds (projections, witnesses,
exchanges, cycle unitaries, corrections, shifts, compressions) holds at most
one nonzero entry in each row and column, and that entry is 1.  So it is
stored as what it is: a scalar 0 or 1 for the columns left alone, and a map
from every other column to the row of its 1, or to None for a zero column.
A cycle unitary costs one stored move per moved basis vector, however large
the basis, which is an explicit finite set or the lazy product of a vertex
list and a slot list.  Adjoints are inverse maps and every identity checked
here is an exact matrix identity; unitarity is read without a product: no
column of the region is zero and no row of it is empty.

Operators over the integer line are realized on truncation windows.  A finite
square matrix always has index zero, so the index pairing is computed as the
trace of P - U*PU against the half-line projection, summed over the central
region of the window where the truncated operator agrees with its infinite
model; for a partial permutation that trace is the net flow across the cut.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Set as AbstractSet
from dataclasses import dataclass
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from operator import countOf, itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, TextIO, Union

from .graphs import idkey


class OperatorError(ValueError):
    pass


class MarginError(OperatorError):
    """Window too small for the requested exact computation."""


class Ordinal(NamedTuple):
    index: int


class CopyEdge(NamedTuple):
    edge: object
    copy: int


Slot = Union[Ordinal, CopyEdge]


class BlockIndex(NamedTuple):
    vertex: object
    slot: Slot


def slot_key(s: Slot) -> tuple:
    if isinstance(s, Ordinal):
        return (0, (0, s.index, ""), 0)
    return (1, idkey(s.edge), s.copy)


def block_key(b: BlockIndex) -> tuple:
    vertex, slot = b
    return (idkey(vertex), slot_key(slot))


class ProductBasis(AbstractSet):
    """The basis vectors (x, s) for every vertex x and slot s, held as the
    two factor lists and never materialised.  It is a set: len, in,
    iteration and equality with any other set of BlockIndex work as for the
    frozenset of its vectors."""

    def __init__(self, vertices: Iterable, slots: Iterable[Slot]):
        self.vertices = tuple(vertices)
        self.slots = tuple(slots)
        self._vertex_set = frozenset(self.vertices)
        self._slot_set = frozenset(self.slots)
        if len(self._vertex_set) != len(self.vertices) or len(self._slot_set) != len(
            self.slots
        ):
            raise OperatorError("a product basis needs distinct vertices and slots")

    def __len__(self) -> int:
        return len(self.vertices) * len(self.slots)

    def __contains__(self, b) -> bool:
        return (
            isinstance(b, tuple)
            and len(b) == 2
            and b[0] in self._vertex_set
            and b[1] in self._slot_set
        )

    def __iter__(self):
        for x in self.vertices:
            for s in self.slots:
                yield BlockIndex(x, s)

    def issuperset(self, vectors: Collection) -> bool:
        """Whether every item of vectors is in the basis, as for a frozenset.
        When every item is a BlockIndex this is three C-level subset tests,
        of the item types and of the vertex and slot factors; otherwise
        each item is tested alone."""
        if {BlockIndex}.issuperset(map(type, vectors)):
            vertices, slots = map(itemgetter(0), vectors), map(itemgetter(1), vectors)
            return self._vertex_set.issuperset(vertices) and self._slot_set.issuperset(slots)
        return all(map(self.__contains__, vectors))

    def _with_vertices(self, vertices: Iterable) -> "ProductBasis":
        """The basis on some of its own vertices, sharing this one's slot
        factor and slot set rather than hashing every slot again."""
        b = ProductBasis.__new__(ProductBasis)
        b.vertices = tuple(vertices)
        b._vertex_set = frozenset(b.vertices)
        b.slots, b._slot_set = self.slots, self._slot_set
        return b

    def __le__(self, other) -> bool:
        if isinstance(other, ProductBasis) and self:
            return (
                self._vertex_set <= other._vertex_set
                and self._slot_set <= other._slot_set
            )
        return super().__le__(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, ProductBasis) and self and other:
            return (
                self._vertex_set == other._vertex_set
                and self._slot_set == other._slot_set
            )
        return super().__eq__(other)

    def __repr__(self):
        return (
            f"ProductBasis({len(self.vertices)} vertices x {len(self.slots)} slots)"
        )

    @cached_property
    def ordered(self) -> tuple[list, list]:
        """The vertices in idkey order and the slots in slot_key order,
        sorted once for every dump of an operator over this basis."""
        return sorted(self.vertices, key=idkey), sorted(self.slots, key=slot_key)


Basis = Union[frozenset, ProductBasis]


def _as_basis(domain: Iterable[BlockIndex]) -> Basis:
    if isinstance(domain, (frozenset, ProductBasis)):
        return domain
    return frozenset(domain)


def _restrict(domain: Basis, keep: Callable[[object], bool]) -> Basis:
    """The basis vectors of domain whose vertex satisfies keep."""
    if isinstance(domain, ProductBasis):
        return domain._with_vertices(filter(keep, domain.vertices))
    return frozenset(b for b in domain if keep(b.vertex))


def _check_each(dom: Basis, moves: dict, scalar: int) -> None:
    """The constructor's checks one column at a time: raise its error for
    the first column of moves whose column or row is out of place, or
    return if there is none."""
    rows = set()
    for c, r in moves.items():
        if c not in dom:
            raise OperatorError(f"column {c} outside the declared basis")
        if r is None:
            continue
        if r in rows:
            raise OperatorError(f"two columns are sent into row {r}")
        rows.add(r)
        # with scalar 1 every row must be a moved column, whose key is
        # checked against the basis: any other holds a fixed vector's 1
        if not (r in moves if scalar else r in dom):
            if r not in dom:
                raise OperatorError(f"row {r} outside the declared basis")
            raise OperatorError(f"column {c} is sent into row {r} of a fixed vector")


class SparseBlockOperator:
    """Partial permutation matrix over an orthonormal basis of BlockIndex.

    Column b holds a single 1 in row moves[b], or nothing when that is None;
    every other column is scalar*e_b, with scalar 0 or 1.  moves keeps only
    the columns that differ from that default, so every matrix has exactly
    one representation.

    The constructor checks the scalar, every column and row against the
    basis, and that no two columns share a row; compose and adjoint skip
    that through _trusted.  The columns and rows are checked all at once,
    by set operations (issuperset); only a refusal walks them one by one,
    to name the first offender."""

    def __init__(self, domain: Iterable[BlockIndex], moves: Mapping = (), scalar: int = 0):
        if type(scalar) is not int or scalar not in (0, 1):
            raise OperatorError(f"scalar must be the integer 0 or 1, got {scalar!r}")
        self.domain = dom = _as_basis(domain)
        self.scalar = scalar
        if not isinstance(moves, dict):
            moves = dict(moves)
        try:
            rows = set(moves.values())
            rows.discard(None)
            valid = (
                len(rows) == len(moves) - countOf(moves.values(), None)
                and dom.issuperset(moves)
                and (moves.keys() >= rows if scalar else dom.issuperset(rows))
            )
        except TypeError:  # an unhashable key or row
            valid = False
        if not valid:
            _check_each(dom, moves, scalar)
        # a copy keeps the hashes moves has computed; then the entries that
        # the scalar already holds go: fixed columns with 1, zero ones with 0
        self.moves = dict(moves)
        for c in [c for c, r in moves.items() if (r == c if scalar else r is None)]:
            del self.moves[c]

    @classmethod
    def _trusted(cls, domain: Basis, moves: dict, scalar: int) -> "SparseBlockOperator":
        """The operator of moves as stored; nothing is checked or dropped."""
        a = cls.__new__(cls)
        a.domain, a.scalar, a.moves = domain, scalar, moves
        return a

    @classmethod
    def identity(cls, domain: Iterable[BlockIndex]) -> "SparseBlockOperator":
        return cls(domain, scalar=1)

    @cached_property
    def _explicit_order(self) -> list:
        """(vertex, slots) for every vertex of an explicit basis, vertices in
        idkey order and slots in slot_key order, sorted once for every dump
        of this operator: a frozenset cannot keep its order."""
        by_vertex: dict = {}
        for x, s in self.domain:
            by_vertex.setdefault(x, []).append(s)
        return [(x, sorted(by_vertex[x], key=slot_key)) for x in sorted(by_vertex, key=idkey)]

    def _image(self, c: BlockIndex) -> Optional[BlockIndex]:
        """The row of the 1 in column c, or None for a zero column."""
        return self.moves.get(c, c) if self.scalar else self.moves.get(c)

    @property
    def entries(self) -> dict[tuple[BlockIndex, BlockIndex], int]:
        """Every nonzero entry of the matrix, materialised on each call: for
        tests and diagnostics, as with scalar 1 it holds one per vector."""
        if not self.scalar:
            return {(r, c): 1 for c, r in self.moves.items()}
        images = ((self.moves.get(c, c), c) for c in self.domain)
        return {(r, c): 1 for r, c in images if r is not None}

    def entry(self, r: BlockIndex, c: BlockIndex) -> int:
        return int(c in self.domain and self._image(c) == r)

    def is_zero(self) -> bool:
        if not self.scalar:
            return not self.moves
        return len(self.moves) == len(self.domain) and not any(self.moves.values())

    def _same_basis(self, other: "SparseBlockOperator") -> bool:
        return self.domain is other.domain or self.domain == other.domain

    def compose(self, other: "SparseBlockOperator") -> "SparseBlockOperator":
        """Matrix product self * other: each column goes where other sends
        it, then where self sends that."""
        if not self._same_basis(other):
            raise OperatorError("ambient bases differ")
        moves, s, scalar = self.moves, self.scalar, self.scalar * other.scalar
        out = {}
        for c, r in other.moves.items():
            if r is not None:
                r = moves.get(r, r) if s else moves.get(r)
            if r != c if scalar else r is not None:
                out[c] = r
        if other.scalar:
            # other fixes these columns, so self alone moves them
            for c, r in moves.items():
                if c not in other.moves:
                    out[c] = r
        return self._trusted(self.domain, out, scalar)

    def adjoint(self) -> "SparseBlockOperator":
        """The transpose, which is the inverse map.  With scalar 1 a moved
        column that nothing lands on has an empty row, so its column in the
        adjoint is zero."""
        out: dict = {r: c for c, r in self.moves.items() if r is not None}
        if self.scalar:
            for c in self.moves:
                out.setdefault(c, None)
        return self._trusted(self.domain, out, self.scalar)

    def __eq__(self, other):
        if not isinstance(other, SparseBlockOperator) or not self._same_basis(other):
            return False
        if self.scalar == other.scalar:
            return self.moves == other.moves
        return all(self._image(b) == other._image(b) for b in self.domain)

    def __repr__(self):
        n, s, m = len(self.domain), self.scalar, len(self.moves)
        return f"SparseBlockOperator({n} basis vectors, {s}*1 off {m} moved columns)"


def propagation(a: SparseBlockOperator) -> int:
    """Least R with every nonzero entry of an operator over the line joining
    vertices x and y with |x - y| <= R: the largest move, since the columns
    left to the scalar sit on the diagonal."""
    return max(
        (abs(r.vertex - c.vertex) for c, r in a.moves.items() if r is not None), default=0
    )


def block_ranks(a: SparseBlockOperator) -> dict:
    """Exact rank of every (x, y) vertex block of a - 1 that a moved column
    at y touches, (y, y) and (x, y) when it moves into x, in one walk of
    the moves.  Off the diagonal a - 1 agrees with a, so the rank is the
    number of columns at y moved into x; diagonal_block_ranks reads the
    diagonal."""
    blocks = {(c.vertex, c.vertex) for c in a.moves}
    off: Counter = Counter()
    for c, r in a.moves.items():
        if r is not None:
            blocks.add((r.vertex, c.vertex))
            if r.vertex != c.vertex:
                off[r.vertex, c.vertex] += 1
    diagonal = diagonal_block_ranks(a)
    return {(x, y): diagonal[x] if x == y else off[x, y] for x, y in blocks}


def diagonal_block_ranks(a: SparseBlockOperator) -> Counter:
    """Exact rank of the (x, x) vertex block of a - 1 at every vertex x, in
    one pass; a vertex left out has rank 0.  The block is Q - 1 for the
    partial permutation Q of the slots at x, whose kernel is spanned by the
    sums over the closed cycles of Q: the rank is the slots at x (only the
    moved ones when the scalar fixes the rest) minus the closed cycles the
    moves form inside x, each counted once."""
    moves = a.moves
    ranks = Counter(c.vertex for c in (moves if a.scalar else a.domain))
    seen: set = set()
    for start in moves:
        if start in seen:
            continue
        cur = start
        while cur in moves and cur not in seen and cur.vertex == start.vertex:
            seen.add(cur)
            cur = moves[cur]
        ranks[start.vertex] -= cur == start
    return ranks


def is_unitary_on(
    a: SparseBlockOperator, interior: Optional[Iterable[BlockIndex]] = None
) -> bool:
    """Check a*a = aa* = 1 exactly on the given basis vectors (the whole
    ambient basis when interior is None).

    A partial permutation holds at most one 1 in each row and column, so
    a*a = 1 on column b says that column b is not zero, and aa* = 1 on b
    that row b is not empty.  Nothing is multiplied.  With scalar 1 only a
    moved column can fail: it is zero when its image is None, and its row
    is empty when no column lands on it.  Those columns are found by set
    operations over the moves, and only they are looked up in the region."""
    region = a.domain if interior is None else _as_basis(interior)
    if not region <= a.domain:
        raise OperatorError("interior is not contained in the ambient basis")
    moves = a.moves
    rows = set(moves.values())
    if a.scalar:
        failing = moves.keys() - rows
        if None in rows:
            failing.update(c for c, r in moves.items() if r is None)
        return not any(map(region.__contains__, failing))
    return sum(c in region for c in moves) == sum(r in region for r in rows) == len(region)


@dataclass(frozen=True)
class Window:
    """Central region [-radius, radius] of the line plus a margin absorbing
    truncation artifacts; operators are realized on [lo, hi]."""

    radius: int
    margin: int

    def __post_init__(self):
        if self.radius < 0 or self.margin < 0:
            raise OperatorError("radius and margin must be nonnegative")

    @property
    def lo(self) -> int:
        return -(self.radius + self.margin)

    @property
    def hi(self) -> int:
        return self.radius + self.margin

    def is_central(self, vertex: int) -> bool:
        return abs(vertex) <= self.radius

    def interior(self, domain: Iterable[BlockIndex]) -> Basis:
        return _restrict(_as_basis(domain), self.is_central)

    def require_margin(self, propagation: int) -> None:
        """Raise MarginError unless the window is wide enough for an exact
        index pairing of an operator with the given propagation."""
        if self.margin < 2 * propagation or self.radius < propagation:
            raise MarginError(
                f"window (radius {self.radius}, margin {self.margin}) too small "
                f"for propagation {propagation}; need margin >= {2 * propagation} "
                f"and radius >= {propagation}"
            )


def index_pairing(u: SparseBlockOperator, window: Window) -> int:
    """Integer trace of P - u*Pu against the half-line projection P, summed
    over the central region of the window.

    For the infinite operator the support of P - u*Pu sits within the
    propagation distance of the cut at 0, so once the margin dominates the
    propagation the central sum is exact and independent of the window.

    The diagonal of u*Pu at column c is 1 exactly when the 1 of column c
    lies on the nonnegative half line, so the trace is the net flow of
    moved vectors out of the half line across the cut: the index of a
    one-dimensional locality-preserving unitary (D. Gross, V. Nesme,
    H. Vogts and R. F. Werner, Commun. Math. Phys. 310, 2012).

    The flow is one step per move: a column lies in the basis, so whether it
    is interior is read off its vertex, and the interior shares u's slot
    set rather than hashing every slot again.
    """
    window.require_margin(propagation(u))
    interior = window.interior(u.domain)
    if not is_unitary_on(u, interior):
        raise OperatorError("operator is not unitary on the window interior")
    # with scalar 0 every interior column is moved, and each first counts
    # [c >= 0] from P; with scalar 1 a column left alone cancels itself
    s = u.scalar
    total = 0 if s else len(_restrict(interior, lambda x: x >= 0))
    # every column lies in the basis, so it is interior exactly when its
    # vertex is central, abs(vertex) <= radius (Window.is_central)
    radius = window.radius
    for c, r in u.moves.items():
        x = c.vertex
        if -radius <= x <= radius:
            total += s * (x >= 0) - (r is not None and r.vertex >= 0)
    return total


def bilateral_shift(
    window: Window, slots: tuple[Slot, ...] = (Ordinal(1),)
) -> SparseBlockOperator:
    """Truncated forward shift (x, s) -> (x+1, s); the sign oracle for the
    index pairing: its index is -1 per slot."""
    domain = ProductBasis(range(window.lo, window.hi + 1), slots)
    moves = {
        BlockIndex(x, s): BlockIndex(x + 1, s)
        for x in range(window.lo, window.hi)
        for s in slots
    }
    return SparseBlockOperator(domain, moves)


# ---------------------------------------------------------------------------
# interchange formats
#
# Both dumps list the nonzero entries row by row in block_key order: rows by
# (vertex idkey, slot_key) of the row; a row holds at most one entry.  The
# writers walk the basis one vertex at a time and write each vertex's rows
# in slices of at most _CHUNK.  Along one vertex only the slot texts change,
# and every vertex of a product basis has the same slots, so the texts
# around the vertex label are formatted once per operator (once per vertex
# for an explicit basis).  Each unchanged run of a slice is then one
# str.join of those pieces with the vertex label as separator, and only the
# few rows the moves change are formatted one by one.  The matrix is never
# materialised.  The JSON dump is byte for byte what json.dumps(...,
# indent=1, sort_keys=True) writes for the same object.


_CHUNK = 4096  # rows joined per write


def _fmt(x, depth: Optional[int] = None) -> str:
    """A label as json.dumps writes it, a tuple as a list: compact, or as
    indent=1 writes it depth levels deep."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if not isinstance(x, tuple):
        return int.__repr__(x)
    if depth is None or not x:
        return f"[{','.join(map(_fmt, x))}]"
    pad = "\n" + " " * (depth + 1)
    items = ("," + pad).join(_fmt(part, depth + 1) for part in x)
    return f"[{pad}{items}\n{' ' * depth}]"


def _fmt_slot(s: Slot) -> str:
    if isinstance(s, Ordinal):
        return f"o:{s.index}"
    return f"e:{_fmt(s.edge)}:{s.copy}"


def _json_slot_at(s: Slot, depth: int) -> str:
    """A slot as json.dumps(..., indent=1, sort_keys=True) writes its JSON
    object depth levels deep."""
    pad = "\n" + " " * (depth + 1)
    if isinstance(s, Ordinal):
        body = f'"ordinal": {s.index}'
    else:
        body = f'"copy": {s.copy},{pad}"edge": {_fmt(s.edge, depth + 1)}'
    return f"{{{pad}{body}\n{' ' * depth}}}"


def _vertex_tables(a: SparseBlockOperator, table: Callable) -> Iterable[tuple]:
    """(vertex, table(slots)) for every vertex of a's basis in idkey order,
    its slots in slot_key order.  All vertices of a product basis share one
    table, built once; an explicit basis builds one per vertex, as the
    writer reaches it, from the order a sorted on its first dump."""
    if isinstance(a.domain, ProductBasis):
        vertices, slots = a.domain.ordered
        shared = table(slots)
        return ((x, shared) for x in vertices)
    return ((x, table(slots)) for x, slots in a._explicit_order)


def _basis_chunks(a: SparseBlockOperator, vertex, slot, lead, sep, end):
    """The basis of a in block_key order, each vector as lead, vertex, sep,
    slot, end; one string per slice of at most _CHUNK slots of a vertex,
    joined around the vertex's head."""

    def table(slots):
        return [f"{slot(s)}{end}" for s in slots]

    for x, tails in _vertex_tables(a, table):
        head = f"{lead}{vertex(x)}{sep}"
        for i in range(0, len(tails), _CHUNK):
            yield head + head.join(tails[i : i + _CHUNK])


def _row_chunks(a: SparseBlockOperator, vertex, slot, lead, sep, end):
    """The nonzero entries of a in block_key order, each as lead, row vertex,
    row slot, column vertex, column slot and value joined by sep, then end;
    one string per slice of at most _CHUNK rows of a vertex.

    The rows the moves change split a slice into runs of unchanged rows.  A
    changed row holds the column landing on it, or nothing, and is formatted
    alone, in slot order.  With scalar 1 a run is the scalar diagonal, whose
    rows differ only in their slot texts: one join of the vertex text over a
    slice of the pieces of the table."""
    s = a.scalar
    changed: dict = {}  # {vertex: {row slot: column or None}}
    for c, r in a.moves.items():
        if s:
            changed.setdefault(c.vertex, {}).setdefault(c.slot, None)
        if r is not None:
            changed.setdefault(r.vertex, {})[r.slot] = c

    def table(slots):
        texts = [slot(b) for b in slots]
        # the diagonal row of slot i is lead, vertex, pieces[2i + 1], vertex,
        # pieces[2i + 2] without its last len(lead) characters, which are the
        # next row's lead
        pieces = [lead]
        if s:
            for t in texts:
                pieces += (f"{sep}{t}{sep}", f"{sep}{t}{sep}1{end}{lead}")
        return texts, {b: i for i, b in enumerate(slots)}, pieces

    for x, (texts, places, pieces) in _vertex_tables(a, table):
        v = vertex(x)

        def run(i: int, j: int) -> str:
            """The diagonal rows of the slots at places i to j - 1."""
            part = pieces[2 * i : 2 * j + 1]
            part[0], part[-1] = lead, f"{sep}{texts[j - 1]}{sep}1{end}"
            return v.join(part)

        # in slot order: moves iterate in an order that follows the hash seed
        patches = sorted((places[rs], c) for rs, c in changed.pop(x, {}).items())
        k = 0
        for start in range(0, len(texts), _CHUNK):
            at, stop, rows = start, min(start + _CHUNK, len(texts)), []
            while k < len(patches) and patches[k][0] < stop:
                j, c = patches[k]
                if s and at < j:
                    rows.append(run(at, j))
                if c is not None:
                    rows.append(
                        f"{lead}{v}{sep}{texts[j]}{sep}{vertex(c.vertex)}{sep}{slot(c.slot)}{sep}1{end}"
                    )
                at, k = j + 1, k + 1
            if s and at < stop:
                rows.append(run(at, stop))
            yield "".join(rows)


def _write_list(out: TextIO, chunks, opening: str, closing: str, empty: str) -> None:
    """Write the nonempty chunks and then closing to out, or only empty if
    none; opening replaces the start of the first: a JSON list's comma."""
    first = True
    for chunk in filter(None, chunks):
        out.write(opening + chunk[len(opening) :] if first else chunk)
        first = False
    out.write(empty if first else closing)


def dump_lines(a: SparseBlockOperator, out: TextIO) -> None:
    """Write the line dump of a to out: one tab-separated line (row vertex,
    row slot, column vertex, column slot, value) per nonzero entry, in
    block_key order, or a lone newline when there is no entry.  Bit-exact
    across platforms."""
    rows = _row_chunks(a, cache(_fmt), cache(_fmt_slot), "", "\t", "\n")
    _write_list(out, rows, "", "", "\n")


def operator_to_json(a: SparseBlockOperator, out: TextIO) -> None:
    """Write a to out as {"basis": [[vertex, slot], ...], "entries": [[row
    vertex, row slot, column vertex, column slot, value], ...]}, both lists
    in block_key order, laid out as json.dumps(indent=1, sort_keys=True)."""
    vertex = cache(lambda x: _fmt(x, 3))
    slot = cache(lambda s: _json_slot_at(s, 3))
    item = (",\n  [\n   ", ",\n   ", "\n  ]")
    out.write('{\n "basis": ')
    _write_list(out, _basis_chunks(a, vertex, slot, *item), "[", "\n ]", "[]")
    out.write(',\n "entries": ')
    _write_list(out, _row_chunks(a, vertex, slot, *item), "[", "\n ]", "[]")
    out.write("\n}")
