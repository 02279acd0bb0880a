"""Sparse integer block operators on the space spanned by (vertex, slot)
basis vectors.

A slot is either an ordinal position of an abstract Hilbert basis or a copy
of an edge of an expanded graph; together with a vertex it names one basis
vector.  An operator is stored as s*1 + D: an integer multiple s of the
identity of its ambient basis plus a sparse defect D holding only the
entries where the matrix differs from s*1.  A cycle unitary differs from the
identity only along its tracks, so it costs two defect entries per moved
basis vector, however large the basis.  The ambient basis is an explicit
finite set or the lazy product of a vertex list and a slot list, which is
never materialised; adjoints are transposes and every identity checked here
is an exact matrix identity.  Unitarity is one of them, read without a
product: an integer unitary is a signed permutation matrix, so it is
checked on the rows and columns the defect touches.

Operators over the integer line are realized on truncation windows.  A finite
square matrix always has index zero, so the index pairing is computed as the
trace of P - U*PU against the half-line projection, summed over the central
region of the window where the truncated operator agrees with its infinite
model.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, TextIO, Union

from .graphs import idkey
from .intlinalg import rank as matrix_rank


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


Basis = Union[frozenset, ProductBasis]


def _as_basis(domain: Iterable[BlockIndex]) -> Basis:
    if isinstance(domain, (frozenset, ProductBasis)):
        return domain
    return frozenset(domain)


def _restrict(domain: Basis, keep: Callable[[object], bool]) -> Basis:
    """The basis vectors of domain whose vertex satisfies keep."""
    if isinstance(domain, ProductBasis):
        return ProductBasis([x for x in domain.vertices if keep(x)], domain.slots)
    return frozenset(b for b in domain if keep(b.vertex))


Entries = Mapping[tuple[BlockIndex, BlockIndex], int]


class SparseBlockOperator:
    """Integer matrix scalar*1 + delta over an orthonormal basis of
    BlockIndex.

    delta holds exactly the nonzero entries of the matrix minus scalar*1:
    with scalar 0 it stores every nonzero entry, with scalar 1 only those
    where the operator differs from the identity.  Any split of the same
    matrix compares equal.

    The constructor, from_basis_map and from_moves check that every value is
    an int (never truncated) and every entry lies in the basis.  compose,
    adjoint, +, -, unary - and defect skip that through _trusted."""

    def __init__(
        self, domain: Iterable[BlockIndex], entries: Entries = (), scalar: int = 0
    ):
        if type(scalar) is not int:
            raise OperatorError(f"scalar must be an integer, got {scalar!r}")
        self.domain = _as_basis(domain)
        self.scalar = scalar
        self.delta: dict[tuple[BlockIndex, BlockIndex], int] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), v in items:
            if type(v) is not int:
                raise OperatorError(f"entry ({r}, {c}) must be an integer, got {v!r}")
            if v == 0:
                continue
            if r not in self.domain or c not in self.domain:
                raise OperatorError(f"entry ({r}, {c}) outside the declared basis")
            self.delta[(r, c)] = v

    @classmethod
    def _trusted(cls, domain: Basis, items: Iterable, scalar: int) -> "SparseBlockOperator":
        """scalar*1 plus the nonzero (cell, int) items; nothing is checked."""
        a = cls.__new__(cls)
        a.domain, a.scalar, a.delta = domain, scalar, {key: v for key, v in items if v}
        return a

    @classmethod
    def identity(cls, domain: Iterable[BlockIndex]) -> "SparseBlockOperator":
        return cls(domain, scalar=1)

    @classmethod
    def from_basis_map(
        cls,
        domain: Iterable[BlockIndex],
        mapping: Mapping[BlockIndex, BlockIndex],
    ) -> "SparseBlockOperator":
        """Operator sending basis vector b to mapping[b] (columns indexed by
        the preimage).  Vectors without an image get a zero column."""
        dom = _as_basis(domain)
        images = list(mapping.values())
        if len(set(images)) != len(images):
            raise OperatorError("basis map is not injective")
        return cls(dom, {(img, src): 1 for src, img in mapping.items()})

    @classmethod
    def from_moves(
        cls,
        domain: Iterable[BlockIndex],
        moves: Mapping[BlockIndex, Optional[BlockIndex]],
    ) -> "SparseBlockOperator":
        """Operator fixing every basis vector except the keys of moves: b
        goes to moves[b], or to zero when that is None.  Only the moved
        vectors are stored, and each is checked against the basis once."""
        images = [img for img in moves.values() if img is not None]
        # an image outside the moved vectors collides with a fixed one
        if len(set(images)) != len(images) or any(img not in moves for img in images):
            raise OperatorError("basis map is not injective")
        entries = {}
        for src, img in moves.items():
            if img == src:
                continue
            entries[(src, src)] = -1
            if img is not None:
                entries[(img, src)] = 1
        op = cls(domain, scalar=1)
        # every image is a moved vector, so checking the keys checks them all
        if all(b in op.domain for b in moves):
            op.delta = entries
            return op
        return cls(op.domain, entries, scalar=1)  # the full checks name a stray entry

    @property
    def entries(self) -> dict[tuple[BlockIndex, BlockIndex], int]:
        """Every nonzero entry of the matrix, materialised on each call.

        For tests and diagnostics only: with a nonzero scalar it holds one
        entry per basis vector.  The package itself reads delta."""
        out = {(b, b): self.scalar for b in self.domain} if self.scalar else {}
        for key, v in self.delta.items():
            total = out.get(key, 0) + v
            if total:
                out[key] = total
            else:
                del out[key]
        return out

    def entry(self, r: BlockIndex, c: BlockIndex) -> int:
        v = self.delta.get((r, c), 0)
        if self.scalar and r == c and r in self.domain:
            v += self.scalar
        return v

    def is_zero(self) -> bool:
        if not self.scalar:
            return not self.delta
        # delta must cancel the whole diagonal and hold nothing else
        return len(self.delta) == len(self.domain) and all(
            r == c and v == -self.scalar for (r, c), v in self.delta.items()
        )

    def _same_basis(self, other: "SparseBlockOperator") -> bool:
        return self.domain is other.domain or self.domain == other.domain

    def _check_basis(self, other: "SparseBlockOperator") -> None:
        if not self._same_basis(other):
            raise OperatorError("ambient bases differ")

    def compose(self, other: "SparseBlockOperator") -> "SparseBlockOperator":
        """Matrix product self * other, from
        (s1 + D1)(s2 + D2) = s1 s2 + s1 D2 + s2 D1 + D1 D2."""
        self._check_basis(other)
        s1, s2 = self.scalar, other.scalar
        acc: dict[tuple[BlockIndex, BlockIndex], int] = {}
        if s1:
            acc = {key: s1 * v for key, v in other.delta.items()}
        if s2:
            for key, v in self.delta.items():
                acc[key] = acc.get(key, 0) + s2 * v
        by_row: dict[BlockIndex, list[tuple[BlockIndex, int]]] = {}
        for (r, c), v in other.delta.items():
            by_row.setdefault(r, []).append((c, v))
        for (r, k), av in self.delta.items():
            for c, bv in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + av * bv
        return self._trusted(self.domain, acc.items(), s1 * s2)

    def adjoint(self) -> "SparseBlockOperator":
        return self._trusted(
            self.domain, (((c, r), v) for (r, c), v in self.delta.items()), self.scalar
        )

    def _combine(self, other: "SparseBlockOperator", sign: int) -> "SparseBlockOperator":
        self._check_basis(other)
        acc = dict(self.delta)
        for key, v in other.delta.items():
            acc[key] = acc.get(key, 0) + sign * v
        return self._trusted(self.domain, acc.items(), self.scalar + sign * other.scalar)

    def __add__(self, other: "SparseBlockOperator") -> "SparseBlockOperator":
        return self._combine(other, 1)

    def __sub__(self, other: "SparseBlockOperator") -> "SparseBlockOperator":
        return self._combine(other, -1)

    def __neg__(self) -> "SparseBlockOperator":
        return self._trusted(
            self.domain, ((key, -v) for key, v in self.delta.items()), -self.scalar
        )

    def defect(self) -> "SparseBlockOperator":
        """self minus the identity of its ambient basis."""
        return self._trusted(self.domain, self.delta.items(), self.scalar - 1)

    def __eq__(self, other):
        if not isinstance(other, SparseBlockOperator) or not self._same_basis(other):
            return False
        if self.scalar == other.scalar:
            return self.delta == other.delta
        return (self - other).is_zero()

    def __repr__(self):
        return (
            f"SparseBlockOperator({len(self.domain)} basis vectors, "
            f"{self.scalar}*1 + {len(self.delta)} defect entries)"
        )


def propagation(a: SparseBlockOperator) -> int:
    """Least R with every nonzero entry of an operator over the line joining
    vertices x and y with |x - y| <= R.

    The scalar part is diagonal, so only the defect is measured; a and a - 1
    have the same propagation."""
    return max((abs(r.vertex - c.vertex) for (r, c) in a.delta), default=0)


def block_rank(a: SparseBlockOperator, x, y) -> int:
    """Exact rank of the (x, y) vertex block over the rationals.

    On a diagonal block every slot the defect leaves alone carries the
    scalar alone, so it adds one to the rank when the scalar is nonzero.
    A block whose rows and columns each hold at most one nonzero entry has
    its nonzero entries as rank; any other block is eliminated."""
    cells = {
        (r.slot, c.slot): v
        for (r, c), v in a.delta.items()
        if r.vertex == x and c.vertex == y
    }
    s = a.scalar if x == y else 0
    touched = {rs for rs, _ in cells} | {cs for _, cs in cells}
    if s:
        for t in touched:
            cells[(t, t)] = cells.get((t, t), 0) + s
    nonzero = [key for key, v in cells.items() if v]
    if len({rs for rs, _ in nonzero}) == len({cs for _, cs in nonzero}) == len(nonzero):
        rank = len(nonzero)
    else:
        rank = matrix_rank([[cells.get((rs, cs), 0) for cs in touched] for rs in touched])
    if s:
        rank += len(_restrict(a.domain, lambda v: v == x)) - len(touched)
    return rank


def touched_lines(a: SparseBlockOperator) -> tuple[dict, dict]:
    """(rows, columns): every row and every column of a that the defect
    touches, as {line: {index: entry}} with the scalar added on the line's
    diagonal, each map holding exactly the nonzero entries of its line.
    Every other line holds the scalar alone, on its diagonal."""
    rows: dict[BlockIndex, dict[BlockIndex, int]] = {}
    cols: dict[BlockIndex, dict[BlockIndex, int]] = {}
    for (r, c), v in a.delta.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, {})[r] = v
    s = a.scalar
    if s:
        for lines in (rows, cols):
            for b, line in lines.items():
                v = line.get(b, 0) + s
                if v:
                    line[b] = v
                else:
                    del line[b]
    return rows, cols


def is_unitary_on(
    a: SparseBlockOperator, interior: Optional[Iterable[BlockIndex]] = None
) -> bool:
    """Check a*a = aa* = 1 exactly on the given basis vectors (the whole
    ambient basis when interior is None).

    An integer vector of norm 1 is a signed unit vector, so a*a = 1 on
    column b says that column b holds exactly one nonzero entry, that entry
    is +-1, and its row holds no other nonzero entry; aa* = 1 on b says the
    same of row b.  Nothing is multiplied.  A line the defect leaves alone
    holds the scalar alone, which passes for s = +-1 and fails otherwise,
    so only touched lines are read."""
    region = a.domain if interior is None else _as_basis(interior)
    if not region <= a.domain:
        raise OperatorError("interior is not contained in the ambient basis")
    rows, cols = touched_lines(a)
    if a.scalar * a.scalar != 1:
        if sum(1 for b in rows if b in cols and b in region) != len(region):
            return False
    for lines, partners in ((cols, rows), (rows, cols)):
        for b, line in lines.items():
            if b in region:
                if len(line) != 1:
                    return False
                i, v = next(iter(line.items()))
                if v * v != 1:
                    return False
                # a partner line the defect leaves alone is b's own diagonal
                if i in partners and len(partners[i]) != 1:
                    return False
    return True


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
    """
    window.require_margin(propagation(u))
    interior = window.interior(u.domain)
    if not is_unitary_on(u, interior):
        raise OperatorError("operator is not unitary on the window interior")
    # the diagonal of u*Pu at b is the sum of squares of the entries of
    # column b on the nonnegative half line.  Each column first counts as
    # s times a unit vector, adding (1 - s^2)[b >= 0], which vanishes for
    # s = 1; a defect entry v at (r, b) with r >= 0 then takes v^2 more off,
    # and 2sv more on the diagonal, since (s + v)^2 - s^2 = v^2 + 2sv.
    s = u.scalar
    total = 0
    if s * s != 1:
        total = (1 - s * s) * len(_restrict(interior, lambda x: x >= 0))
    for (r, c), v in u.delta.items():
        if r.vertex >= 0 and c in interior:
            total -= v * v + (2 * s * v if r == c else 0)
    return total


def bilateral_shift(
    window: Window, slots: tuple[Slot, ...] = (Ordinal(1),)
) -> SparseBlockOperator:
    """Truncated forward shift (x, s) -> (x+1, s); the sign oracle for the
    index pairing: its index is -1 per slot."""
    domain = ProductBasis(range(window.lo, window.hi + 1), slots)
    mapping = {
        BlockIndex(x, s): BlockIndex(x + 1, s)
        for x in range(window.lo, window.hi)
        for s in slots
    }
    return SparseBlockOperator.from_basis_map(domain, mapping)


# ---------------------------------------------------------------------------
# interchange formats
#
# Both dumps list the nonzero entries row by row in block_key order: rows by
# (vertex idkey, slot_key) of the row, the entries of a row by the same key
# of their column.  The writers walk the basis one vertex at a time and
# write each vertex's rows in slices of at most _CHUNK: a slice starts as the
# scalar diagonal, built from slot texts formatted once per operator (one
# list for all vertices of a product basis), and the few rows the defect
# touches are rewritten in place.  The matrix is never materialised.  The
# JSON dump is byte for byte what json.dumps(..., indent=1, sort_keys=True)
# writes for the same object.


_CHUNK = 4096  # rows joined per write


def _label_from_json(x):
    if isinstance(x, list):
        return tuple(_label_from_json(part) for part in x)
    return x


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


def _slot_from_json(data) -> Slot:
    if "ordinal" in data:
        return Ordinal(data["ordinal"])
    return CopyEdge(_label_from_json(data["edge"]), data["copy"])


def _vertex_slots(domain: Basis, slot: Callable) -> Iterable[tuple]:
    """(vertex, texts, places) for every vertex of domain in idkey order:
    the texts of its slots in slot_key order and the place of each slot in
    that list.  All vertices of a product basis share one table."""

    def table(slots):
        slots = sorted(slots, key=slot_key)
        return [slot(s) for s in slots], {s: i for i, s in enumerate(slots)}

    if isinstance(domain, ProductBasis):
        shared = table(domain.slots)
        return ((x, *shared) for x in sorted(domain.vertices, key=idkey))
    by_vertex: dict = {}
    for x, s in domain:
        by_vertex.setdefault(x, []).append(s)
    return ((x, *table(by_vertex[x])) for x in sorted(by_vertex, key=idkey))


def _basis_chunks(a: SparseBlockOperator, vertex, slot, lead, sep, end):
    """The basis of a in block_key order, each vector as lead, vertex, sep,
    slot, end; one string per slice of at most _CHUNK slots of a vertex."""
    for x, texts, _ in _vertex_slots(a.domain, slot):
        head = f"{lead}{vertex(x)}{sep}"
        for i in range(0, len(texts), _CHUNK):
            yield "".join([f"{head}{t}{end}" for t in texts[i : i + _CHUNK]])


def _row_chunks(a: SparseBlockOperator, vertex, slot, lead, sep, end):
    """The nonzero entries of a in block_key order, each as lead, row vertex,
    row slot, column vertex, column slot and value joined by sep, then end;
    one string per slice of at most _CHUNK rows of a vertex.  A slice starts
    as the scalar diagonal, then the rows the defect touches are rebuilt."""
    touched: dict = {}
    for (x, rs), cells in touched_lines(a)[0].items():
        touched.setdefault(x, {})[rs] = list(cells.items())
    s = a.scalar
    for x, texts, places in _vertex_slots(a.domain, slot):
        head, mid = f"{lead}{vertex(x)}{sep}", f"{sep}{vertex(x)}{sep}"
        patches: dict[int, list] = {}
        for rs, cells in touched.pop(x, {}).items():
            i, j = divmod(places[rs], _CHUNK)
            patches.setdefault(i, []).append((j, cells))
        for i in range(0, len(texts), _CHUNK):
            part = texts[i : i + _CHUNK]
            rows = [f"{head}{t}{mid}{t}{sep}{s}{end}" for t in part] if s else [""] * len(part)
            for j, cells in patches.get(i // _CHUNK, ()):
                if len(cells) > 1:
                    cells.sort(key=lambda cell: block_key(cell[0]))
                row = f"{head}{part[j]}{sep}"
                rows[j] = "".join(
                    [f"{row}{vertex(y)}{sep}{slot(t)}{sep}{v}{end}" for (y, t), v in cells]
                )
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


def operator_from_json(data: dict) -> SparseBlockOperator:
    domain = [
        BlockIndex(_label_from_json(v), _slot_from_json(s)) for v, s in data["basis"]
    ]
    entries = {}
    for rv, rs, cv, cs, val in data["entries"]:
        r = BlockIndex(_label_from_json(rv), _slot_from_json(rs))
        c = BlockIndex(_label_from_json(cv), _slot_from_json(cs))
        entries[(r, c)] = val
    return SparseBlockOperator(domain, entries)
