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
is an exact matrix identity.

Operators over the integer line are realized on truncation windows.  A finite
square matrix always has index zero, so the index pairing is computed as the
trace of P - U*PU against the half-line projection, summed over the central
region of the window where the truncated operator agrees with its infinite
model.
"""

from __future__ import annotations

import json
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

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
    return (idkey(b.vertex), slot_key(b.slot))


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
    matrix compares equal."""

    def __init__(
        self, domain: Iterable[BlockIndex], entries: Entries = (), scalar: int = 0
    ):
        self.domain = _as_basis(domain)
        self.scalar = int(scalar)
        self.delta: dict[tuple[BlockIndex, BlockIndex], int] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), v in items:
            v = int(v)
            if v == 0:
                continue
            if r not in self.domain or c not in self.domain:
                raise OperatorError(f"entry ({r}, {c}) outside the declared basis")
            self.delta[(r, c)] = v

    @classmethod
    def identity(cls, domain: Iterable[BlockIndex]) -> "SparseBlockOperator":
        return cls(domain, scalar=1)

    @classmethod
    def zero(cls, domain: Iterable[BlockIndex]) -> "SparseBlockOperator":
        return cls(domain, {})

    @classmethod
    def from_basis_map(
        cls,
        domain: Iterable[BlockIndex],
        mapping: Mapping[BlockIndex, BlockIndex],
        injective: bool = True,
    ) -> "SparseBlockOperator":
        """Operator sending basis vector b to mapping[b] (columns indexed by
        the preimage).  Vectors without an image get a zero column."""
        dom = _as_basis(domain)
        if injective:
            images = list(mapping.values())
            if len(set(images)) != len(images):
                raise OperatorError("basis map is not injective")
        return cls(dom, {(img, src): 1 for src, img in mapping.items()})

    @classmethod
    def from_moves(
        cls,
        domain: Iterable[BlockIndex],
        moves: Mapping[BlockIndex, Optional[BlockIndex]],
        injective: bool = True,
    ) -> "SparseBlockOperator":
        """Operator fixing every basis vector except the keys of moves: b
        goes to moves[b], or to zero when that is None.  Only the moved
        vectors are stored."""
        if injective:
            images = [img for img in moves.values() if img is not None]
            # an image outside the moved vectors collides with a fixed one
            if len(set(images)) != len(images) or any(
                img not in moves for img in images
            ):
                raise OperatorError("basis map is not injective")
        entries = {}
        for src, img in moves.items():
            if img == src:
                continue
            entries[(src, src)] = -1
            if img is not None:
                entries[(img, src)] = 1
        return cls(domain, entries, scalar=1)

    @property
    def entries(self) -> dict[tuple[BlockIndex, BlockIndex], int]:
        """Every nonzero entry of the matrix, materialised on each call."""
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
        return SparseBlockOperator(self.domain, acc, s1 * s2)

    def adjoint(self) -> "SparseBlockOperator":
        return SparseBlockOperator(
            self.domain, {(c, r): v for (r, c), v in self.delta.items()}, self.scalar
        )

    def _combine(self, other: "SparseBlockOperator", sign: int) -> "SparseBlockOperator":
        self._check_basis(other)
        acc = dict(self.delta)
        for key, v in other.delta.items():
            acc[key] = acc.get(key, 0) + sign * v
        return SparseBlockOperator(
            self.domain, acc, self.scalar + sign * other.scalar
        )

    def __add__(self, other: "SparseBlockOperator") -> "SparseBlockOperator":
        return self._combine(other, 1)

    def __sub__(self, other: "SparseBlockOperator") -> "SparseBlockOperator":
        return self._combine(other, -1)

    def __neg__(self) -> "SparseBlockOperator":
        return SparseBlockOperator(
            self.domain, {key: -v for key, v in self.delta.items()}, -self.scalar
        )

    def defect(self) -> "SparseBlockOperator":
        """self minus the identity of its ambient basis."""
        return SparseBlockOperator(self.domain, self.delta, self.scalar - 1)

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


DistFn = Callable[[object, object], Optional[int]]


def propagation(a: SparseBlockOperator, dist) -> int:
    """Least R with every nonzero entry joining vertices at distance <= R.

    dist may be a callable or any object with a .dist method (a finite
    metric space, or the banded line).  The scalar part is diagonal, so only
    defect entries between distinct vertices are measured; a and a - 1 have
    the same propagation."""
    if not callable(dist):
        dist = dist.dist
    best = 0
    for (r, c) in a.delta:
        if r.vertex == c.vertex:
            continue
        d = dist(r.vertex, c.vertex)
        if d is None:
            raise OperatorError(
                f"entry joins {r.vertex!r} and {c.vertex!r} at infinite distance"
            )
        if d > best:
            best = d
    return best


def block_rank(a: SparseBlockOperator, x, y) -> int:
    """Exact rank of the (x, y) vertex block over the rationals.

    On a diagonal block every slot the defect leaves alone carries the
    scalar alone, so it adds one to the rank when the scalar is nonzero."""
    cells = {
        (r.slot, c.slot): v
        for (r, c), v in a.delta.items()
        if r.vertex == x and c.vertex == y
    }
    s = a.scalar if x == y else 0
    touched = sorted({rs for rs, _ in cells} | {cs for _, cs in cells}, key=slot_key)
    mat = [
        [cells.get((rs, cs), 0) + (s if rs == cs else 0) for cs in touched]
        for rs in touched
    ]
    rank = matrix_rank(mat) if touched else 0
    if s:
        rank += len(_restrict(a.domain, lambda v: v == x)) - len(touched)
    return rank


def _gram(delta: dict, contract_rows: bool) -> dict:
    """D*D (contracting rows) or DD* (contracting columns) as a plain entry
    dict; grouping by the contracted index avoids intermediate operators."""
    groups: dict[BlockIndex, list[tuple[BlockIndex, int]]] = {}
    for (r, c), v in delta.items():
        if contract_rows:
            groups.setdefault(r, []).append((c, v))
        else:
            groups.setdefault(c, []).append((r, v))
    prod: dict[tuple[BlockIndex, BlockIndex], int] = {}
    for vals in groups.values():
        for i1, v1 in vals:
            for i2, v2 in vals:
                key = (i1, i2)
                prod[key] = prod.get(key, 0) + v1 * v2
    return prod


def _is_identity_on(base: int, extra: dict, region: Basis) -> bool:
    """base*1 + extra equals the identity on every row and column through
    region."""
    covered = 0
    for (r, c), v in extra.items():
        if v and (r in region or c in region):
            if r != c or base + v != 1:
                return False
            covered += 1
    return base == 1 or covered == len(region)


def is_unitary_on(
    a: SparseBlockOperator, interior: Optional[Iterable[BlockIndex]] = None
) -> bool:
    """Check a*a = aa* = 1 exactly on the given basis vectors (the whole
    ambient basis when interior is None).

    With a = s*1 + D, a*a - 1 = (s^2 - 1)*1 + s(D + D*) + D*D, and aa* - 1
    the same with DD*; for s = 1 only rows and columns the defect touches
    can fail."""
    region = a.domain if interior is None else _as_basis(interior)
    if not region <= a.domain:
        raise OperatorError("interior is not contained in the ambient basis")
    s = a.scalar
    linear: dict[tuple[BlockIndex, BlockIndex], int] = {}
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


def line_dist(u, v) -> int:
    return abs(u - v)


def index_pairing(u: SparseBlockOperator, window: Window) -> int:
    """Integer trace of P - u*Pu against the half-line projection P, summed
    over the central region of the window.

    For the infinite operator the support of P - u*Pu sits within the
    propagation distance of the cut at 0, so once the margin dominates the
    propagation the central sum is exact and independent of the window.
    """
    window.require_margin(propagation(u, line_dist))
    interior = window.interior(u.domain)
    if not is_unitary_on(u, interior):
        raise OperatorError("operator is not unitary on the window interior")
    # the diagonal of u*Pu at b is the sum of squares of the entries of
    # column b on the nonnegative half line.  A column the defect leaves
    # alone is s times a unit vector and adds (1 - s^2)[b >= 0], which
    # vanishes for s = 1; only the touched columns are summed.
    s = u.scalar
    columns: dict[BlockIndex, dict[BlockIndex, int]] = {}
    for (r, c), v in u.delta.items():
        if c in interior:
            columns.setdefault(c, {})[r] = v
    total = 0
    if s * s != 1:
        total = (1 - s * s) * len(_restrict(interior, lambda x: x >= 0))
    for c, col in columns.items():
        col[c] = col.get(c, 0) + s
        total += (s * s if c.vertex >= 0 else 0) - sum(
            v * v for r, v in col.items() if r.vertex >= 0
        )
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


def _label_json(x):
    if isinstance(x, tuple):
        return [_label_json(part) for part in x]
    return x


def _label_from_json(x):
    if isinstance(x, list):
        return tuple(_label_from_json(part) for part in x)
    return x


def _fmt(x) -> str:
    return json.dumps(_label_json(x), separators=(",", ":"))


def _fmt_slot(s: Slot) -> str:
    if isinstance(s, Ordinal):
        return f"o:{s.index}"
    return f"e:{_fmt(s.edge)}:{s.copy}"


def dump_lines(a: SparseBlockOperator) -> list[str]:
    """Line-oriented sorted dump, bit-exact across platforms."""
    rows = []
    for (r, c), v in a.entries.items():
        rows.append((block_key(r), block_key(c), r, c, v))
    rows.sort(key=lambda item: (item[0], item[1]))
    return [
        f"{_fmt(r.vertex)}\t{_fmt_slot(r.slot)}\t{_fmt(c.vertex)}\t{_fmt_slot(c.slot)}\t{v}"
        for _, _, r, c, v in rows
    ]


def _slot_json(s: Slot):
    if isinstance(s, Ordinal):
        return {"ordinal": s.index}
    return {"edge": _label_json(s.edge), "copy": s.copy}


def _slot_from_json(data) -> Slot:
    if "ordinal" in data:
        return Ordinal(data["ordinal"])
    return CopyEdge(_label_from_json(data["edge"]), data["copy"])


def operator_to_json(a: SparseBlockOperator) -> dict:
    basis = sorted(a.domain, key=block_key)
    entries = sorted(a.entries.items(), key=lambda kv: (block_key(kv[0][0]), block_key(kv[0][1])))
    return {
        "basis": [[_label_json(b.vertex), _slot_json(b.slot)] for b in basis],
        "entries": [
            [_label_json(r.vertex), _slot_json(r.slot), _label_json(c.vertex), _slot_json(c.slot), v]
            for (r, c), v in entries
        ],
    }


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
