"""Integer chains in degrees 0 and 1, the boundary map, desk-scale homology,
and the banded calculus on the integer line.

Finite-support chains live over an explicit host graph.  Chains over Z that
are constant outside a finite window are stored in banded form: two tail
values plus a finite window of exceptional values.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .graphs import Edge, Graph, Label, OrientedGraph, json_keys, refuse_unknown_keys
from .intlinalg import smith_normal_form


class ChainError(ValueError):
    pass


class FiniteChain:
    """Finitely supported integer chain over a host graph: coefficients on
    vertices (degree 0) or on edge ids (degree 1).

    The constructor checks every coefficient: an int (never truncated) on a
    cell of the graph.  +, unary -, Chain1.scaled and boundary derive their
    keys from checked chains over the same graph and skip that, via
    _trusted."""

    degree: int
    cell: str

    def __init__(self, graph: OrientedGraph, coeffs: Mapping[Label, int]):
        self.graph = graph
        self.coeffs = {}
        known = graph.has_vertex if self.degree == 0 else graph.has_edge_id
        for key, v in coeffs.items():
            if type(v) is not int:
                json_int(v, f"coefficient on {self.cell} {key!r}")
            if v == 0:
                continue
            if not known(key):
                raise ChainError(f"coefficient on unknown {self.cell} {key!r}")
            self.coeffs[key] = v

    @classmethod
    def _trusted(cls, graph: OrientedGraph, items: Iterable) -> "FiniteChain":
        """The chain of the nonzero (cell, int) items; nothing is checked."""
        chain = cls.__new__(cls)
        chain.graph, chain.coeffs = graph, {k: v for k, v in items if v}
        return chain

    def coeff(self, key: Label) -> int:
        return self.coeffs.get(key, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if type(other) is not type(self) or self.graph != other.graph:
            raise ChainError("chains live over different graphs or degrees")
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, 0) + v
        return self._trusted(self.graph, merged.items())

    def __neg__(self):
        return self._trusted(self.graph, ((k, -v) for k, v in self.coeffs.items()))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.graph == other.graph
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"


class Chain0(FiniteChain):
    """Finitely supported integer 0-chain over a host graph."""

    degree = 0
    cell = "vertex"

    def total(self) -> int:
        return sum(self.coeffs.values())


class Chain1(FiniteChain):
    """Finitely supported integer 1-chain (coefficients on edge ids)."""

    degree = 1
    cell = "edge"

    def scaled(self, n: int) -> "Chain1":
        json_int(n, "scale factor")
        return Chain1._trusted(self.graph, ((k, n * v) for k, v in self.coeffs.items()))


@dataclass(frozen=True)
class BandedZChain:
    """Two-sided integer sequence, constant outside a finite window.

    degree 0: value at position i is the coefficient of vertex i.
    degree 1: value at position i is the coefficient of the cell edge
    [i, i+1] of the line.
    """

    degree: int
    tail_left: int
    tail_right: int
    window_start: int = 0
    window_values: tuple[int, ...] = ()

    def __post_init__(self):
        json_int(self.degree, "degree")
        json_int(self.tail_left, "tail_left")
        json_int(self.tail_right, "tail_right")
        start = json_int(self.window_start, "window_start")
        vals = [json_int(v, f"window_values[{i}]") for i, v in enumerate(self.window_values)]
        if self.degree not in (0, 1):
            raise ChainError("degree must be 0 or 1")
        # normalize: trim both tails by index, so the window is canonical
        lo, hi = 0, len(vals)
        while lo < hi and vals[lo] == self.tail_left:
            lo += 1
        while hi > lo and vals[hi - 1] == self.tail_right:
            hi -= 1
        start += lo
        if lo == hi and self.tail_left == self.tail_right:
            start = 0  # a constant chain has no position of its own
        object.__setattr__(self, "window_values", tuple(vals[lo:hi]))
        object.__setattr__(self, "window_start", start)

    def value(self, i: int) -> int:
        if i < self.window_start:
            return self.tail_left
        if i >= self.window_start + len(self.window_values):
            return self.tail_right
        return self.window_values[i - self.window_start]

    @property
    def window_end(self) -> int:
        """First position at or beyond which the right tail holds."""
        return self.window_start + len(self.window_values)

    def is_constant(self) -> bool:
        return self.tail_left == self.tail_right and not self.window_values

    def shifted(self, k: int) -> "BandedZChain":
        """Value at i of the result is the value of self at i + k."""
        return BandedZChain(
            self.degree,
            self.tail_left,
            self.tail_right,
            self.window_start - k,
            self.window_values,
        )

    @classmethod
    def from_finite_values(cls, degree: int, values: Mapping[int, int]) -> "BandedZChain":
        if not values:
            return cls(degree, 0, 0)
        lo = min(values)
        hi = max(values)
        return cls(degree, 0, 0, lo, tuple(values.get(i, 0) for i in range(lo, hi + 1)))


Chain = Union[Chain0, Chain1, BandedZChain]


# ---------------------------------------------------------------------------
# boundary and cycles


def boundary(gamma: Union[Chain1, BandedZChain]) -> Union[Chain0, BandedZChain]:
    """Linear extension of d(e) = t(e) - s(e)."""
    if isinstance(gamma, Chain1):
        out: dict[Label, int] = {}
        by_id = gamma.graph._by_id
        for eid, coeff in gamma.coeffs.items():
            e = by_id[eid]
            out[e.target] = out.get(e.target, 0) + coeff
            out[e.source] = out.get(e.source, 0) - coeff
        return Chain0._trusted(gamma.graph, out.items())
    if isinstance(gamma, BandedZChain):
        if gamma.degree != 1:
            raise ChainError("boundary needs a degree-1 chain")
        # cell edge [i, i+1] contributes +1 at i+1 and -1 at i, so the
        # boundary value at i is gamma(i-1) - gamma(i); the tails cancel.
        lo = gamma.window_start
        hi = gamma.window_end
        vals = [gamma.value(i - 1) - gamma.value(i) for i in range(lo, hi + 1)]
        return BandedZChain(0, 0, 0, lo, tuple(vals))
    raise ChainError(f"cannot take boundary of {type(gamma).__name__}")


def is_cycle(gamma: Union[Chain1, BandedZChain]) -> bool:
    """True iff the boundary vanishes; for finite chains the in-flow/out-flow
    characterization is computed as well and cross-checked."""
    if isinstance(gamma, BandedZChain):
        if gamma.degree != 1:
            raise ChainError("is_cycle needs a degree-1 chain")
        return gamma.is_constant()
    via_boundary = boundary(gamma).is_zero()
    # the flows walk the adjacency lists where boundary walks the coefficients
    g, coeff = gamma.graph, gamma.coeffs.get
    ins, outs = g._ends
    net = 0  # in-flow minus out-flow of a vertex, up to the first unbalanced one
    for x in g.vertices:
        if net:
            break
        for e in ins[x]:
            net += coeff(e.id, 0)
        for e in outs[x]:
            net -= coeff(e.id, 0)
    via_flows = not net
    if via_boundary != via_flows:
        raise AssertionError("boundary and flow characterizations disagree")
    return via_boundary


def uniform_bound(c: Chain) -> int:
    """Least K with every coefficient strictly below K in magnitude."""
    if isinstance(c, BandedZChain):
        candidates = [abs(c.tail_left), abs(c.tail_right)]
        candidates.extend(abs(v) for v in c.window_values)
        return max(candidates, default=0) + 1
    return max((abs(v) for v in c.coeffs.values()), default=0) + 1


# ---------------------------------------------------------------------------
# homology of finite graphs


def free_abelian(r: int) -> str:
    """The free abelian group of rank r as text: 0, Z or Z^r."""
    return "0" if r == 0 else "Z" if r == 1 else f"Z^{r}"


@dataclass(frozen=True)
class HomologyResult:
    h0_rank: int
    h1_basis: tuple[Chain1, ...] = field(repr=False, default=())


def homology_finite(g: OrientedGraph) -> HomologyResult:
    """H0 as the cokernel of d and H1 as its integer kernel, both read off
    the Smith normal form of d.  For a finite graph the bounded and
    unbounded theories agree, so one computation serves both.  d is handed
    over as one {edge index: +-1} row per vertex, d(e) = t(e) - s(e), built
    in one pass over the edges (no edge is a loop, so each column holds a +1
    and a -1).  An incidence matrix is totally unimodular, so every pivot is
    a unit and H0 is free: its rank is |V| minus the number of pivots."""
    nv = len(g.vertices)
    ne = len(g.edges)
    if ne == 0:
        return HomologyResult(nv, ())
    rows = {v: {} for v in g.vertices}
    for j, e in enumerate(g.edges):
        rows[e.target][j] = 1
        rows[e.source][j] = -1
    d, v = smith_normal_form(list(rows.values()), ne)
    pivots = sum(map(bool, d))
    # the pivots come first, so the columns of V past them are an integer
    # basis of the kernel of d; each is stored as {row: entry}
    ids = [e.id for e in g.edges]
    basis = [
        Chain1._trusted(g, ((ids[i], col[i]) for i in sorted(col)))
        for col in v[pivots:]
    ]
    return HomologyResult(nv - pivots, tuple(basis))


def spanning_forest(g: OrientedGraph) -> tuple[list[Label], dict]:
    """Kirchhoff's spanning forest of g, rooted.

    Union-find over the edges in their stored order picks the tree edges;
    a breadth-first search from the least vertex of each component then
    roots them.  Returns the vertices in root-first order (every vertex
    after its parent) and the tree edge above each vertex, None at a root.
    """
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree: dict[Label, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        ru, rv = find(e.source), find(e.target)
        if ru != rv:
            root[ru] = rv
            tree[e.source].append(e)
            tree[e.target].append(e)
    order: list[Label] = []
    up: dict = {}
    head = 0
    for start in g.vertices:
        if start not in up:
            up[start] = None
            order.append(start)
        while head < len(order):
            x = order[head]
            head += 1
            for e in tree[x]:
                y = e.source if e.target == x else e.target
                if y not in up:
                    up[y] = e
                    order.append(y)
    return order, up


def fundamental_cycle(g: OrientedGraph, up: dict, extra: Edge) -> Chain1:
    """The non-tree edge extra plus the tree path from its target back to
    its source: both endpoints climb to their common ancestor."""

    def climb(x):
        below_root = []
        while up[x] is not None:
            below_root.append(x)
            x = up[x].source if up[x].target == x else up[x].target
        return below_root

    from_source, from_target = climb(extra.source), climb(extra.target)
    while from_source and from_target and from_source[-1] == from_target[-1]:
        from_source.pop()
        from_target.pop()
    coeffs = {extra.id: 1}
    # down from the common ancestor to the source, then up from the target
    for x in from_source:
        coeffs[up[x].id] = 1 if up[x].target == x else -1
    for x in reversed(from_target):
        coeffs[up[x].id] = 1 if up[x].source == x else -1
    # every key is an edge of g and every coefficient +-1
    return Chain1._trusted(g, coeffs.items())


def solve_boundary_finite(g: OrientedGraph, c: Chain0) -> Optional[Chain1]:
    """The integer 1-chain on the spanning forest with boundary c, or None
    when c does not bound (it must sum to zero on every path component).
    Peeling leaves, the tree edge above x carries the sum of c over the
    subtree of x: at most the positive part of c on its component."""
    if c.graph != g:
        raise ChainError("chain does not live over this graph")
    order, up = spanning_forest(g)
    below = {x: c.coeff(x) for x in g.vertices}
    coeffs = {}
    for x in reversed(order):
        e = up[x]
        if e is None:
            if below[x]:
                return None
        elif below[x]:
            parent = e.source if e.target == x else e.target
            below[parent] += below[x]
            coeffs[e.id] = below[x] if e.target == x else -below[x]
    gamma = Chain1(g, coeffs)
    if boundary(gamma) != c:
        raise AssertionError("solver produced a wrong boundary")
    return gamma


# ---------------------------------------------------------------------------
# the line: solving d(gamma) = c and the bounded-class invariant


def uf_class_on_z(c: BandedZChain) -> tuple[int, int]:
    """Tail-pair invariant of the bounded homology class of c on the line.

    Two banded chains are homologous through a uniformly finite 1-chain iff
    their tails agree: the difference then has finite support and
    solve_boundary_on_z produces a bounded witness.
    """
    if c.degree != 0:
        raise ChainError("uf_class_on_z needs a degree-0 chain")
    return (c.tail_left, c.tail_right)


def solve_boundary_on_z(c: BandedZChain) -> Optional[BandedZChain]:
    """The uniformly finite gamma with d(gamma) = c over the line graph with
    edges [n, n+1], or None when there is none: exactly when the tail pair
    uf_class_on_z(c) is not (0, 0).

    Any solution satisfies gamma(i) = gamma(i-1) - c(i), so far out it climbs
    by minus a tail per step.  The returned one is normalized by
    gamma(i) = -(c-partial sum up to i), which is zero far to the left.
    """
    if c.degree != 0:
        raise ChainError("solve_boundary_on_z needs a degree-0 chain")
    if uf_class_on_z(c) != (0, 0):
        return None
    lo = c.window_start
    vals = []
    acc = 0
    for i in range(lo, c.window_end):
        acc -= c.value(i)
        vals.append(acc)
    gamma = BandedZChain(1, 0, acc, lo, tuple(vals))
    if boundary(gamma) != c:
        raise AssertionError("boundary of the constructed solution is wrong")
    return gamma


def banded_cycle_value(gamma: BandedZChain) -> Optional[int]:
    """The single integer classifying a banded 1-cycle on the line, or None
    if the chain is not a cycle."""
    if gamma.degree != 1:
        raise ChainError("banded_cycle_value needs a degree-1 chain")
    return gamma.tail_left if gamma.is_constant() else None


# ---------------------------------------------------------------------------
# JSON input


def json_int(value, field: str) -> int:
    """value itself when it is a JSON integer; never truncates or coerces."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ChainError(f"{field} must be an integer, got {value!r}")
    return value


_FINITE_CHAIN_KEYS = frozenset({"degree", "coeffs"})
_BANDED_CHAIN_KEYS = frozenset({"degree", "tail_left", "tail_right", "window_start", "window_values"})


def chain_from_json(data: dict, graph: Optional[Graph] = None) -> Chain:
    """The chain in data: over graph when data has coeffs, else on the line."""
    finite = "coeffs" in data
    refuse_unknown_keys(data, _FINITE_CHAIN_KEYS if finite else _BANDED_CHAIN_KEYS, ChainError)
    degree = json_int(data.get("degree"), "degree")
    if finite:
        if not isinstance(graph, OrientedGraph):
            raise ChainError("a host graph is required for finite-support chains")
        if degree == 0:
            what, lookup = "vertex", json_keys("vertices", graph.vertices)
        elif degree == 1:
            what, lookup = "edge", json_keys("edges", [e.id for e in graph.edges])
        else:
            raise ChainError(f"bad degree: {degree!r}")
        if not isinstance(data["coeffs"], dict):
            raise ChainError("coeffs must be an object")
        coeffs = {}
        for key, val in data["coeffs"].items():
            if key not in lookup:
                raise ChainError(f"unknown {what} {key!r} in chain file")
            coeffs[lookup[key]] = json_int(val, f"coeffs[{key!r}]")
        return Chain0(graph, coeffs) if degree == 0 else Chain1(graph, coeffs)
    values = data.get("window_values", [])
    if not isinstance(values, list):
        raise ChainError(f"window_values must be a list, got {values!r}")
    # the constructor checks every field with json_int
    return BandedZChain(
        degree=degree,
        tail_left=data.get("tail_left", 0),
        tail_right=data.get("tail_right", 0),
        window_start=data.get("window_start", 0),
        window_values=tuple(values),
    )
