"""Exact integer linear algebra on small matrices.

Matrices are lists of rows of Python ints, so there is no overflow and no
floating point anywhere.  Smith normal form pivots naively but works on
sparse storage: D is one {column: entry} dict per row plus a column-to-rows
index, U one dict per row and V one dict per column, so a swap, a row
operation or a column operation costs the nonzeros it touches, not a full
row or column.  The dense matrices are built once, on return.  The
incidence matrix of a graph is totally unimodular, so its pivots are units,
and the loop skips the work a unit makes pointless: the pivot search stops
at the first unit (the first strict minimum it would keep anyway) and the
divisor-chain scan is skipped (a unit divides everything).  Only no-op work
is skipped, so (U, D, V) is exactly what the plain dense loop returns.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[] for _ in a]
    assert len(a[0]) == len(b), "inner dimensions must agree"
    cols = len(b[0])
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for k, av in enumerate(row):
            if av:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += av * brow[j]
    return out


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*a*V = D, U and V unimodular, D diagonal
    with each diagonal entry dividing the next."""
    m = len(a)
    n = len(a[0]) if m else 0
    # row i of D as {column: nonzero entry}
    d = [{j: int(row[j]) for j in compress(range(n), row)} for row in a]
    cols = [set() for _ in range(n)]  # column j of D as the rows holding it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    u = [{i: 1} for i in range(m)]  # row i of U as {column: entry}
    v = [{j: 1} for j in range(n)]  # column j of V as {row: entry}

    def swap_rows(i, j):
        for c in d[i].keys() ^ d[j].keys():
            cols[c] ^= {i, j}  # held by one of the two rows: move it over
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in cols[i] | cols[j]:
            row = d[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if x:
                row[j] = x
            if y:
                row[i] = y
        cols[i], cols[j] = cols[j], cols[i]
        v[i], v[j] = v[j], v[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        _sub(d[i], d[j], q, cols, i)
        _sub(u[i], u[j], q)

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for r in cols[j]:
            _sub(d[r], {i: d[r][j]}, q, cols, r)
        _sub(v[i], v[j], q)

    t = 0
    while t < min(m, n):
        # global pivot search: first smallest nonzero magnitude in the tail
        # block, row-major (rows from t on hold nothing left of column t);
        # nothing beats a unit, so stop at the first one
        piv, best = None, 0
        for i in range(t, m):
            if d[i]:
                size, j = min(zip(map(abs, d[i].values()), d[i]))
                if piv is None or size < best:
                    piv, best = (i, j), size
                    if best == 1:
                        break
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(piv[0], t)
        if piv[1] != t:
            swap_cols(piv[1], t)

        while True:
            # rows and columns before t hold only their pivots; an operation
            # on row (column) i changes only rows (columns) i and t, so the
            # entries still to clear are known up front
            dirty = False
            for i in sorted(cols[t] - {t}):
                row_sub(i, t, d[i][t] // d[t][t])
                if t in d[i]:
                    # remainder is strictly smaller: promote it to pivot
                    swap_rows(i, t)
                    dirty = True
            for j in sorted(d[t].keys() - {t}):
                col_sub(j, t, d[t][j] // d[t][t])
                if j in d[t]:
                    swap_cols(j, t)
                    dirty = True
            # a sweep without a swap has cleared column t below the pivot and
            # row t to its right; a unit pivot divides every remaining entry
            if dirty:
                continue
            p = d[t][t]
            if abs(p) == 1:
                break
            # pivot must divide every remaining entry for the divisor chain
            culprit = next(
                (i for i in range(t + 1, m) if any(x % p for x in d[i].values())), None
            )
            if culprit is None:
                break
            row_sub(t, culprit, -1)  # drag the offending row into play

        if d[t][t] < 0:  # row t of D holds only the pivot now
            d[t][t] = -d[t][t]
            u[t] = {c: -x for c, x in u[t].items()}
        t += 1

    dense_v = [[0] * n for _ in range(n)]
    for j, col in enumerate(v):
        for i, x in col.items():
            dense_v[i][j] = x
    return _dense(u, m), _dense(d, n), dense_v


def _sub(dst: dict, src: dict, q: int, index: Optional[list] = None, owner: int = -1) -> None:
    """dst -= q * src on {position: nonzero} vectors.  With index given,
    index[k] is kept the set of owners whose vector holds position k."""
    for k, y in src.items():
        x = dst.get(k, 0) - q * y
        if x:
            if index is not None and k not in dst:
                index[k].add(owner)
            dst[k] = x
        elif k in dst:
            del dst[k]
            if index is not None:
                index[k].remove(owner)


def _dense(rows: list[dict], width: int) -> Matrix:
    out = [[0] * width for _ in rows]
    for line, row in zip(out, rows):
        for j, x in row.items():
            line[j] = x
    return out


def diagonal_of(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def rank(a: Matrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    m = len(a)
    n = len(a[0]) if m else 0
    w = [list(map(int, row)) for row in a]
    r = 0
    prev = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if w[i][c]:
                piv = i
                break
        if piv is None:
            continue
        w[r], w[piv] = w[piv], w[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                w[i][j] = (w[r][c] * w[i][j] - w[i][c] * w[r][j]) // prev
            w[i][c] = 0
        prev = w[r][c]
        r += 1
        if r == m:
            break
    return r


def determinant(a: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a)
    w = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if not w[c][c]:
            piv = next((i for i in range(c + 1, n) if w[i][c]), None)
            if piv is None:
                return 0
            w[c], w[piv] = w[piv], w[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                w[i][j] = (w[c][c] * w[i][j] - w[i][c] * w[c][j]) // prev
            w[i][c] = 0
        prev = w[c][c]
    return sign * w[n - 1][n - 1]


def kernel_basis(a: Matrix) -> list[list[int]]:
    """Integer basis of the kernel lattice {x : a*x = 0}."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return identity_matrix(n)
    _, d, v = smith_normal_form(a)
    basis = []
    for j in range(n):
        if j >= m or d[j][j] == 0:
            basis.append([v[i][j] for i in range(n)])
    return basis
