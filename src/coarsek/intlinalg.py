"""Exact integer linear algebra on small matrices.

Matrices are lists of rows of Python ints, so there is no overflow and no
floating point anywhere.  Smith normal form pivots naively but works on
sparse storage: it takes the matrix as one {column: nonzero entry} dict per
row, and keeps D as such rows plus a column-to-rows index and V as one
dict per column, so a swap, a row operation or a column operation costs the
nonzeros it touches, not a full row or column.  The row operations are not
recorded: no caller reads U, so only D and V are kept, and returned as
stored.  The incidence matrix of a graph is totally unimodular, so its
pivots are units, and the loop skips the work a unit makes pointless: the
pivot search stops at the first unit (the first strict minimum it would
keep anyway) and the divisor-chain scan is skipped (a unit divides
everything).  Only no-op work is skipped, so (D, V) is exactly what the
plain dense loop returns.
"""

from __future__ import annotations

Matrix = list[list[int]]
Sparse = list[dict[int, int]]


def smith_normal_form(rows: Sparse, n: int) -> tuple[Sparse, Sparse]:
    """Return (D, V) with U*a*V = D for some unimodular U, V unimodular and
    D diagonal with each diagonal entry dividing the next, where a is the
    m x n matrix whose row i is rows[i] as {column: nonzero entry}.  The
    rows are copied, not changed.  D is a list of rows and V a list of
    columns, each a {position: nonzero entry} dict."""
    m = len(rows)
    d = [dict(row) for row in rows]  # row i of D as {column: nonzero entry}
    cols = [set() for _ in range(n)]  # column j of D as the rows holding it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    v = [{j: 1} for j in range(n)]  # column j of V as {row: entry}

    def swap_rows(i, j):
        for c in d[i].keys() ^ d[j].keys():
            cols[c] ^= {i, j}  # held by one of the two rows: move it over
        d[i], d[j] = d[j], d[i]

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
        # row_i -= q * row_j, keeping the column index
        dst = d[i]
        for k, y in d[j].items():
            x = dst.get(k, 0) - q * y
            if x:
                if k not in dst:
                    cols[k].add(i)
                dst[k] = x
            elif k in dst:
                del dst[k]
                cols[k].remove(i)

    def col_sub(i, j, q):
        # col_i -= q * col_j, in place on the rows holding column j
        for r in cols[j]:
            row = d[r]
            x = row.get(i, 0) - q * row[j]
            if x:
                if i not in row:
                    cols[i].add(r)
                row[i] = x
            elif i in row:
                del row[i]
                cols[i].remove(r)
        dst = v[i]
        for k, y in v[j].items():
            x = dst.get(k, 0) - q * y
            if x:
                dst[k] = x
            elif k in dst:
                del dst[k]

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
        t += 1

    return d, v


def diagonal_of(d: Sparse) -> list[int]:
    """D[i][i] for every row i of the sparse D, 0 past the last column: the
    cokernel of the factored matrix is the sum of the Z/D[i][i]."""
    return [row.get(i, 0) for i, row in enumerate(d)]


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
