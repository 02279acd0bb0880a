"""Exact integer linear algebra on small matrices.

Matrices are lists of rows of Python ints, so there is no overflow and no
floating point anywhere.  Smith normal form takes only matrices whose
elimination meets a unit pivot at every step, which every totally
unimodular matrix does, the incidence matrix of a graph among them
(Schrijver, Theory of Linear and Integer Programming, ch. 19): one sweep of
row and column operations per +-1 pivot diagonalises the matrix, so D holds
only ones and zeros and the cokernel has no torsion.  A matrix whose
remaining block is nonzero but holds no +-1 is refused with ValueError.
The matrix comes as one {column: nonzero entry} dict per row; D is kept as
such rows plus a column-to-rows index and V as one dict per column, so an
operation costs the nonzeros it touches.  No caller reads U, so the row
operations are not recorded.
"""

from __future__ import annotations

Matrix = list[list[int]]
Sparse = list[dict[int, int]]


def smith_normal_form(rows: Sparse, n: int) -> tuple[Sparse, Sparse]:
    """Return (D, V) with U*a*V = D for some unimodular U, V unimodular and
    D diagonal with its ones before its zeros, where a is the m x n matrix
    whose row i is rows[i] as {column: nonzero entry}.  The rows are
    copied, not changed.  D is a list of rows and V a list of columns, each
    a {position: nonzero entry} dict.  Raises ValueError naming the first
    step whose remaining block is nonzero but holds no +-1."""
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

    for t in range(min(m, n)):
        # the first row from t on that holds a +-1, at its least such column
        # (rows from t on hold nothing left of column t)
        piv = None
        for i in range(t, m):
            units = [j for j, x in d[i].items() if x == 1 or x == -1]
            if units:
                piv = i, min(units)
                break
        if piv is None:
            if any(d[t:]):
                raise ValueError(
                    f"smith_normal_form: no unit pivot at step {t}; "
                    "the matrix is not totally unimodular"
                )
            break
        if piv[0] != t:
            swap_rows(piv[0], t)
        if piv[1] != t:
            swap_cols(piv[1], t)
        p = d[t][t]  # +-1, its own inverse
        for i in cols[t] - {t}:
            row_sub(i, t, d[i][t] * p)
        for j in d[t].keys() - {t}:
            col_sub(j, t, d[t][j] * p)
        d[t][t] = 1  # row t holds only the pivot now: negate it if need be

    return d, v


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
