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
operations are not recorded; after the row sweep the pivot is alone in its
column, so the column sweep only clears the pivot's row of D and does its
arithmetic on V alone.
"""

from __future__ import annotations

Matrix = list[list[int]]
Sparse = list[dict[int, int]]


def smith_normal_form(rows: Sparse, n: int) -> tuple[Sparse, Sparse]:
    """Return (D, V) with U*a*V = D for some unimodular U, V unimodular and
    D diagonal with its ones before its zeros, where a is the m x n matrix
    whose row i is rows[i] as {column: nonzero entry}.  The rows are
    copied, not changed.  D is a list of rows and V a list of columns, each
    a {position: nonzero entry} dict.  Each step swaps a +-1 pivot into
    place, clears its column by row operations and then its row by column
    operations, whose sums touch only V.  Raises ValueError naming the
    first step whose remaining block is nonzero but holds no +-1."""
    m = len(rows)
    d = [dict(row) for row in rows]  # row i of D as {column: nonzero entry}
    cols = [set() for _ in range(n)]  # column j of D as the rows holding it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    v = [{j: 1} for j in range(n)]  # column j of V as {row: entry}

    for t in range(min(m, n)):
        # the first row from t on that holds a +-1, at its least such column
        # (rows from t on hold nothing left of column t)
        for i in range(t, m):
            units = [j for j, x in d[i].items() if x == 1 or x == -1]
            if units:
                j = min(units)
                break
        else:  # no row holds a +-1: done if the rest is zero, else refused
            if any(d[t:]):
                raise ValueError(
                    f"smith_normal_form: no unit pivot at step {t}; "
                    "the matrix is not totally unimodular"
                )
            break
        if i != t:  # swap rows i and t
            for c in d[i].keys() ^ d[t].keys():
                cols[c] ^= {i, t}  # held by one of the two rows: move it over
            d[i], d[t] = d[t], d[i]
        if j != t:  # swap columns j and t
            for r in cols[j] | cols[t]:
                row = d[r]
                x, y = row.pop(j, 0), row.pop(t, 0)
                if x:
                    row[t] = x
                if y:
                    row[j] = y
            cols[j], cols[t] = cols[t], cols[j]
            v[j], v[t] = v[t], v[j]
        top = d[t]
        p = top.pop(t)  # +-1, its own inverse
        # row sweep: row_i -= q * row_t clears column t off the pivot (the
        # pivot is out of row t, so each row drops its entry there itself)
        cols[t], below = {t}, cols[t] - {t}
        for i in below:
            dst = d[i]
            q = dst.pop(t) * p
            for k, y in top.items():
                if k in dst:
                    x = dst[k] - q * y
                    if x:
                        dst[k] = x
                    else:
                        del dst[k]
                        cols[k].remove(i)
                else:
                    dst[k] = -q * y
                    cols[k].add(i)
        # column sweep: col_j -= q * col_t.  Column t of D holds only the
        # pivot now, so in D it just clears row t; only V needs the sums.
        vt = v[t]
        for j, y in top.items():
            cols[j].remove(t)
            q = y * p
            dst = v[j]
            for k, z in vt.items():
                if k in dst:
                    x = dst[k] - q * z
                    if x:
                        dst[k] = x
                    else:
                        del dst[k]
                else:
                    dst[k] = -q * z
        d[t] = {t: 1}  # the pivot, negated if need be

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
