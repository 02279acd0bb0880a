"""Exact integer linear algebra on small dense matrices.

Matrices are lists of rows of Python ints, so there is no overflow and no
floating point anywhere.  Sizes here are graph-sized (a few hundred rows at
most).  Smith normal form pivots naively.  The incidence matrix of a graph is
totally unimodular, so its pivots are units, and the loop skips the work a
unit makes pointless: the pivot search stops at the first unit (the first
strict minimum it would keep anyway), the divisor-chain scan is skipped (a
unit divides everything), and a column operation touches only the rows where
its source column is nonzero.  Only no-op work is skipped, so (U, D, V) is
exactly what the plain loop returns.
"""

from __future__ import annotations

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
    d = [list(map(int, row)) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q, rows):
        # col_i -= q * col_j, on rows of d and v holding every nonzero of col_j
        for row in rows:
            row[i] -= q * row[j]

    t = 0
    while t < min(m, n):
        # global pivot search: first smallest nonzero magnitude in the tail
        # block, row-major; nothing beats a unit, so stop at the first one
        piv, best = None, 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                if row[j] and (piv is None or abs(row[j]) < best):
                    piv, best = (i, j), abs(row[j])
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(piv[0], t)
        if piv[1] != t:
            swap_cols(piv[1], t)

        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_sub(i, t, q)
                    if d[i][t]:
                        # remainder is strictly smaller: promote it to pivot
                        swap_rows(i, t)
                        dirty = True
            rows = [row for row in d + v if row[t]]
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_sub(j, t, q, rows)
                    if d[t][j]:
                        swap_cols(j, t)
                        rows = [row for row in d + v if row[t]]
                        dirty = True
            # a sweep without a swap has cleared column t below the pivot and
            # row t to its right; a unit pivot divides every remaining entry
            if dirty:
                continue
            if abs(d[t][t]) == 1:
                break
            # pivot must divide every remaining entry for the divisor chain
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_sub(t, culprit, -1)  # drag the offending row into play

        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return u, d, v


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
