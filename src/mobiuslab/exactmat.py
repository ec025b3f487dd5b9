"""Dense exact-arithmetic matrix helpers.

Matrices are plain lists of row lists.  Entries are Python ints (arbitrary
precision); no floating point is used anywhere in this package.
"""


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    oi[j] += a * Bt[j]
    return out


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def bareiss_det(A):
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination with row pivoting."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (pivot * Mi[j] - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def int_row_rank(A):
    """Rank over the rationals of an integer matrix, by fraction-free
    row reduction."""
    if not A or not A[0]:
        return 0
    M = [row[:] for row in A]
    rows, cols = len(M), len(M[0])
    rank = 0
    pivot_col = 0
    while rank < rows and pivot_col < cols:
        pr = None
        for r in range(rank, rows):
            if M[r][pivot_col] != 0:
                pr = r
                break
        if pr is None:
            pivot_col += 1
            continue
        M[rank], M[pr] = M[pr], M[rank]
        piv = M[rank][pivot_col]
        for r in range(rank + 1, rows):
            val = M[r][pivot_col]
            if val:
                M[r] = [piv * x - val * y for x, y in zip(M[r], M[rank])]
        rank += 1
        pivot_col += 1
    return rank
