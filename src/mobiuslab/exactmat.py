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


def _eliminate(A):
    """Fraction-free (Bareiss) forward elimination of an integer matrix
    with row pivoting; a column with no pivot is skipped.  Returns the
    rank over the rationals and, for a square matrix, the determinant.

    After k pivots every entry still to be read is a (k+1)-minor of A
    (Sylvester's identity), so each division by the last pivot is
    exact."""
    M = [row[:] for row in A]
    rows, cols = len(M), len(M[0]) if M else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        r = next((r for r in range(rank, rows) if M[r][c] != 0), None)
        if r is None:
            continue
        if r != rank:
            M[rank], M[r] = M[r], M[rank]
            sign = -sign
        Mk, pivot = M[rank], M[rank][c]
        for Mi in M[rank + 1:]:
            mic = Mi[c]
            # a row with 0 under an unchanged pivot stays as it is
            if mic or pivot != prev:
                for j in range(c + 1, cols):
                    Mi[j] = (pivot * Mi[j] - mic * Mk[j]) // prev
                Mi[c] = 0
        prev = pivot
        rank += 1
    return rank, sign * prev if rank == rows == cols else 0


def bareiss_det(A):
    """Exact determinant of a square integer matrix."""
    return _eliminate(A)[1]


def int_row_rank(A):
    """Rank over the rationals of an integer matrix."""
    return _eliminate(A)[0]
