import random
from fractions import Fraction

from mobiuslab.exactmat import bareiss_det, int_row_rank


def fraction_rank_det(A):
    """Rank and, for a square A, determinant by Gaussian elimination over
    the rationals."""
    M = [[Fraction(x) for x in row] for row in A]
    rows, cols = len(M), len(M[0]) if M else 0
    rank, det = 0, Fraction(1)
    for c in range(cols):
        r = next((r for r in range(rank, rows) if M[r][c]), None)
        if r is None:
            continue
        if r != rank:
            M[rank], M[r] = M[r], M[rank]
            det = -det
        det *= M[rank][c]
        for i in range(rank + 1, rows):
            f = M[i][c] / M[rank][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank, det if rank == rows else 0


def seeded_matrices(count, seed=61):
    """Square and rectangular integer matrices; some rows are sums of
    others, some columns are zero, and some entries are large."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        if rng.random() < 0.4:
            cols = rows
        size = rng.choice((1, 3, 10 ** 12))
        A = [[rng.randint(-size, size) for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(rows), 2)
            A[i] = [x + y for x, y in zip(A[i], A[j])]
        if rng.random() < 0.3:
            c = rng.randrange(cols)
            for row in A:
                row[c] = 0
        yield A


def test_elimination_matches_fraction_oracle():
    for A in [*seeded_matrices(300), [[0, 0], [0, 0]], [[0, 1], [1, 0]],
              [[0, 0, 1], [0, 2, 3]], [[1, 2], [2, 4]]]:
        rank, det = fraction_rank_det(A)
        assert int_row_rank(A) == rank, A
        if len(A) == len(A[0]):
            assert bareiss_det(A) == det, A


def test_seeded_matrices_cover_every_case():
    kinds = set()
    for A in seeded_matrices(300):
        square = len(A) == len(A[0])
        rank, _ = fraction_rank_det(A)
        kinds.add((square, rank == min(len(A), len(A[0]))))
        kinds.add(("zero column", not all(map(any, zip(*A)))))
    assert kinds >= {(True, True), (True, False), (False, True),
                     (False, False), ("zero column", True)}


def test_empty_matrix():
    assert bareiss_det([]) == 1
    assert int_row_rank([]) == 0
