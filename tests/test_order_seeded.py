"""Seeded checks of the order kernel in Poset._from_arcs and of the Mobius
matrix, against the oracles in order_oracles.py.  Unlike
test_order_kernel.py they need no hypothesis, and they reach the dense
regime: random DAGs up to 300 elements at densities 0.05 and 0.3, with
shuffled labels and repeated and transitively implied arcs.
"""

import random

import pytest

from order_oracles import bits, build, mobius_rows, smallest_ready_order

from mobiuslab.posets import Poset


def random_dag(n, density, seed):
    """(labels, arcs): labels are n shuffled ints and arcs label pairs.
    Each pair of a hidden order is an arc with probability `density`;
    then a tenth of the arcs are repeated and up to n arcs implied by
    two others are added, all in shuffled order."""
    rng = random.Random(seed)
    labels = rng.sample(range(10 * n + 1), n)
    hidden = rng.sample(range(n), n)
    arcs = [(hidden[a], hidden[b]) for a in range(n)
            for b in range(a + 1, n) if rng.random() < density]
    succ = {}
    for i, j in arcs:
        succ.setdefault(i, []).append(j)
    extra = rng.sample(arcs, len(arcs) // 10)
    for i, j in rng.sample(arcs, min(n, len(arcs))):
        if j in succ:
            extra.append((i, rng.choice(succ[j])))
    arcs += extra
    rng.shuffle(arcs)
    return labels, [(labels[i], labels[j]) for i, j in arcs]


CASES = [(n, density) for n in (0, 1, 2, 5, 30, 120, 300)
         for density in (0.05, 0.3)]


@pytest.mark.parametrize("n, density", CASES)
def test_closure_covers_and_linear_extension(n, density):
    labels, arcs = random_dag(n, density, seed=n)
    P, up, down, index_arcs = build(labels, arcs)
    order = smallest_ready_order(n, index_arcs)
    assert P.labels == [labels[i] for i in order]
    assert [set(bits(m)) for m in P.up] == [set(s) for s in up]
    assert [set(bits(m)) for m in P.down] == [set(s) for s in down]
    covers = sorted((i, j) for i in range(n) for j in up[i]
                    if j != i and len(up[i] & down[j]) == 2)
    assert P.covers == covers


@pytest.mark.parametrize("n, density", CASES)
def test_mobius_matrix_against_rows_columns_and_oracle(n, density):
    labels, arcs = random_dag(n, density, seed=n + 1)
    P, up, down, _ = build(labels, arcs)
    M = P.mobius_matrix()
    assert M == [P.mobius_row(a) for a in range(n)]
    assert [list(col) for col in zip(*M)] == [P.mobius_col(b)
                                              for b in range(n)]
    rows = range(n) if n <= 30 else random.Random(n).sample(range(n), 12)
    want = mobius_rows(n, up, down, rows)
    assert [M[a] for a in rows] == [want[a] for a in rows]


def test_mobius_matrix_keeps_nothing_between_calls():
    # posets of one size in turn, each matrix edited after it is checked:
    # a table kept from an earlier call, on the poset or anywhere else,
    # would show in a later matrix
    posets = [Poset.from_covers(*random_dag(40, density, seed))
              for seed, density in enumerate((0.05, 0.3, 0.05, 0.3))]
    for P in posets + posets:
        attrs = set(vars(P))
        M = P.mobius_matrix()
        assert M == [P.mobius_row(a) for a in range(P.n)]
        assert set(vars(P)) == attrs
        for row in M:
            row[-1] += 99
