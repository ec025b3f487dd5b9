"""Seeded checks of the order kernel in Poset._from_arcs and of the Mobius
rows, columns, entries and matrix, against the oracles in
order_oracles.py.  Unlike test_order_kernel.py they need no hypothesis,
and they reach the dense regime: random DAGs up to 300 elements at
densities 0.05 and 0.3, with shuffled labels and repeated and
transitively implied arcs, plus lattices and an ordinal sum whose rows
have many distinct values.
"""

import random
from collections import Counter

import pytest

from order_oracles import (bits, build, cover_pairs, mobius_rows,
                           poset_with_zero, scan_atoms, scan_coatoms,
                           scan_heights, smallest_ready_order)

from mobiuslab.instances import (boolean_lattice, contraction_lattice,
                                 cycle_graph, divisor_lattice,
                                 partition_lattice, subspace_lattice)
from mobiuslab.lattices import Lattice
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
    assert cover_pairs(P) == covers
    # lower is the transpose of upper, both increasing
    assert P.lower == [[i for i, j in covers if j == k] for k in range(n)]
    assert P.heights() == scan_heights(n, covers)
    Q = Poset._from_arcs(labels, index_arcs)
    assert (Q.labels, Q.up, Q.down, Q.upper, Q.lower) == (
        P.labels, P.up, P.down, P.upper, P.lower)
    # atoms and coatoms against pair scans, on a seeded lattice of sets
    L = Lattice(poset_with_zero(random.Random(f"{n}/{density}"), True,
                                sets=True))
    pairs = [(i, j) for i in range(L.n) for j in bits(L.up[i])
             if (L.up[i] & L.down[j]).bit_count() == 2]
    assert L.atoms() == scan_atoms(pairs, L.zero)
    assert L.coatoms() == scan_coatoms(pairs, L.one)


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


def ordinal_sum(sizes):
    """A bottom element below antichains of the given sizes, each level
    wholly below the next.  mu(0, x) at level i is
    -prod_{j < i} (1 - k_j), so with every k_j >= 3 row 0 holds one
    distinct value per level."""
    labels, levels = ["0"], [["0"]]
    for i, k in enumerate(sizes):
        levels.append([f"{i}.{t}" for t in range(k)])
        labels += levels[-1]
    covers = [(lo, hi) for below, above in zip(levels, levels[1:])
              for lo in below for hi in above]
    return Poset.from_covers(labels, covers)


LEVELS = [3, 5, 3, 4, 7, 3, 6, 3, 4, 5, 3]
STRUCTURED = {
    "Pi_6": lambda: partition_lattice(6),
    "B_7": lambda: boolean_lattice(7),
    "L_3(3)": lambda: subspace_lattice(3, 3),
    "D_55440": lambda: divisor_lattice(55440),
    "C_6 contraction": lambda: contraction_lattice(cycle_graph(6)),
    "ordinal sum": lambda: ordinal_sum(LEVELS),
}


@pytest.mark.parametrize("name", STRUCTURED)
def test_rows_and_columns_on_structured_posets(name):
    P = STRUCTURED[name]()
    n = P.n
    up = [frozenset(bits(m)) for m in P.up]
    down = [frozenset(bits(m)) for m in P.down]
    M = P.mobius_matrix()
    assert [P.mobius_row(a) for a in range(n)] == M
    assert [P.mobius_col(b) for b in range(n)] == [list(c) for c in zip(*M)]
    rows = random.Random(n).sample(range(n), min(n, 12)) + [0]
    want = mobius_rows(n, up, down, rows)
    assert [M[a] for a in rows] == [want[a] for a in rows]


def test_ordinal_sum_row_has_one_value_class_per_level():
    row = ordinal_sum(LEVELS).mobius_row(0)
    assert len(set(row)) == len(LEVELS) + 1
    want, total = [1], 1
    for k in LEVELS:
        want += [-total] * k
        total -= k * total
    assert row == want


@pytest.mark.parametrize("n, density", CASES)
def test_mobius_idx_on_random_posets(n, density):
    labels, arcs = random_dag(n, density, seed=n + 2)
    P = Poset.from_covers(labels, arcs)
    seen = check_mobius_idx(P, random.Random(n))
    if n >= 30:
        assert seen["strict part"] and seen["reversed"]
        assert seen["incomparable"]


@pytest.mark.parametrize("name", STRUCTURED)
def test_mobius_idx_on_structured_posets(name):
    P = STRUCTURED[name]()
    seen = check_mobius_idx(P, random.Random(P.n))
    assert seen["strict part"] and seen["reversed"]
    assert seen["incomparable"]


def check_mobius_idx(P, rng):
    """1 on the diagonal, 0 on incomparable and reversed pairs, and the
    row entry on comparable pairs, among them pairs whose interval is a
    strict part of the up-set, so that the walk over the interval alone
    is what is checked."""
    n = P.n
    rows = range(n) if n <= 30 else rng.sample(range(n), 10)
    seen = Counter()
    for a in rows:
        row = P.mobius_row(a)
        for b in range(n):
            got = P.mobius_idx(a, b)
            if a == b:
                kind = "diagonal"
                assert got == 1
            elif P.down[a] >> b & 1:
                kind = "reversed"
                assert got == 0
            elif not P.up[a] >> b & 1:
                kind = "incomparable"
                assert got == 0
            else:
                kind = ("strict part" if P.up[a] & P.down[b] != P.up[a]
                        else "whole up-set")
                assert got == row[b]
            seen[kind] += 1
    return seen
