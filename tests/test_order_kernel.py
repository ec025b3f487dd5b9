"""Property tests of the bitmask order kernel in Poset._from_arcs and the
Mobius recursions, against the oracles in order_oracles.py, which share
no code with it.

Inputs are random DAGs: labels in shuffled order, arcs drawn along a
hidden topological order, with duplicated and transitively implied
arcs mixed in, and up to 450 elements.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from order_oracles import (bits, build, chain_sum,  # noqa: E402
                           cover_pairs, mobius_rows, smallest_ready_order)

from mobiuslab.posets import Poset  # noqa: E402


@st.composite
def dags(draw, max_n):
    """(labels, arcs): arcs are (label, label) pairs of a random DAG."""
    n = draw(st.integers(0, max_n))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.sample(range(10 * n + 1), n)
    hidden = rng.sample(range(n), n)
    arcs = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 3 * n))):
            a, b = sorted(rng.sample(range(n), 2))
            arcs.append((hidden[a], hidden[b]))
        # redundant input: repeated arcs and arcs implied by two others
        extra = []
        for i, j in arcs[:n]:
            extra.append((i, j))
            extra += [(i, k) for j2, k in arcs[:n] if j2 == j]
        arcs += extra
        rng.shuffle(arcs)
    return labels, [(labels[i], labels[j]) for i, j in arcs]


@settings(max_examples=60, deadline=None)
@given(dags(450))
def test_closure_covers_and_linear_extension(dag):
    labels, arcs = dag
    P, up, down, index_arcs = build(labels, arcs)
    n = len(labels)
    order = smallest_ready_order(n, index_arcs)
    assert P.labels == [labels[i] for i in order]
    assert [set(bits(m)) for m in P.up] == [set(s) for s in up]
    assert [set(bits(m)) for m in P.down] == [set(s) for s in down]
    covers = sorted((i, j) for i in range(n) for j in up[i]
                    if j != i and len(up[i] & down[j]) == 2)
    assert cover_pairs(P) == covers


@settings(max_examples=60, deadline=None)
@given(dags(450), st.randoms(use_true_random=False))
def test_mobius_against_back_substitution(dag, rng):
    labels, arcs = dag
    P, up, down, _ = build(labels, arcs)
    n = P.n
    if n == 0:
        return
    picks = rng.sample(range(n), min(n, 4))
    want = mobius_rows(n, up, down, range(n) if n <= 40 else picks)
    for a in picks:
        assert P.mobius_row(a) == want[a]
    for b in picks:
        col = P.mobius_col(b)
        assert all(col[a] == want[a][b] for a in want)
    fresh = Poset.from_covers(labels, arcs)
    for a in want:
        for b in rng.sample(range(n), min(n, 8)):
            assert fresh.mobius_idx(a, b) == want[a][b]


@settings(max_examples=100, deadline=None)
@given(dags(8))
def test_mobius_matches_hall_chain_sums(dag):
    labels, arcs = dag
    P, up, _, _ = build(labels, arcs)
    for a in range(P.n):
        row = P.mobius_row(a)
        for b in range(P.n):
            want = chain_sum(up, a, b) if b in up[a] else 0
            assert row[b] == want
            assert P.mobius_col(b)[a] == want
