"""Property tests of the bitmask order kernel in Poset._from_arcs and the
Mobius recursions, against oracles that share no code with it.

Inputs are random DAGs: labels in shuffled order, arcs drawn along a
hidden topological order, with duplicated and transitively implied
arcs mixed in, and up to 450 elements.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mobiuslab.posets import Poset


def bits(mask):
    """Indices of the set bits of an order mask, in increasing order."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


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


def reachable(n, arcs):
    """reach[i] = set of j with a directed path i -> ... -> j (i included),
    by a depth-first search from every vertex."""
    succ = [[] for _ in range(n)]
    for i, j in arcs:
        succ[i].append(j)
    reach = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return reach


def smallest_ready_order(n, arcs):
    """Kahn's algorithm that always places the smallest ready index."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in set(arcs):
        succ[i].append(j)
        indeg[j] += 1
    order = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        i = min(ready)
        ready.remove(i)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return order


def mobius_rows(n, up, down, rows):
    """Rows of the Mobius matrix by back-substitution over frozensets:
    mu(a,b) = -sum over a <= x < b of mu(a,x), b in increasing order."""
    out = {}
    for a in rows:
        row = [0] * n
        row[a] = 1
        for b in sorted(up[a]):
            if b != a:
                row[b] = -sum(row[x] for x in up[a] & down[b] if x != b)
        out[a] = row
    return out


def chain_sum(up, a, b):
    """Hall: mu(a,b) = sum over chains a = x0 < ... < xk = b of (-1)^k."""
    if a == b:
        return 1
    return -sum(chain_sum(up, x, b) for x in up[a] if x != a and b in up[x])


def build(labels, arcs):
    """The poset, plus the oracle's frozenset up- and down-sets in the
    poset's own element indices."""
    P = Poset.from_covers(labels, arcs)
    n = len(labels)
    where = {lab: k for k, lab in enumerate(labels)}
    index_arcs = [(where[a], where[b]) for a, b in arcs]
    reach = reachable(n, index_arcs)
    to_P = [P.index[lab] for lab in labels]
    up = [None] * n
    for i in range(n):
        up[to_P[i]] = frozenset(to_P[j] for j in reach[i])
    down = [frozenset(i for i in range(n) if j in up[i]) for j in range(n)]
    return P, up, down, index_arcs


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
    assert P.covers == covers


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
