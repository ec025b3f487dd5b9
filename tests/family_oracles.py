"""Oracles for the lattice families of mobiuslab.instances and for
matroid.flats_lattice that share no code with them: partitions enumerated
one by one and merged through restricted-growth strings, contraction
lattices as the partitions whose cells are connected, subspaces spanned as
sets of tuples and ordered by testing every pair for containment, divisors
found by trial of every integer up to n, and flats closed by GF(q) rank.
Imported by test_instances.py and test_matroid.py.
"""

from itertools import combinations

from mobiuslab.instances import _Field
from mobiuslab.posets import Poset


def rgs(blocks, n):
    """Restricted-growth string of a partition given as an iterable of
    iterables of 0-based points."""
    owner = [None] * n
    for b, cell in enumerate(blocks):
        for x in cell:
            owner[x] = b
    relabel = {}
    out = []
    for x in range(n):
        if owner[x] not in relabel:
            relabel[owner[x]] = len(relabel)
        out.append(relabel[owner[x]])
    return "".join(str(d) for d in out)


def all_partitions(n):
    """Every set partition of {0..n-1} as a tuple of sorted tuples, in
    lexicographic restricted-growth order."""

    def rec(x, blocks):
        if x == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for i in range(len(blocks)):
            blocks[i].append(x)
            yield from rec(x + 1, blocks)
            blocks[i].pop()
        blocks.append([x])
        yield from rec(x + 1, blocks)
        blocks.pop()

    return rec(0, [])


def partition_poset(partitions, n):
    """Poset of the given partitions under refinement, with RGS labels
    and arcs from every block merge that stays inside the family."""
    labels = [rgs(p, n) for p in partitions]
    pos = {lab: i for i, lab in enumerate(labels)}
    arcs = []
    for p in partitions:
        lab = rgs(p, n)
        for i, j in combinations(range(len(p)), 2):
            merged = [list(b) for k, b in enumerate(p) if k not in (i, j)]
            merged.append(sorted(p[i] + p[j]))
            target = rgs(merged, n)
            if target in pos:
                arcs.append((pos[lab], pos[target]))
    return Poset._from_arcs(labels, arcs)


def partition_lattice(n):
    return partition_poset(list(all_partitions(n)), n)


def contraction_lattice(G):
    """All Bell(n) partitions of the vertices, kept when every cell
    induces a connected subgraph."""
    adj = [set() for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected_cell(cell):
        cell = set(cell)
        start = next(iter(cell))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()] & cell:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == cell

    kept = [p for p in all_partitions(G.n)
            if all(connected_cell(c) for c in p)]
    return partition_poset(kept, G.n)


def subspace_lattice(q, n):
    """Subspaces of GF(q)^n as frozensets of tuples, spanned one vector at
    a time; an arc for every strict containment."""
    F = _Field(q)
    vectors = [()]
    for _ in range(n):
        vectors = [v + (c,) for v in vectors for c in range(q)]
    zero = tuple([0] * n)

    def span(vecs):
        out = {zero}
        for v in vecs:
            if v in out:
                continue
            add = []
            for c in range(1, q):
                cv = tuple(F.mul(c, x) for x in v)
                for s in out:
                    add.append(tuple(F.add(a, b) for a, b in zip(cv, s)))
            out.update(add)
        return frozenset(out)

    subspaces = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        S = frontier.pop()
        for v in vectors:
            if v not in S:
                T = span(list(S) + [v])
                if T not in subspaces:
                    subspaces.add(T)
                    frontier.append(T)

    def rref_label(S):
        """The pivot rows are the monic vectors that are zero in every
        earlier pivot column, fully reduced (lex-least)."""
        nonzero = sorted(v for v in S if v != zero)
        rows = []
        pivots = []
        for col in range(n):
            cands = []
            for v in nonzero:
                if v[col] == 0 or any(v[c] != 0 for c in pivots):
                    continue
                inv = next(c for c in range(1, q) if F.mul(c, v[col]) == 1)
                cands.append(tuple(F.mul(inv, x) for x in v))
            if cands:
                pivots.append(col)
                rows.append(min(cands))
        return ",".join("".join(map(str, v)) for v in rows)

    subspaces = sorted(subspaces, key=lambda S: (len(S), sorted(S)))
    arcs = [(i, j) for i, S in enumerate(subspaces)
            for j, T in enumerate(subspaces) if i != j and S < T]
    return Poset._from_arcs([rref_label(S) for S in subspaces], arcs)


def divisor_lattice(n):
    """Every divisibility pair among the divisors found by trial."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    arcs = [(i, j) for i, a in enumerate(divs) for j, b in enumerate(divs)
            if i != j and b % a == 0]
    return Poset._from_arcs(divs, arcs)


def gf_rank(rows, F):
    """Rank over GF(q) of a list of vectors, by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows))
                      if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = next(c for c in range(1, F.q) if F.mul(c, rows[rank][col]) == 1)
        rows[rank] = [F.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                neg = next(s for s in range(F.q)
                           if F.add(s, rows[i][col]) == 0)
                rows[i] = [F.add(a, F.mul(neg, b))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def flats_lattice(generator, q):
    """Closed column sets of the generator matrix: closure(T) = the
    columns whose addition leaves the GF(q) rank unchanged, grown from the
    empty closure one column at a time; an arc for every strict
    containment.  Labels are the sorted column tuples."""
    F = _Field(q)
    k = len(generator)
    ncols = len(generator[0])
    columns = [tuple(generator[i][j] for i in range(k))
               for j in range(ncols)]

    def col_rank(T):
        return gf_rank([columns[j] for j in T], F)

    def closure(T):
        r = col_rank(T)
        return frozenset(j for j in range(ncols)
                         if j in T or col_rank(list(T) + [j]) == r)

    flats = {closure([])}
    frontier = [closure([])]
    while frontier:
        Fl = frontier.pop()
        for j in range(ncols):
            if j not in Fl:
                G2 = closure(list(Fl) + [j])
                if G2 not in flats:
                    flats.add(G2)
                    frontier.append(G2)
    flats = sorted(flats, key=lambda S: (len(S), sorted(S)))
    arcs = [(i, j) for i, S in enumerate(flats) for j, T in enumerate(flats)
            if i != j and S < T]
    return Poset._from_arcs([tuple(sorted(S)) for S in flats], arcs)


def same_order(P, Q):
    """The fields that fix a poset and every byte the CLI prints of it."""
    return (P.labels, P.up, P.down, P.upper, P.lower) == (
        Q.labels, Q.up, Q.down, Q.upper, Q.lower)
