"""Deterministic generators: boolean, divisor, subspace, partition and
graph contraction lattices, chains, and seeded random posets, trees and
graphs."""

import random
from itertools import combinations

from .guards import TREE_VERTICES, check_size
from .lattices import Lattice
from .posets import Poset

_ALPHABET = "123456789abcdefg"


class Graph:
    """Simple undirected graph: vertex count and canonical edge list."""

    def __init__(self, n, edges):
        self.n = n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references a missing vertex")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            seen.add((min(u, v), max(u, v)))
        self.edges = sorted(seen)

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_connected(self):
        if self.n == 0:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges})"


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# -- subset, chain, divisor families -------------------------------------

def boolean_lattice(n):
    """Subsets of an n-set, labeled by sorted character strings
    (the empty set is '')."""
    check_size("boolean_lattice", n, 16)
    if n < 0:
        raise ValueError("n must be nonnegative")
    labels = []
    for mask in range(1 << n):
        labels.append("".join(_ALPHABET[i] for i in range(n)
                              if mask >> i & 1))
    pos = {lab: i for i, lab in enumerate(labels)}
    arcs = []
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1:
                arcs.append((pos[labels[mask]], pos[labels[mask | 1 << i]]))
    return Lattice(Poset._from_arcs(labels, arcs))


def chain(n):
    """The chain 0 < 1 < ... < n (n + 1 elements)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # every element is comparable with every other, so the up- and
    # down-set masks hold about (n + 1)^2 / 16 bytes each
    check_size("chain", n + 1, 2 * 10 ** 4)
    return Poset._from_arcs(list(range(n + 1)),
                            [(i, i + 1) for i in range(n)])


def divisor_lattice(n):
    """Divisors of n ordered by divisibility."""
    if n < 1:
        raise ValueError("n must be positive")
    check_size("divisor_lattice", n, 10 ** 6)
    divs = sorted(d for d in range(1, n + 1) if n % d == 0)
    pos = {d: i for i, d in enumerate(divs)}
    arcs = [(pos[a], pos[b]) for a in divs for b in divs
            if b != a and b % a == 0]
    return Lattice(Poset._from_arcs(divs, arcs))


# -- subspace lattices over small fields ---------------------------------

_GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


class _Field:
    def __init__(self, q):
        if q not in (2, 3, 4, 5):
            raise ValueError(f"unsupported field size {q}")
        self.q = q

    def add(self, a, b):
        return a ^ b if self.q == 4 else (a + b) % self.q

    def mul(self, a, b):
        return _GF4_MUL[a][b] if self.q == 4 else (a * b) % self.q


def gaussian_binomial(n, k, q):
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ArithmeticError(f"[{n} choose {k}]_{q} is not an integer")
    return num // den


def subspace_lattice(q, n):
    """Subspaces of GF(q)^n ordered by containment, labeled by canonical
    reduced-row-echelon bases."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    F = _Field(q)
    total = sum(gaussian_binomial(n, k, q) for k in range(n + 1))
    check_size("subspace_lattice", total, 10 ** 5)
    vectors = []

    def build(prefix):
        if len(prefix) == n:
            vectors.append(tuple(prefix))
            return
        for c in range(q):
            build(prefix + [c])

    build([])
    zero = tuple([0] * n)

    def _span(vecs):
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
            if v in S:
                continue
            T = _span(list(S) + [v])
            if T not in subspaces:
                subspaces.add(T)
                frontier.append(T)
    if len(subspaces) != total:
        raise ArithmeticError(f"found {len(subspaces)} subspaces of "
                              f"GF({q})^{n}, expected {total}")

    def rref_label(S):
        """Canonical reduced-row-echelon basis of the subspace, read off
        the set itself: the pivot rows are the monic vectors that are
        zero in every earlier pivot column, fully reduced (lex-least)."""
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
    labels = [rref_label(S) for S in subspaces]
    if len(set(labels)) != total:
        raise ArithmeticError("two subspaces share a row-echelon label")
    arcs = []
    for i, S in enumerate(subspaces):
        for j, T in enumerate(subspaces):
            if i != j and S < T:
                arcs.append((i, j))
    return Lattice(Poset._from_arcs(labels, arcs))


# -- partition and contraction lattices ----------------------------------

def _rgs(blocks, n):
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


def _all_partitions(n):
    """Yield every set partition of {0..n-1} as a tuple of sorted
    tuples."""

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


def _bell(n, limit):
    """Bell(n), the number of partitions of an n-set, by the Bell
    triangle.  The triangle stops at the first Bell number above limit,
    which is then returned as a lower bound on Bell(n)."""
    row = [1]
    for _ in range(n):
        if row[0] > limit:
            break
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _partition_poset(partitions, n):
    """Poset of the given partitions under refinement, with RGS labels
    and cover arcs from block merges that stay inside the family."""
    labels = [_rgs(p, n) for p in partitions]
    pos = {lab: i for i, lab in enumerate(labels)}
    arcs = []
    for p in partitions:
        lab = _rgs(p, n)
        for i, j in combinations(range(len(p)), 2):
            merged = [list(b) for k, b in enumerate(p) if k not in (i, j)]
            merged.append(sorted(p[i] + p[j]))
            target = _rgs(merged, n)
            if target in pos:
                arcs.append((pos[lab], pos[target]))
    return Poset._from_arcs(labels, arcs)


def partition_lattice(n):
    """Partitions of an n-set under refinement; 0 is the discrete
    partition and 1 the single block."""
    if n < 1:
        raise ValueError("n must be positive")
    check_size("partition_lattice", n, 9)
    return Lattice(_partition_poset(list(_all_partitions(n)), n))


def contraction_lattice(G):
    """Partitions of the vertex set whose every cell induces a connected
    subgraph, under refinement."""
    # every partition of the vertices is enumerated, and only those with
    # connected cells are kept: Bell(12) = 4213597 passes this guard,
    # Bell(13) = 27644437 does not
    enumerated, kept = 5 * 10 ** 6, 10 ** 5
    check_size("contraction_lattice", _bell(G.n, enumerated), enumerated)
    adj = G.adjacency()

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

    partitions = []
    count = 0
    for p in _all_partitions(G.n):
        if all(connected_cell(c) for c in p):
            count += 1
            if count <= kept:
                partitions.append(p)
    check_size("contraction_lattice", count, kept)
    return Lattice(_partition_poset(partitions, G.n))


# -- random instances ----------------------------------------------------

# Both random generators visit every pair of vertices, and random_graph
# lists them; 2 * 10^6 pairs is about 2000 vertices.
_PAIR_LIMIT = 2 * 10 ** 6


def random_poset(n, density, seed):
    """Random poset: each pair i < j of 0..n-1 is related with the given
    probability, then closed transitively.  Density 0 gives an antichain
    and density 1 a chain."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= density <= 1:
        raise ValueError("density must be in [0, 1]")
    check_size("random_poset", n * (n - 1) // 2, _PAIR_LIMIT)
    rng = random.Random(seed)
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]
    return Poset._from_arcs(list(range(n)), arcs)


def random_tree(n, seed):
    """Random labeled tree on 0..n-1 via a random parent array rooted
    at 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_size("tree", n, TREE_VERTICES)
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_graph(n, edge_count, seed):
    """Random simple graph with the requested number of edges."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_size("random_graph", n * (n - 1) // 2, _PAIR_LIMIT)
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    if edge_count > len(pairs):
        raise ValueError("too many edges requested")
    return Graph(n, rng.sample(pairs, edge_count))


def random_connected_graph(n, edge_count, seed):
    """Random connected graph: a random tree plus extra random edges."""
    if edge_count < n - 1:
        raise ValueError("a connected graph needs at least n - 1 edges")
    rng = random.Random(seed)
    tree = {(min(u, v), max(u, v))
            for u, v in random_tree(n, rng.randrange(2 ** 30)).edges}
    pool = [e for e in combinations(range(n), 2) if e not in tree]
    extra = rng.sample(pool, edge_count - len(tree))
    return Graph(n, sorted(tree | set(extra)))
