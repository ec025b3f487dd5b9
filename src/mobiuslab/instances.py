"""Deterministic generators: boolean, divisor, subspace, partition and
graph contraction lattices, chains, and seeded random posets, trees and
graphs."""

import random
from bisect import bisect_left
from itertools import combinations, product

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
    labels = ["".join(_ALPHABET[i] for i in range(n) if mask >> i & 1)
              for mask in range(1 << n)]
    arcs = [(mask, mask | 1 << i) for mask in range(1 << n)
            for i in range(n) if not mask >> i & 1]
    return Lattice._from_arcs(labels, arcs)


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
    """Divisors of n ordered by divisibility.  n is factored by trial
    division up to its square root, and the covers are d -> d * p for the
    primes p with d * p dividing n."""
    if n < 1:
        raise ValueError("n must be positive")
    check_size("divisor_lattice", n, 10 ** 6)
    exponents, m, p = {}, n, 2
    while p * p <= m:
        while m % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        exponents[m] = 1
    divs = [1]
    for p, k in exponents.items():
        divs = [d * p ** e for d in divs for e in range(k + 1)]
    divs.sort()
    pos = {d: i for i, d in enumerate(divs)}
    arcs = [(pos[d], pos[d * p]) for d in divs for p in exponents
            if n % (d * p) == 0]
    return Lattice._from_arcs(divs, arcs)


def _sorted_poset(keys, labels, arcs):
    """Poset of elements found in any order, given the sort key and label
    of each and the arcs between their indices as found.  The elements
    are renumbered in key order, which fixes the linear extension."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pos = [0] * len(order)
    for k, i in enumerate(order):
        pos[i] = k
    return Poset._from_arcs([labels[i] for i in order],
                            [(pos[i], pos[j]) for i, j in arcs])


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


def _digits(code, width, q):
    """The base-q digits of an int code, most significant first."""
    return [code // q ** (width - 1 - i) % q for i in range(width)]


def _span_flats(F, n, points):
    """The flats of a list of nonzero vectors of GF(q)^n, the points,
    grown from the span of none.  Returns each flat's span as a sorted
    list of int codes, its mask of the positions of the points inside
    it, and the cover arcs between the flats' indices.

    A vector's code is its number in base q, first coordinate most
    significant, so code order is tuple order.  The upper covers of a
    flat are its spans with one more point v, and each is spanned once:
    a v inside a span already found from the same flat would give that
    span again."""
    q = F.q

    def code_of(digits):
        code = 0
        for x in digits:
            code = code * q + x
        return code

    # u + v = high[u // low][v // low] + lows[u % low][v % low]: two
    # tables over half the coordinates each, not one over all q^(2n)
    # pairs; high, the larger, holds q^(2 ceil(n/2)) entries
    check_size("span add table", q ** (2 * (n - n // 2)), 10 ** 6)

    def add_table(width, scale):
        vecs = [_digits(c, width, q) for c in range(q ** width)]
        return [[scale * code_of(map(F.add, a, b)) for b in vecs]
                for a in vecs]

    low = q ** (n // 2)
    high, lows = add_table(n - n // 2, low), add_table(n // 2, 1)
    # the nonzero multiples c * v of each point v
    multiples = [[code_of(F.mul(c, x) for x in v) for c in range(1, q)]
                 for v in points]
    # where[code] = the mask of the positions of the points with that code
    where = [0] * q ** n
    for p, v in enumerate(points):
        where[code_of(v)] |= 1 << p

    every = (1 << len(points)) - 1
    masks, spans, arcs = [0], [[0]], []
    index = {0: 0}
    for i, S in enumerate(spans):  # spans grows as covers are found
        free = every & ~masks[i]
        while free:
            p = (free & -free).bit_length() - 1
            T = list(S)
            for w in multiples[p]:
                hw, lw = high[w // low], lows[w % low]
                T += [hw[s // low] + lw[s % low] for s in S]
            mask = 0
            for t in T:
                mask |= where[t]
            free &= ~mask
            j = index.get(mask)
            if j is None:
                j = index[mask] = len(spans)
                masks.append(mask)
                T.sort()
                spans.append(T)
            arcs.append((i, j))
    return spans, masks, arcs


def subspace_lattice(q, n):
    """Subspaces of GF(q)^n ordered by containment, labeled by canonical
    reduced-row-echelon bases: the flats of all nonzero vectors."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    F = _Field(q)
    total = sum(gaussian_binomial(n, k, q) for k in range(n + 1))
    check_size("subspace_lattice", total, 10 ** 5)
    vectors = list(product(range(q), repeat=n))
    spaces, _, arcs = _span_flats(F, n, vectors[1:])
    if len(spaces) != total:
        raise ArithmeticError(f"found {len(spaces)} subspaces of "
                              f"GF({q})^{n}, expected {total}")

    def rref_label(S):
        """Canonical reduced-row-echelon basis of the subspace, a sorted
        list of codes.  The row with its pivot in column c is the
        lex-least vector of S that is 0 before c and 1 at c, which is
        fully reduced: the least code of S in [q^(n-1-c), 2 q^(n-1-c))."""
        rows = []
        for col in range(n):
            lead = q ** (n - 1 - col)
            k = bisect_left(S, lead)
            if k < len(S) and S[k] < 2 * lead:
                rows.append("".join(map(str, _digits(S[k], n, q))))
        return ",".join(rows)

    labels = [rref_label(S) for S in spaces]
    if len(set(labels)) != total:
        raise ArithmeticError("two subspaces share a row-echelon label")
    keys = [(len(S), S) for S in spaces]
    return Lattice(_sorted_poset(keys, labels, arcs))


# -- partition and contraction lattices ----------------------------------
#
# A partition of {0..n-1} is a tuple of block masks ordered by least
# element, so block k holds the points whose restricted-growth (RGS) digit
# is k.  Merging blocks a < b keeps that order.

def _merge(p, a, b):
    return p[:a] + (p[a] | p[b],) + p[a + 1:b] + p[b + 1:]


def _rgs_digits(p, n):
    out = [0] * n
    for k, block in enumerate(p):
        while block:
            low = block & -block
            out[low.bit_length() - 1] = k
            block ^= low
    return tuple(out)


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


def partition_lattice(n):
    """Partitions of an n-set under refinement, the contraction lattice
    of K_n; 0 is the discrete partition and 1 the single block.  Labels
    are RGS strings."""
    if n < 1:
        raise ValueError("n must be positive")
    check_size("partition_lattice", n, 9)
    return contraction_lattice(complete_graph(n))


def contraction_lattice(G):
    """Partitions of the vertex set whose every cell induces a connected
    subgraph, under refinement: the flats of the graphic matroid.  They
    are grown from the discrete partition by merging two blocks that an
    edge joins, so the cost follows the number of flats."""
    # the Bell(n) bound keeps the refusal of 13 or more vertices instant;
    # growth stops at the first flat past the kept limit
    enumerated, kept = 5 * 10 ** 6, 10 ** 5
    check_size("contraction_lattice", _bell(G.n, enumerated), enumerated)
    adj = [0] * G.n
    for v, nbrs in enumerate(G.adjacency()):
        for w in nbrs:
            adj[v] |= 1 << w
    # reach[block] = the vertices adjacent to some vertex of the block
    reach = [0] * (1 << G.n)
    for block in range(1, 1 << G.n):
        low = block & -block
        reach[block] = reach[block ^ low] | adj[low.bit_length() - 1]
    parts = [tuple(1 << v for v in range(G.n))]
    index = {parts[0]: 0}
    arcs = []
    for i, p in enumerate(parts):  # parts grows as merges are found
        for a in range(len(p)):
            near = reach[p[a]]
            for b in range(a + 1, len(p)):
                if near & p[b]:
                    m = _merge(p, a, b)
                    j = index.get(m)
                    if j is None:
                        j = index[m] = len(parts)
                        parts.append(m)
                        check_size("contraction_lattice", len(parts), kept)
                    arcs.append((i, j))
    # sort by digit tuples, not labels: from 11 vertices on, "10" is one
    # digit
    keys = [_rgs_digits(p, G.n) for p in parts]
    labels = ["".join(map(str, d)) for d in keys]
    return Lattice(_sorted_poset(keys, labels, arcs))


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
    if edge_count < 0:
        raise ValueError("edge count must be nonnegative")
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
