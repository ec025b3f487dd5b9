"""Oracles for the order kernel that share no code with it: reachability
by depth-first search, Kahn's order by a linear scan for the smallest
ready index, Mobius rows by back-substitution over frozensets, Hall's
chain sums, chain counts by listing every chain, joins and meets by
searching the common bounds of a pair, order isomorphism by
backtracking, and down-set sums.  Also the dual and the intervals of a
poset, built through the public constructors.  Imported by
test_acceptance.py, test_complexes.py, test_instances.py,
test_inversion.py, test_lattice_properties.py, test_lattice_seeded.py,
test_lattices.py, test_order_kernel.py, test_order_seeded.py and
test_posets.py.
"""

from mobiuslab.posets import Poset


def bits(mask):
    """Indices of the set bits of an order mask, in increasing order."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def forward_down(P, f):
    """g(x) = sum of f(y) over y <= x, for f a list in P's index order."""
    return [sum(f[y] for y in bits(P.down[x])) for x in range(P.n)]


def dual(P):
    """The opposite order on P's labels."""
    return Poset.from_covers(P.labels, [(P.labels[j], P.labels[i])
                                        for i, j in cover_pairs(P)])


def cover_pairs(P):
    """P's cover pairs (i, j), read off its upper cover lists: i
    increasing, then j."""
    return [(i, j) for i, cov in enumerate(P.upper) for j in cov]


def scan_heights(n, pairs):
    """Each element's longest chain up from a minimal one, by one scan
    of the cover pairs (i, j) in increasing order."""
    h = [0] * n
    for i, j in pairs:
        h[j] = max(h[j], h[i] + 1)
    return h


def scan_atoms(pairs, zero):
    """The elements covering zero, by a scan of the cover pairs."""
    return sorted(j for i, j in pairs if i == zero)


def scan_coatoms(pairs, one):
    """The elements covered by one, by a scan of the cover pairs."""
    return sorted(i for i, j in pairs if j == one)


def interval(P, a, b):
    """The interval [a, b] of P, by labels, as a poset."""
    i, j = P.idx(a), P.idx(b)
    return P.restrict(P.up[i] & P.down[j])


def is_isomorphic(P, Q):
    """Order isomorphism by backtracking search (small posets)."""
    if P.n != Q.n:
        return False
    if (sorted(m.bit_count() for m in P.up)
            != sorted(m.bit_count() for m in Q.up)):
        return False
    inv = {}

    def key(R, i):
        return (R.up[i].bit_count(), R.down[i].bit_count())

    def match(assigned):
        if len(assigned) == P.n:
            return True
        i = len(assigned)
        for j in range(Q.n):
            if j in inv or key(P, i) != key(Q, j):
                continue
            ok = all((Q.up[j] >> j2 & 1) == (P.up[i] >> i2 & 1)
                     and (Q.up[j2] >> j & 1) == (P.up[i2] >> i & 1)
                     for i2, j2 in assigned.items())
            if ok:
                assigned[i] = j
                inv[j] = i
                if match(assigned):
                    return True
                del assigned[i], inv[j]
        return False

    return match({})


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


def chain_f_vector(up, keep):
    """f[k] = number of chains of k + 1 elements among the indices in
    keep, listed one at a time by depth-first extension."""
    f = []

    def extend(chain):
        if len(chain) > len(f):
            f.append(0)
        f[len(chain) - 1] += 1
        x = chain[-1]
        for y in sorted(up[x] & keep - {x}):
            extend(chain + [y])

    for i in sorted(keep):
        extend([i])
    return f


def chains_by_length(up, i, j):
    """{l: number of chains i = x0 < ... < xl = j}, listed one at a time;
    empty unless i <= j."""
    counts = {}

    def extend(chain):
        x = chain[-1]
        if x == j:
            counts[len(chain) - 1] = counts.get(len(chain) - 1, 0) + 1
            return
        for y in sorted(up[x] - {x}):
            if j in up[y]:
                extend(chain + [y])

    if j in up[i]:
        extend([i])
    return counts


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


def poset_with_zero(rng, top, sets=False, pad=False):
    """A random poset with a least element, and a greatest one if `top`:
    a random order on up to 10 elements in up to 4 levels with the bounds
    adjoined, or, with `sets`, an intersection-closed family of subsets
    of a 5-set.  With `pad`, a chain of 400 to 410 elements is put below
    the least element."""
    if not sets:
        k = rng.randint(1, 10)
        labels = [f"x{i}" for i in range(k)]
        level = [rng.randint(1, 4) for _ in range(k)]
        density = rng.random()
        arcs = [(labels[a], labels[b]) for a in range(k) for b in range(k)
                if level[a] < level[b] and rng.random() < density]
        rng.shuffle(labels)
        arcs += [("0", x) for x in labels]
        if top:
            arcs += [(x, "1") for x in labels]
        labels = ["0"] + labels + ["1"] * top
    else:
        family = {rng.getrandbits(5) for _ in range(rng.randint(1, 10))}
        if top:
            family.add(31)
        while True:
            closed = family | {a & b for a in family for b in family}
            if closed == family:
                break
            family = closed
        labels = sorted(family, key=lambda s: rng.random())
        arcs = [(a, b) for a in family for b in family
                if a != b and a & b == a]
    if pad:
        heads = {b for _, b in arcs}
        bottom = next(x for x in labels if x not in heads)
        chain = [f"c{i}" for i in range(rng.randint(400, 410))]
        arcs += list(zip(chain, chain[1:])) + [(chain[-1], bottom)]
        labels = chain + labels
    return Poset.from_covers(labels, arcs)


def least_upper_bound(P, i, j):
    """The join of i and j by search, or None."""
    upper = P.up[i] & P.up[j]
    least = [k for k in bits(upper) if P.up[k] & upper == upper]
    return least[0] if least else None


def greatest_lower_bound(P, i, j):
    """The meet of i and j by search, or None."""
    lower = P.down[i] & P.down[j]
    greatest = [k for k in bits(lower) if P.down[k] & lower == lower]
    return greatest[0] if greatest else None


def incomparable_pairs(P):
    """The pairs i < j of incomparable elements, in index order; every
    comparable pair has both bounds."""
    everything = (1 << P.n) - 1
    for i in range(P.n):
        for j in bits(everything & ~(P.up[i] | P.down[i]) >> i << i):
            yield i, j


def first_unbounded_pair(P, kinds):
    """(kind, i, j) for the first pair in index order whose bound of each
    kind, tried in the given order, is missing; None if there is none."""
    search = {"upper": least_upper_bound, "lower": greatest_lower_bound}
    for i, j in incomparable_pairs(P):
        for kind in kinds:
            if search[kind](P, i, j) is None:
                return kind, i, j
    return None


def pair(P, i, j):
    return f"({P.labels[i]!r}, {P.labels[j]!r})"
