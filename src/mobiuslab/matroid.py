"""Matroid structure on the atoms of a geometric lattice: independence,
circuits, broken-circuit counting, chromatic and characteristic
polynomials, and the linear-code weight check."""

from itertools import combinations, product

from .guards import check_size
from .instances import _Field, _sorted_poset, contraction_lattice
from .lattices import Lattice, whitney_rank_sums


# -- integer polynomials, ascending coefficients -------------------------

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_sub(p, q):
    return poly_add(p, [-c for c in q])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p, x):
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def monomial(coeff, degree):
    return poly_trim([0] * degree + [coeff])


# -- the atom matroid ----------------------------------------------------

class AtomMatroid:
    """Rank function r(T) = lattice rank of the join of the atom set T."""

    def __init__(self, L):
        self.lattice = L
        self.atoms = L.atoms()

    @property
    def rank(self):
        return self.lattice.height

    def subset_rank(self, T):
        return self.lattice.rank[self.lattice.join_set(T)]

    def is_independent(self, T):
        T = list(T)
        return self.subset_rank(T) == len(T)


def rank_axioms_check(M):
    """Spot-check the four rank axioms on all atom subsets."""
    atoms = M.atoms
    check_size("rank_axioms_check", 2 ** len(atoms), 2 ** 12)
    subsets = []
    for k in range(len(atoms) + 1):
        subsets.extend(frozenset(c) for c in combinations(atoms, k))
    r = {S: M.subset_rank(S) for S in subsets}
    if r[frozenset()] != 0:
        return False
    if any(r[frozenset([p])] != 1 for p in atoms):
        return False
    for S in subsets:
        for p in atoms:
            if not r[S] <= r[S | {p}] <= r[S] + 1:
                return False
    for S in subsets:
        for T in subsets:
            if r[S] + r[T] < r[S | T] + r[S & T]:
                return False
    return True


def independents(M):
    """All independent atom subsets, grown one atom at a time."""
    atoms = M.atoms
    check_size("independents", len(atoms), 20)
    out = [frozenset()]
    layer = [((), M.lattice.zero)]
    while layer:
        nxt = []
        for T, j in layer:
            start = atoms.index(T[-1]) + 1 if T else 0
            for p in atoms[start:]:
                if M.lattice.poset.down[j] >> p & 1:
                    continue
                T2 = T + (p,)
                nxt.append((T2, M.lattice.join(j, p)))
                out.append(frozenset(T2))
        layer = nxt
    return out


def circuits(M):
    """Minimal dependent sets, as fundamental circuits of the
    independent sets."""
    atoms = M.atoms
    check_size("circuits", len(atoms), 20)
    found = set()
    for I in independents(M):
        jI = M.lattice.join_set(I)
        for p in atoms:
            if p in I or not M.lattice.poset.down[jI] >> p & 1:
                continue
            base = I | {p}
            circuit = frozenset(
                x for x in base
                if jI == M.lattice.join_set(base - {x}))
            found.add(circuit)
    for C in found:
        if M.is_independent(C) or not all(M.is_independent(C - {x})
                                          for x in C):
            raise ArithmeticError(f"{sorted(C)} is not a circuit")
    return sorted(found, key=lambda C: (len(C), sorted(C)))


def broken_circuits(M, order=None):
    """Each circuit minus its least atom under the given total order."""
    order = list(M.atoms) if order is None else list(order)
    pos = {p: i for i, p in enumerate(order)}
    return sorted({C - {min(C, key=pos.get)} for C in circuits(M)},
                  key=lambda B: (len(B), sorted(B)))


def nbc_counts(M, order=None):
    """counts[k] = number of independent k-subsets containing no broken
    circuit, from the closure operator: T contains one exactly when some
    absent atom p lies under the join of the part of T after p.  Sets
    grow by an atom a before their least one; the parts after the other
    absent atoms keep their joins, so the one new condition is that no
    atom before a lies under the new join.  a is not under the old join,
    since that set had no broken circuit, so T stays independent."""
    L = M.lattice
    order = list(M.atoms) if order is None else list(order)
    if sorted(order) != sorted(M.atoms):
        raise ValueError("order is not a permutation of the atoms")
    counts = [0] * (M.rank + 1)
    down = L.poset.down

    def extend(i, size, join):
        counts[size] += 1
        before = 0  # the atoms order[:k], as a mask
        for k in range(i):
            j = L.join(join, order[k])
            if not down[j] & before:
                extend(k, size + 1, j)
            before |= 1 << order[k]

    extend(len(order), 0, L.zero)
    return counts


def whitney_theorem_check(L):
    """Whitney's theorem: NBC counts equal the signed Whitney sums up to
    the alternating sign."""
    M = AtomMatroid(L)
    counts = nbc_counts(M)
    w = whitney_rank_sums(L)
    expected = [(-1) ** k * w[k] for k in range(len(w))]
    return {"identity": "broken-circuit counting", "lhs": counts,
            "rhs": expected, "pass": counts == expected, "witnesses": []}


def stirling_first_unsigned(n, k):
    """Coefficient of x^k in x (x+1) ... (x+n-1)."""
    if not 0 <= k <= n <= 12:
        raise ValueError(f"need 0 <= k <= n <= 12, got ({n}, {k})")
    poly = [1]
    for i in range(n):
        poly = poly_mul(poly, [i, 1])
    return poly[k] if k < len(poly) else 0


# -- chromatic and characteristic polynomials ----------------------------

def characteristic_polynomial(L):
    """F_L(x) = sum over ranks k of w_k x^(d-k); w_0 = 1 leads."""
    return whitney_rank_sums(L)[::-1]


def chromatic_polynomial(G):
    """P(x) = sum_k w_k x^(n-k) from the contraction lattice of G."""
    L = contraction_lattice(G)
    return [0] * (G.n - L.height) + characteristic_polynomial(L)


def chromatic_oracle(G):
    """Deletion-contraction recursion; contraction collapses parallel
    edges into one."""
    memo = {}

    def rec(n, edges):
        key = (n, edges)
        got = memo.get(key)
        if got is not None:
            return got
        if not edges:
            result = monomial(1, n)
        else:
            e = edges[0]
            deleted = rec(n, edges[1:])
            u, v = e
            relabel = {}
            for x in range(n):
                if x == v:
                    y = u
                else:
                    y = x
                relabel[x] = y - (1 if y > v else 0)
            merged = {(min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
                      for a, b in edges[1:]
                      if relabel[a] != relabel[b]}
            contracted = rec(n - 1, tuple(sorted(merged)))
            result = poly_sub(deleted, contracted)
        memo[key] = result
        return result

    return rec(G.n, tuple(G.edges))


def coloring_count(G, k):
    """Brute-force number of proper k-colorings."""
    check_size("coloring_count", k ** G.n, 10 ** 7)
    total = 0
    for coloring in product(range(k), repeat=G.n):
        if all(coloring[u] != coloring[v] for u, v in G.edges):
            total += 1
    return total


# -- codes from column configurations ------------------------------------

def flats_lattice(generator, q):
    """Lattice of closed column sets of the generator matrix, labeled by
    sorted column tuples: a flat is the columns inside a GF(q) span, and
    its covers come from its span plus one more column v, each found once
    (a v inside a cover found from the same flat gives that cover)."""
    F = _Field(q)
    k = len(generator)
    ncols = len(generator[0])
    columns = [tuple(generator[i][j] for i in range(k))
               for j in range(ncols)]
    if any(all(x == 0 for x in col) for col in columns):
        raise ValueError("zero column in generator matrix")

    def flat(span):
        return tuple(j for j in range(ncols) if columns[j] in span)

    spans = [{(0,) * k}]
    flats = [()]  # no column is zero
    index = {(): 0}
    arcs = []
    for i, S in enumerate(spans):  # spans grows as covers are found
        free = [j for j in range(ncols) if j not in flats[i]]
        while free:
            v = columns[free[0]]
            T = set(S)
            for c in range(1, q):
                cv = [F.mul(c, x) for x in v]
                T.update(tuple(map(F.add, s, cv)) for s in S)
            cover = flat(T)
            free = [j for j in free if j not in cover]
            t = index.get(cover)
            if t is None:
                t = index[cover] = len(flats)
                flats.append(cover)
                spans.append(T)
            arcs.append((i, t))
    keys = [(len(C), C) for C in flats]
    return Lattice(_sorted_poset(keys, flats, arcs))


def codeword_weight_check(generator, q, t=None):
    """Count full-weight codewords a^T G by brute force and compare to
    q^(rows - rank) F_L(q); optionally repeat for t-tuples against
    F_L(q^t)."""
    F = _Field(q)
    k = len(generator)
    ncols = len(generator[0])
    check_size("codeword_weight_check", q ** k, 10 ** 7)
    L = flats_lattice(generator, q)
    poly = characteristic_polynomial(L)
    rank = L.height
    columns = [tuple(generator[i][j] for i in range(k))
               for j in range(ncols)]

    def dot(a, col):
        s = 0
        for x, y in zip(a, col):
            s = F.add(s, F.mul(x, y))
        return s

    vectors = list(product(range(q), repeat=k))
    count = sum(1 for a in vectors
                if all(dot(a, col) != 0 for col in columns))
    expected = q ** (k - rank) * poly_eval(poly, q)
    report = {"identity": "full-weight codewords", "lhs": count,
              "rhs": expected, "pass": count == expected,
              "characteristic_polynomial": poly}
    if t is not None:
        check_size("codeword_weight_check tuples", q ** (k * t), 10 ** 7)
        tuple_count = 0
        for rows in product(vectors, repeat=t):
            if all(any(dot(a, col) != 0 for a in rows) for col in columns):
                tuple_count += 1
        tuple_expected = q ** (t * (k - rank)) * poly_eval(poly, q ** t)
        report["tuple_lhs"] = tuple_count
        report["tuple_rhs"] = tuple_expected
        report["pass"] = report["pass"] and tuple_count == tuple_expected
    return report
