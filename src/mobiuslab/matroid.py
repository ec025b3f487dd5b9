"""Matroid structure on the atoms of a geometric lattice: independence,
circuits, broken-circuit counting, chromatic and characteristic
polynomials, and the linear-code weight check."""

from itertools import combinations, product

from .guards import check_size
from .instances import _Field, contraction_lattice
from .lattices import Lattice, whitney_rank_sums
from .posets import Poset


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
    circuit.  Works directly from the closure operator, so it does not
    need the circuit list: an independent set T, listed in increasing
    order, contains a broken circuit exactly when some absent atom p
    lies under the join of the part of T after p."""
    L = M.lattice
    order = list(M.atoms) if order is None else list(order)
    if sorted(order) != sorted(M.atoms):
        raise ValueError("order is not a permutation of the atoms")
    m = len(order)
    counts = [0] * (M.rank + 1)
    down = L.poset.down

    def extend(positions, join):
        counts[len(positions)] += 1
        last = positions[-1] if positions else -1
        for i in range(last + 1, m):
            a = order[i]
            if down[join] >> a & 1:
                continue
            chosen = positions + [i]
            suffix = [None] * len(chosen)
            acc = L.zero
            for k in range(len(chosen) - 1, -1, -1):
                acc = L.join(acc, order[chosen[k]])
                suffix[k] = acc
            ok = True
            for p in range(i):
                if p in chosen:
                    continue
                k = next(idx for idx, c in enumerate(chosen) if c > p)
                if down[suffix[k]] >> order[p] & 1:
                    ok = False
                    break
            if ok:
                extend(chosen, suffix[0])

    extend([], L.zero)
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
    """F_L(x) = sum over ranks k of w_k x^(d-k)."""
    w = whitney_rank_sums(L)
    d = L.height
    out = []
    for k, wk in enumerate(w):
        out = poly_add(out, monomial(wk, d - k))
    return out


def chromatic_polynomial(G):
    """P(x) = sum_k w_k x^(n-k) from the contraction lattice of G."""
    L = contraction_lattice(G)
    w = whitney_rank_sums(L)
    out = []
    for k, wk in enumerate(w):
        out = poly_add(out, monomial(wk, G.n - k))
    return out


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

def _gf_rank(rows, F):
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
                c = rows[i][col]
                neg = next(s for s in range(F.q)
                           if F.add(s, c) == 0)
                factor = neg
                rows[i] = [F.add(a, F.mul(factor, b))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def flats_lattice(generator, q):
    """Lattice of closed column subsets of the generator matrix:
    closure(T) = columns whose addition leaves the GF(q) rank
    unchanged."""
    F = _Field(q)
    k = len(generator)
    ncols = len(generator[0])
    columns = [tuple(generator[i][j] for i in range(k))
               for j in range(ncols)]
    if any(all(x == 0 for x in col) for col in columns):
        raise ValueError("zero column in generator matrix")

    def col_rank(T):
        return _gf_rank([columns[j] for j in T], F)

    def closure(T):
        r = col_rank(T)
        return frozenset(j for j in range(ncols)
                         if j in T or col_rank(list(T) + [j]) == r)

    flats = {closure([])}
    frontier = [closure([])]
    while frontier:
        Fl = frontier.pop()
        for j in range(ncols):
            if j in Fl:
                continue
            G2 = closure(list(Fl) + [j])
            if G2 not in flats:
                flats.add(G2)
                frontier.append(G2)
    flats = sorted(flats, key=lambda S: (len(S), sorted(S)))
    labels = ["".join(str(j) for j in sorted(S)) if S else "" for S in flats]
    arcs = [(i, j) for i, S in enumerate(flats) for j, T in enumerate(flats)
            if i != j and S < T]
    return Lattice(Poset._from_arcs(labels, arcs))


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
