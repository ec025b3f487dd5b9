"""Broken-circuit counting on the atoms of a geometric lattice, chromatic
and characteristic polynomials, and the linear-code weight check."""

from itertools import product

from .guards import check_size
from .instances import _Field, _sorted_poset, _span_flats, contraction_lattice
from .lattices import Lattice, whitney_rank_sums
from .posets import _bits


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


# -- broken circuits of the atom matroid ---------------------------------

def nbc_counts(L, order=None):
    """counts[k] = number of independent k-subsets of L's atoms that
    contain no broken circuit, in the matroid whose rank of an atom set T
    is the lattice rank of its join, with atoms ordered by order (the
    index order by default).  From the closure operator: T contains a
    broken circuit exactly when some absent atom p lies under the join of
    the part of T after p.  Sets grow by an atom a before their least
    one; the parts after the other absent atoms keep their joins, so the
    one new condition is that no atom before a lies under the new join.
    a is not under the old join, since that set had no broken circuit, so
    T stays independent."""
    atoms = L.atoms()
    order = atoms if order is None else list(order)
    if sorted(order) != atoms:
        raise ValueError("order is not a permutation of the atoms")
    counts = [0] * (L.height + 1)
    down = L.down

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
    counts = nbc_counts(L)
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
    """Brute-force number of proper k-colorings: every colouring in turn,
    tested on every edge."""
    from operator import itemgetter, ne
    check_size("coloring_count", k ** G.n, 10 ** 7)
    m = len(G.edges)
    if not m:
        return k ** G.n  # with no edge every colouring is proper
    # the colours at the edges' tails, then at their heads
    ends = itemgetter(*[u for u, _ in G.edges], *[v for _, v in G.edges])
    return sum(all(map(ne, e, e[m:]))
               for e in map(ends, product(range(k), repeat=G.n)))


# -- codes from column configurations ------------------------------------

def flats_lattice(generator, q):
    """Lattice of closed column sets of the generator matrix, labeled by
    sorted column tuples: a flat is the columns inside a GF(q) span."""
    F = _Field(q)
    for i, row in enumerate(generator):
        if len(row) != len(generator[0]):
            raise ValueError(f"generator row {i} has {len(row)} entries, "
                             f"row 0 has {len(generator[0])}")
        for j, x in enumerate(row):
            if x not in range(q):
                raise ValueError(f"generator entry {x!r} at row {i}, "
                                 f"column {j} is not in range({q})")
    columns = list(zip(*generator))
    if not all(map(any, columns)):
        raise ValueError("zero column in generator matrix")
    _, masks, arcs = _span_flats(F, len(generator), columns)
    flats = [tuple(_bits(m)) for m in masks]
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
