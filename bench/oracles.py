"""Oracles that judge mobiuslab's outputs without using mobiuslab.

Structured families are checked against closed forms (Rota 1964; Stanley,
EC1 ch. 3).  Random instances are checked against the benchmark's own
transitive closure, kept as Python-int bitmasks over the generator's
index order (which is a linear extension, since every arc goes i -> j
with i < j).  Every check returns None when the output is accepted and a
one-line reason when it is rejected.
"""

import json
import math
from itertools import product


# -- closed forms for the structured families ----------------------------

def _poly_from_roots(roots):
    """Coefficients, constant term first, of prod (x - r)."""
    poly = [1]
    for r in roots:
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= r * c
        poly = nxt
    return poly


def _charpoly(rank_sums):
    """F(x) = sum_k w_k x^(d-k), constant term first."""
    return list(reversed(rank_sums))


def _stirling2(n, k):
    return sum((-1) ** (k - j) * math.comb(k, j) * j ** n
               for j in range(k + 1)) // math.factorial(k)


def _gaussian(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _factor(m):
    exps, p = [], 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            exps.append(e)
        p += 1
    if m > 1:
        exps.append(1)
    return exps


class Family:
    """Closed-form facts about one lattice: size, mu(0,1), Whitney
    numbers of both kinds, characteristic polynomial and the flags that
    `lattice-check` reports."""

    def __init__(self, name, size, counts, rank_sums, flags):
        self.name = name
        self.size = size
        self.counts = counts
        self.rank_sums = rank_sums
        self.mu = rank_sums[-1]
        self.charpoly = _charpoly(rank_sums)
        self.flags = flags


def boolean(n):
    sums = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    return Family(f"B_{n}", 2 ** n, [math.comb(n, k) for k in range(n + 1)],
                  sums, _flags(modular=True, atomistic=True))


def partition(n):
    # w_k is the signed Stirling number of the first kind s(n, n-k), read
    # off the characteristic polynomial (x-1)(x-2)...(x-(n-1))
    sums = list(reversed(_poly_from_roots(range(1, n))))
    counts = [_stirling2(n, n - k) for k in range(n)]
    return Family(f"Pi_{n}", sum(counts), counts, sums,
                  _flags(modular=n <= 3, atomistic=True))


def subspace(n, q):
    counts = [_gaussian(n, k, q) for k in range(n + 1)]
    sums = [(-1) ** k * q ** math.comb(k, 2) * counts[k]
            for k in range(n + 1)]
    return Family(f"L_{n}({q})", sum(counts), counts, sums,
                  _flags(modular=True, atomistic=True))


def divisor(m):
    exps = _factor(m)
    height = sum(exps)
    counts = [0] * (height + 1)
    for vec in product(*(range(e + 1) for e in exps)):
        counts[sum(vec)] += 1
    r = len(exps)
    sums = [(-1) ** k * math.comb(r, k) if k <= r else 0
            for k in range(height + 1)]
    return Family(f"D_{m}", math.prod(e + 1 for e in exps), counts, sums,
                  _flags(modular=True, atomistic=height == r))


def _flags(modular, atomistic):
    # every family here is a ranked semimodular lattice
    return {"is_lattice": True, "ranked": True, "semimodular": True,
            "atomistic": atomistic, "geometric": atomistic,
            "modular": modular, "pass": True}


# -- checks of structured-family outputs ---------------------------------

def _load(out):
    """Parse a command's single JSON line, or return a reason."""
    try:
        return json.loads(out)
    except ValueError as e:
        return f"stdout is not JSON: {e}"


def check_gen(fam, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    if len(body["elements"]) != fam.size:
        return f"{fam.name}: {len(body['elements'])} elements, want {fam.size}"
    return None


def check_lattice(fam, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    got = {k: body.get(k) for k in fam.flags}
    if got != fam.flags:
        return f"{fam.name}: lattice-check {got}, want {fam.flags}"
    return None


def check_whitney(fam, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    if body.get("counts") != fam.counts:
        return f"{fam.name}: Whitney counts {body.get('counts')}"
    if body.get("rank_sums") != fam.rank_sums:
        return f"{fam.name}: Whitney rank sums {body.get('rank_sums')}"
    return None


def check_charpoly(fam, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    if body.get("coefficients") != fam.charpoly:
        return f"{fam.name}: charpoly {body.get('coefficients')}"
    return None


def check_weisner(fam, out, element=None):
    body = _load(out)
    if isinstance(body, str):
        return body
    want = 1 if element is not None else fam.size - 1
    reports = body.get("reports", [])
    if body.get("checked") != want or len(reports) != want:
        return f"{fam.name}: Weisner checked {body.get('checked')}"
    if element is not None and reports[0]["a"] != element:
        return f"{fam.name}: Weisner at {reports[0]['a']}, want {element}"
    bad = [r for r in reports
           if not (r["lhs"] == r["rhs"] == fam.mu and r["pass"])]
    if bad or body.get("pass") is not True:
        return f"{fam.name}: Weisner report {bad[:1]}, want mu {fam.mu}"
    return None


def check_cutset(fam, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    if len(body.get("cutset", [])) != fam.counts[1]:
        return f"{fam.name}: cutset of {len(body.get('cutset', []))} atoms"
    if not (body.get("mu") == body.get("mu_matrix") == fam.mu
            and body.get("pass") is True):
        return (f"{fam.name}: cutset mu {body.get('mu')}, matrix "
                f"{body.get('mu_matrix')}, want {fam.mu}")
    return None


def check_not_lattice(out):
    body = _load(out)
    if isinstance(body, str):
        return body
    if body.get("is_lattice") is not False or body.get("pass") is not False:
        return f"bowtie reported as {body}"
    return None


# -- random orders, checked against the benchmark's own closure ----------

class Order:
    """A random order on 0..n-1 with labels; `up[i]` and `down[i]` are
    bitmasks of the closed up- and down-sets of element i."""

    def __init__(self, labels, arcs):
        n = len(labels)
        self.n = n
        self.labels = labels
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for i, j in arcs:
            succ[i].append(j)
            pred[j].append(i)
        self.up = [0] * n
        for i in reversed(range(n)):
            mask = 1 << i
            for j in succ[i]:
                mask |= self.up[j]
            self.up[i] = mask
        self.down = [0] * n
        for j in range(n):
            mask = 1 << j
            for i in pred[j]:
                mask |= self.down[i]
            self.down[j] = mask

    def members(self, mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def up_sums(self, f):
        return [sum(f[j] for j in self.members(self.up[i]))
                for i in range(self.n)]

    def down_sums(self, f):
        return [sum(f[j] for j in self.members(self.down[i]))
                for i in range(self.n)]

    def mu(self, a, b):
        """mu(a, b) by the recursion mu(a,x) = -sum_{a<=y<x} mu(a,y) over
        the interval, in index order (a linear extension)."""
        inside = self.members(self.up[a] & self.down[b])
        mu = {}
        for x in inside:
            if x == a:
                mu[x] = 1
            else:
                below = self.down[x]
                mu[x] = -sum(v for y, v in mu.items() if below >> y & 1)
        return mu[b]

    def euler_characteristic(self):
        """sum over nonempty chains of (-1)^(length); h(x) is that sum over
        the chains whose top is x."""
        h = []
        for x in range(self.n):
            below = self.down[x] & ~(1 << x)
            h.append(1 - sum(h[y] for y in self.members(below)))
        return sum(h)


def check_mobius_matrix(order, out, probes):
    """Accept `invert` output M only if M*Z = I for the closure's zeta
    matrix Z: entries off the order are zero, the diagonal is one, and
    M(Zv) = v for each probe vector v (Freivalds).  A probe with positive
    entries catches any single wrong entry, since (Zv)_j > 0 for all j."""
    body = _load(out)
    if isinstance(body, str):
        return body
    index = {str(lab): i for i, lab in enumerate(order.labels)}
    try:
        pos = [index[e] for e in body["elements"]]
    except KeyError as e:
        return f"unknown element {e}"
    M = body["mobius"]
    n = order.n
    if len(set(pos)) != n or len(M) != n:
        return "wrong element list"
    up = order.up
    for k in range(n):
        row, mask = M[k], up[pos[k]]
        if len(row) != n or row[k] != 1:
            return f"row {body['elements'][k]}: bad length or diagonal"
        for l in range(n):
            if row[l] and not mask >> pos[l] & 1:
                return (f"mu({body['elements'][k]}, {body['elements'][l]})"
                        f" = {row[l]} off the order")
    for v in probes:
        zv = order.up_sums(v)
        zv_out = [zv[p] for p in pos]
        for k in range(n):
            if sum(m * z for m, z in zip(M[k], zv_out) if m) != v[pos[k]]:
                return f"(M Z) row {body['elements'][k]} is not e_k"
    return None


def check_values(order, out, want):
    body = _load(out)
    if isinstance(body, str):
        return body
    expect = {str(lab): want[i] for i, lab in enumerate(order.labels)}
    if body.get("values") != expect:
        return "inverted function differs from the generated f"
    return None


def check_mu(order, out, a, b):
    body = _load(out)
    if isinstance(body, str):
        return body
    want = order.mu(a, b)
    if body.get("mu") != want:
        return (f"mu({order.labels[a]}, {order.labels[b]}) = "
                f"{body.get('mu')}, want {want}")
    return None


def check_euler(order, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    chi = order.euler_characteristic()
    if (body.get("euler_characteristic") != chi
            or body.get("mobius_number") != chi - 1
            or body.get("pass") is not True):
        return f"euler {body}, want chi {chi}"
    return None


# -- identity-suite outputs ----------------------------------------------

def coloring_count(n, edges, k):
    return sum(all(c[u] != c[v] for u, v in edges)
               for c in product(range(k), repeat=n))


def check_chromatic(n, edges, out):
    """P(k) must equal the brute-force count of proper k-colourings for
    k = 0..3."""
    body = _load(out)
    if isinstance(body, str):
        return body
    poly = body.get("coefficients", [])
    if len(poly) != n + 1 or poly[-1] != 1:
        return f"chromatic polynomial {poly} is not monic of degree {n}"
    for k in range(4):
        want = coloring_count(n, edges, k)
        got = sum(c * k ** i for i, c in enumerate(poly))
        if got != want:
            return f"P({k}) = {got}, brute force counts {want}"
    if body.get("oracle") != poly or body.get("pass") is not True:
        return "program's own oracle disagrees"
    return None


def check_tree(n, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    det = (n - 1) * (-1) ** (n - 1) * 2 ** (n - 2)
    if (body.get("n") != n or body.get("det") != det
            or body.get("closed_form") != det or body.get("pass") is not True
            or body.get("inverse_verified") is not True):
        return f"tree on {n} vertices: {body}, want det {det}"
    return None


def check_nulldesign(n, out):
    body = _load(out)
    if isinstance(body, str):
        return body
    want = {"strength": n - 1, "support": 2 ** n, "bound": 2 ** n,
            "pass": True}
    got = {k: body.get(k) for k in want}
    if got != want or len(body.get("b", "")) != n:
        return f"null design on B_{n}: {body}"
    return None


def check_verify_all(out):
    body = _load(out)
    if isinstance(body, str):
        return body
    results = body.get("results", [])
    failed = [r["name"] for r in results if r.get("pass") is not True]
    if len(results) != 20 or failed or body.get("pass") is not True:
        return f"verify-all: {len(results)} results, failed {failed}"
    return None
