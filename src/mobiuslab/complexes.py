"""Order complexes, Euler characteristics, retracts and dismantlability,
plus numerical verification of the fibre identity of a monotone map (an
ideal's decomposition is the case of its inclusion)."""

from itertools import zip_longest

from .guards import check_size
from .posets import PosetError, _bits


def order_complex(P, keep=None):
    """Face counts by dimension (the f-vector) of the order complex of the
    subposet induced on the elements in the bitmask keep (all of P by
    default).
    Its faces are the nonempty chains, so f[k] is the number of chains of
    k + 1 elements.

    One pass in linear-extension order keeps, for each kept x, the
    counts by size of the chains that end at x: x alone, and each chain
    ending at a kept y < x extended by x.  Heights rise strictly along a
    chain, so the pass takes at most pairs(keep) x (number of heights
    over keep) steps; that bound is checked before it starts.
    """
    if keep is None:
        keep = (1 << P.n) - 1
    kept, down = list(_bits(keep)), P.down
    h = P.heights()
    heights = [h[x] for x in kept]
    pairs = sum((down[x] & keep).bit_count() for x in kept)
    # a step takes 15-50 ns on chains and B_n, 250-400 ns on Pi_8 and
    # Pi_9 (Python 3.11); Pi_8 is 1.3e6 steps, B_9 2.0e5, Pi_9 1.4e7
    check_size("order_complex", pairs * (max(heights, default=0)
                                         - min(heights, default=0) + 1),
               10 ** 7)
    ending = {}
    for x in kept:
        below = [ending[y] for y in _bits(down[x] & keep ^ 1 << x)]
        ending[x] = [1, *map(sum, zip_longest(*below, fillvalue=0))]
    return [*map(sum, zip_longest(*ending.values(), fillvalue=0))]


def chain_counts(P, a, b):
    """The number of chains a = x_0 < ... < x_l = b of each length l, read
    from the f-vector of the open interval (a, b): a chain with k inner
    elements has length k + 1."""
    if not P.up[a] >> b & 1:
        raise PosetError("endpoints are incomparable")
    if a == b:
        return {0: 1}
    f = order_complex(P, P.up[a] & P.down[b] ^ 1 << a ^ 1 << b)
    return {1: 1, **{k + 2: fk for k, fk in enumerate(f)}}


def euler_characteristic(P):
    """chi of the order complex of P: the alternating sum of its
    f-vector.  Hall's theorem makes it 1 + mu(P) with bounds adjoined."""
    return sum((-1) ** k * fk for k, fk in enumerate(order_complex(P)))


class MonotoneMap:
    """Order-preserving map between posets, checked on construction."""

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.images = [target.idx(lab) for lab in assignment]
        for i, cov in enumerate(source.upper):
            for j in cov:
                if not target.up[self.images[i]] >> self.images[j] & 1:
                    raise PosetError(
                        f"map is not order-preserving at "
                        f"{source.labels[i]!r} <= {source.labels[j]!r}")

    def fibre_below(self, y):
        """Bitmask of the source elements mapped into the down-set of y."""
        below = self.target.down[y]
        return sum(1 << x for x, t in enumerate(self.images)
                   if below >> t & 1)


def random_monotone_map(P, Q, seed):
    """Random order-preserving map built along a linear extension: each
    image is drawn from the elements of Q above the images of the
    already-placed lower covers."""
    import random
    rng = random.Random(seed)
    images = [None] * P.n
    # confining images to the down-set of one maximal element keeps the
    # set of valid choices nonempty at every step
    maximal = [i for i in range(Q.n) if Q.up[i] == 1 << i]
    ceiling = Q.down[rng.choice(maximal)]
    for x in range(P.n):
        allowed = ceiling
        for y in P.lower[x]:
            allowed &= Q.up[images[y]]
        images[x] = rng.choice(list(_bits(allowed)))
    return MonotoneMap(P, Q, [Q.labels[i] for i in images])


def verify_baclawski(f):
    """Check mu(Q) = mu(P) + sum_y mu(Q_{y<}) mu(f^{-1}(Q_{<=y})),
    computing every Mobius number independently."""
    P, Q = f.source, f.target
    mu_P = P.mobius_number()
    mu_Q = Q.mobius_number()
    fibre_terms = []
    total = 0
    for y in range(Q.n):
        t_above = Q.mobius_number(Q.up[y] ^ 1 << y)
        t_fibre = P.mobius_number(f.fibre_below(y))
        total += t_above * t_fibre
        fibre_terms.append({"y": Q.labels[y], "mu_above": t_above,
                            "mu_fibre": t_fibre})
    lhs = mu_Q
    rhs = mu_P + total
    return {"identity": "fibre decomposition", "lhs": lhs, "rhs": rhs,
            "pass": lhs == rhs, "witnesses": fibre_terms}


def retract_check(S, f):
    """Verify f: S -> S is a retraction (order-preserving, decreasing,
    idempotent) and that the retract has the same Mobius number as S."""
    problems = []
    if f.source is not S or f.target is not S:
        raise PosetError("retract_check needs a self-map of S")
    for x in range(S.n):
        if not S.up[f.images[x]] >> x & 1:
            problems.append({"kind": "not decreasing", "x": S.labels[x]})
        if f.images[f.images[x]] != f.images[x]:
            problems.append({"kind": "not idempotent", "x": S.labels[x]})
    if problems:
        return {"identity": "retract preserves Mobius number", "lhs": None,
                "rhs": None, "pass": False, "witnesses": problems}
    lhs = S.mobius_number(sum(1 << t for t in set(f.images)))
    rhs = S.mobius_number()
    return {"identity": "retract preserves Mobius number", "lhs": lhs,
            "rhs": rhs, "pass": lhs == rhs, "witnesses": []}


def dismantle(P):
    """Greedily delete elements covering, or covered by, a unique element.

    Returns (deletions, core) where deletions is the removal order (as
    labels) and core is the irreducible subposet.  P is dismantlable iff
    the core has one element; a dismantlable poset has Mobius number 0.
    """
    current = P
    deletions = []
    while current.n > 1:
        victim = next((x for x in range(current.n)
                       if len(current.lower[x]) == 1
                       or len(current.upper[x]) == 1), None)
        if victim is None:
            break
        deletions.append(current.labels[victim])
        current = current.restrict((1 << current.n) - 1 ^ 1 << victim)
    return deletions, current


def is_dismantlable(P):
    if P.n == 0:
        return False
    _, core = dismantle(P)
    return core.n == 1
