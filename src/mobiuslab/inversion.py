"""Mobius inversion, the derangement count and the Lindstrom-Wilf
determinant identity."""

from math import comb, factorial

from .exactmat import bareiss_det
from .posets import PosetError, _bits


def _as_values(P, g):
    if isinstance(g, dict):
        return [g[lab] for lab in P.labels]
    vals = list(g)
    if len(vals) != P.n:
        raise PosetError("function length does not match poset size")
    return vals


def forward_up(P, f):
    """g(x) = sum_{y >= x} f(y)."""
    f = _as_values(P, f)
    return [sum(f[y] for y in _bits(P.up[x])) for x in range(P.n)]


def invert_up(P, g):
    """Recover f from its up-set sums g = zeta f by back-substitution:
    f(x) = g(x) - sum_{y > x} f(y), in reverse linear-extension order, so
    every f(y) is final before it is read."""
    f = _as_values(P, g)
    up = P.up
    for x in reversed(range(P.n)):
        f[x] -= sum(f[y] for y in _bits(up[x] ^ 1 << x))
    return f


def invert_down(P, g):
    """Recover f from its down-set sums: f(x) = g(x) - sum_{y < x} f(y),
    in linear-extension order."""
    f = _as_values(P, g)
    down = P.down
    for x in range(P.n):
        f[x] -= sum(f[y] for y in _bits(down[x] ^ 1 << x))
    return f


def derangements(n):
    """Number of fixed-point-free permutations of n points, by Mobius
    inversion of (n - |S|)! over the subset lattice, cross-checked
    against the alternating-series closed form."""
    if not 0 <= n <= 12:
        raise ValueError(f"n must be in 0..12, got {n}")
    inversion = sum((-1) ** l * comb(n, l) * factorial(n - l)
                    for l in range(n + 1))
    series = sum((-1) ** k * factorial(n) // factorial(k)
                 for k in range(n + 1))
    if inversion != series:
        raise ArithmeticError(f"derangements({n}): inversion {inversion}, "
                              f"series {series}")
    return inversion


def derangements_bruteforce(n):
    """Enumeration oracle: count permutations with no fixed point."""
    from itertools import permutations
    from operator import ne
    points = range(n)
    return sum(all(map(ne, p, points)) for p in permutations(points))


def lindstrom_wilf_det(P, f):
    """Build G with (G)_{xy} = sum_{z >= x, z >= y} f(z) and return
    (G, det G).  The determinant always equals the product of f."""
    f = _as_values(P, f)
    G = [[sum(f[z] for z in _bits(P.up[x] & P.up[y])) for y in range(P.n)]
         for x in range(P.n)]
    return G, bareiss_det(G)

