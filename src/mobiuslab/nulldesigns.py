"""Strength-t functions on meet semilattices and the Mobius-sum lower
bound on their support."""

from .inversion import _as_values, forward_up
from .posets import PosetError, _bits


def strength(S, f):
    """Largest t such that the up-sums vanish at every element of height
    at most t; -1 if some height-0 sum is nonzero.  The zero function
    gets the full poset height."""
    P = S.poset
    hat = forward_up(P, f)
    heights = P.heights()
    top = max(heights)
    t = -1
    for level in range(top + 1):
        if any(hat[x] != 0 for x in range(P.n) if heights[x] == level):
            break
        t = level
    return t


def _meet_fibres(S, f, b):
    """fibre[c] = sum of f(x) over the x with x ^ b = c, in one pass."""
    fibre = [0] * S.n
    for x in range(S.n):
        fibre[S.meet(x, b)] += f[x]
    return fibre


def restrict_to_interval(S, f, b):
    """f_b(c) = sum over x with x ^ b = c of f(x), computed both by that
    meet-fiber sum and by Mobius inversion over [c, b]; the routes must
    agree.  b is an element index.  Returns a label -> value map
    supported on the down-set of b."""
    P = S.poset
    f = _as_values(P, f)
    hat = forward_up(P, f)
    fibre = _meet_fibres(S, f, b)
    out = {}
    for c in _bits(P.down[b]):
        row = P.mobius_row(c)
        inverted = sum(row[y] * hat[y] for y in _bits(P.up[c] & P.down[b]))
        if fibre[c] != inverted:
            raise ArithmeticError(
                "interval restriction routes disagree at "
                f"{P.labels[c]!r}: fiber {fibre[c]}, inversion {inverted}")
        out[P.labels[c]] = fibre[c]
    return out


def support_lower_bound(S, b):
    """sum over c <= b of |mu(c, b)|, for the element index b."""
    P = S.poset
    col = P.mobius_col(b)
    return sum(abs(col[c]) for c in _bits(P.down[b]))


def verify_support_theorem(S, f):
    """For f of strength t supported on heights <= t + 1 with some
    nonzero up-sum at height t + 1: the support of f has size at least
    sum |mu(c,b)|, with equality forcing f to be (0, +-1)-valued.  The
    per-c ledger checks mu(c,b) f^(b) = sum over x ^ b = c of f(x)."""
    P = S.poset
    f = _as_values(P, f)
    hat = forward_up(P, f)
    heights = P.heights()
    t = strength(S, f)
    support = [x for x in range(P.n) if f[x] != 0]
    if not support:
        return {"identity": "support bound", "lhs": 0, "rhs": 0,
                "pass": True, "vacuous": True, "witnesses": []}
    too_high = [x for x in support if heights[x] > t + 1]
    if too_high:
        raise PosetError("support reaches height above t + 1 at witness "
                         f"{P.labels[too_high[0]]!r}")
    candidates = [b for b in range(P.n)
                  if heights[b] == t + 1 and hat[b] != 0]
    if not candidates:
        raise PosetError(f"no element of height {t + 1} has a nonzero "
                         "up-sum")
    b = candidates[0]
    bound = support_lower_bound(S, b)
    col = P.mobius_col(b)
    fibre = _meet_fibres(S, f, b)
    ledger = [{"c": P.labels[c], "mu_times_hat": col[c] * hat[b],
               "fiber_sum": fibre[c], "pass": col[c] * hat[b] == fibre[c]}
              for c in _bits(P.down[b])]
    ok = len(support) >= bound and all(e["pass"] for e in ledger)
    if len(support) == bound:
        ok = ok and all(f[x] in (-1, 1) for x in support)
    return {"identity": "support bound", "lhs": len(support), "rhs": bound,
            "pass": ok, "b": P.labels[b], "strength": t,
            "witnesses": ledger}
