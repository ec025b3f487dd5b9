"""Strength-t functions on meet semilattices and the Mobius-sum lower
bound on their support."""

from .inversion import _as_values, forward_up
from .posets import PosetError, _bits


def strength(S, f):
    """Largest t such that the up-sums vanish at every element of height
    at most t; -1 if some height-0 sum is nonzero.  The zero function
    gets the full poset height."""
    hat = forward_up(S, f)
    heights = S.heights()
    top = max(heights)
    t = -1
    for level in range(top + 1):
        if any(hat[x] != 0 for x in range(S.n) if heights[x] == level):
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
    f = _as_values(S, f)
    hat = forward_up(S, f)
    fibre = _meet_fibres(S, f, b)
    out = {}
    for c in _bits(S.down[b]):
        row = S.mobius_row(c)
        inverted = sum(row[y] * hat[y] for y in _bits(S.up[c] & S.down[b]))
        if fibre[c] != inverted:
            raise ArithmeticError(
                "interval restriction routes disagree at "
                f"{S.labels[c]!r}: fiber {fibre[c]}, inversion {inverted}")
        out[S.labels[c]] = fibre[c]
    return out


def support_lower_bound(S, b):
    """sum over c <= b of |mu(c, b)|, for the element index b: the
    column is 0 off the down-set of b."""
    return sum(map(abs, S.mobius_col(b)))


def verify_support_theorem(S, f):
    """For f of strength t supported on heights <= t + 1 with some
    nonzero up-sum at height t + 1: the support of f has size at least
    sum |mu(c,b)|, with equality forcing f to be (0, +-1)-valued.  The
    per-c ledger checks mu(c,b) f^(b) = sum over x ^ b = c of f(x)."""
    f = _as_values(S, f)
    hat = forward_up(S, f)
    heights = S.heights()
    t = strength(S, f)
    support = [x for x in range(S.n) if f[x] != 0]
    if not support:
        return {"identity": "support bound", "lhs": 0, "rhs": 0,
                "pass": True, "vacuous": True, "witnesses": []}
    too_high = [x for x in support if heights[x] > t + 1]
    if too_high:
        raise PosetError("support reaches height above t + 1 at witness "
                         f"{S.labels[too_high[0]]!r}")
    candidates = [b for b in range(S.n)
                  if heights[b] == t + 1 and hat[b] != 0]
    if not candidates:
        raise PosetError(f"no element of height {t + 1} has a nonzero "
                         "up-sum")
    b = candidates[0]
    col = S.mobius_col(b)
    bound = sum(map(abs, col))  # support_lower_bound, from the same pull
    fibre = _meet_fibres(S, f, b)
    ledger = [{"c": S.labels[c], "mu_times_hat": col[c] * hat[b],
               "fiber_sum": fibre[c], "pass": col[c] * hat[b] == fibre[c]}
              for c in _bits(S.down[b])]
    ok = len(support) >= bound and all(e["pass"] for e in ledger)
    if len(support) == bound:
        ok = ok and all(f[x] in (-1, 1) for x in support)
    return {"identity": "support bound", "lhs": len(support), "rhs": bound,
            "pass": ok, "b": S.labels[b], "strength": t,
            "witnesses": ledger}
