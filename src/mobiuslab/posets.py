"""Finite posets, incidence-algebra matrices and Mobius functions.

A poset stores its elements in a fixed linear extension, so the zeta and
Mobius matrices are upper triangular with unit diagonal.  The linear
extension is computed by a deterministic Kahn ordering with ties broken
by input label order: identical input always yields identical matrices.
"""

from heapq import heappop, heappush
from itertools import compress, count

from .guards import POSET_ELEMENTS, check_size


class PosetError(ValueError):
    pass


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask):
    """Indices of the set bits of a nonnegative int, in increasing order.

    The mask is shifted down to its lowest set bit first, so the cost
    follows the span of the set bits, not the index of the highest one.
    """
    low = (mask & -mask).bit_length() - 1 if mask else 0
    return compress(count(low),
                    bin(mask >> low)[:1:-1].encode().translate(_BIT_BYTES))


def _pull(n, walk, sets):
    """Mobius values against one anchor by the pull recursion.

    The anchor lies below (or, dually, above) every element of walk, so
    it adds 1 to every sum and is folded into the start value: each b of
    walk in turn gets -1 - (sum of the entries at the walked x in
    sets[b]).  The finished entries are kept as one mask per distinct
    nonzero value, so each sum is a popcount per value class and decodes
    no set.  Returns the n entries, 0 off the walk; the anchor's own
    entry is left to the caller.  With walk the strict up-set of a in
    linear-extension order and sets the down-sets, this is row a; with
    the strict down-set in reverse order and the up-sets, column a; with
    a mask of kept elements and the down-sets, mu(0^, .) on the subposet
    they induce, for an adjoined bottom 0^.
    """
    vec = [0] * n
    classes = {}
    for b in walk:
        s = sets[b]
        v = -1
        for w, m in classes.items():
            v -= w * (m & s).bit_count()
        if v:
            vec[b] = v
            classes[v] = classes.get(v, 0) | 1 << b
    return vec


class Poset:
    """Immutable finite partially ordered set.

    The order is stored as Python-int bitmasks over element indices, which
    are positions in the linear extension: bit j of up[i] is set iff
    labels[i] <= labels[j].

    Attributes:
        labels: element identifiers, listed in linear-extension order
        n:      element count
        up:     up[i] = int bitmask of the j with labels[i] <= labels[j]
                (bit i included)
        down:   down[i] = int bitmask of the j with labels[j] <= labels[i]
        upper:  upper[i] = the j that cover i, increasing; together the
                covers are the transitive reduction of the order
        lower:  lower[j] = the i that j covers, increasing
    """

    def __init__(self, labels, up, down, upper, lower):
        self.labels = list(labels)
        self.n = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != self.n:
            raise PosetError("duplicate label")
        self.up = up
        self.down = down
        self.upper = upper
        self.lower = lower

    # -- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, labels, covers):
        """Build a poset from cover (or any acyclic generating) relations,
        a list of (lo, hi) label pairs.

        Pairs that turn out to be transitively implied are reduced away;
        the stored covers are always the transitive reduction.  Each pair
        is read once, straight into Kahn's successor lists.
        """
        labels = list(labels)
        index = {}
        for i, lab in enumerate(labels):
            try:
                if lab in index:
                    raise PosetError(f"duplicate label {lab!r}")
            except TypeError:
                raise PosetError(f"elements[{i}] is an unhashable label "
                                 f"{lab!r}") from None
            index[lab] = i
        succ = [[] for _ in labels]
        indeg = [0] * len(labels)
        try:
            for lo, hi in covers:
                j = index[hi]
                succ[index[lo]].append(j)
                indeg[j] += 1
            # a two-letter string unpacks as a pair too
            if not {*map(type, covers)} <= {list, tuple}:
                raise TypeError
        except (KeyError, TypeError, ValueError):
            raise PosetError(_cover_error(index, covers)) from None
        return cls._from_succ(labels, succ, indeg)

    @classmethod
    def _from_arcs(cls, labels, arcs):
        """Finalize a poset given index arcs whose transitive closure is
        the intended strict order."""
        succ = [[] for _ in labels]
        indeg = [0] * len(labels)
        for i, j in arcs:
            succ[i].append(j)
            indeg[j] += 1
        return cls._from_succ(labels, succ, indeg)

    @classmethod
    def _from_succ(cls, labels, succ, indeg):
        """Finalize a poset given each element's successor list and
        in-degree, in one reduce-and-close pass (Goralcikova and Koubek,
        1979), here on the down side.

        The linear extension is Kahn's, always placing the smallest ready
        index; as it walks the arcs it also gathers, for each element,
        the positions of its predecessors in one mask.  Then, for each j
        in linear-extension order, that mask is peeled highest bit first:
        the highest bit i left is a lower cover of j, since every
        predecessor placed after i is a cover or lies below one, and no
        down-set taken so far holds i.  down[i] is ORed into down[j] and
        removed from the mask, so an implied arc costs no OR.  up is
        pushed back along the covers only."""
        n = len(labels)
        # a repeated arc counts once per copy on both sides; a self-loop
        # keeps its element from ever being ready
        ready = [i for i in range(n) if not indeg[i]]
        topo = []
        below = [0] * n
        while ready:
            i = heappop(ready)
            b = 1 << len(topo)
            topo.append(i)
            for j in succ[i]:
                below[j] |= b
                indeg[j] -= 1
                if not indeg[j]:
                    heappush(ready, j)
        if len(topo) < n:
            cls._report_cycle(labels, succ, topo)
        down = [0] * n
        upper = [[] for _ in range(n)]
        lower = []
        for j in range(n):
            left = below[topo[j]]
            d = 1 << j
            cov = []
            while left:
                i = left.bit_length() - 1
                upper[i].append(j)
                cov.append(i)
                d |= down[i]
                left &= ~down[i]
            down[j] = d
            lower.append(cov[::-1])  # peeled highest first
        up = [1 << i for i in range(n)]
        for i in reversed(range(n)):
            u = up[i]
            for j in upper[i]:
                u |= up[j]
            up[i] = u
        return cls([labels[i] for i in topo], up, down, upper, lower)

    @staticmethod
    def _report_cycle(labels, succ, placed):
        """Raise a PosetError naming one cycle among the elements that
        Kahn's order left unplaced: a self-loop if there is one."""
        left = set(range(len(succ))).difference(placed)
        loop = next((i for i in sorted(left) if i in succ[i]), None)
        if loop is not None:
            raise PosetError(
                f"cycle detected: {labels[loop]} < {labels[loop]}")
        # every successor of an unplaced element is unplaced; drop those
        # that reach no cycle, so the walk below cannot end in a sink
        out = {i: len(succ[i]) for i in left}
        pred = {i: [] for i in left}
        for i in left:
            for j in succ[i]:
                pred[j].append(i)
        sinks = [i for i in left if not out[i]]
        while sinks:
            j = sinks.pop()
            left.remove(j)
            for i in pred[j]:
                out[i] -= 1
                if not out[i]:
                    sinks.append(i)
        # walk forward until we revisit a node, then slice the cycle out
        path, seen = [], {}
        i = min(left)
        while i not in seen:
            seen[i] = len(path)
            path.append(i)
            nxt = [j for j in succ[i] if j in seen]
            i = min(nxt) if nxt else min(j for j in succ[i] if j in left)
        cyc = path[seen[i]:] + [i]
        names = " < ".join(str(labels[k]) for k in cyc)
        raise PosetError(f"cycle detected: {names}")

    # -- basic queries ---------------------------------------------------

    def idx(self, a):
        try:
            return self.index[a]
        except KeyError:
            raise PosetError(f"unknown label {a!r}") from None

    def heights(self):
        """Per-element longest-chain-from-a-minimal-element lengths."""
        h = []
        for cov in self.lower:
            h.append(max([h[i] for i in cov], default=-1) + 1)
        return h

    # -- incidence matrices ----------------------------------------------

    def zeta_matrix(self):
        return [[m >> j & 1 for j in range(self.n)] for m in self.up]

    def mobius_row(self, a):
        """Row a of the Mobius matrix, pulled over the strict up-set of a
        in linear-extension order: mu(a,b) = -sum_{a <= x < b} mu(a,x).
        Every call builds a new list, 0 at the b not above a."""
        row = _pull(self.n, _bits(self.up[a] ^ 1 << a), self.down)
        row[a] = 1
        return row

    def mobius_col(self, b):
        """Column b of the Mobius matrix, via the dual recursion
        mu(c,b) = -sum_{c < x <= b} mu(x,b), pulled over the strict
        down-set of b in reverse linear-extension order.  Every call
        builds a new list."""
        col = _pull(self.n, reversed([*_bits(self.down[b] ^ 1 << b)]),
                    self.up)
        col[b] = 1
        return col

    def mobius_matrix(self):
        """All rows, by the recursion mu(a,b) = -sum_{a <= x < b} mu(a,x)
        in push form: mu(a,x) is final once x is reached in
        linear-extension order, and is then subtracted from every b in
        the strict up-set of x; zeros are not pushed.  The strict up-sets
        are decoded once into a table that lives only as long as the
        call.  On whole matrices this push is faster than a pull per row.
        """
        n = self.n
        above = [tuple(_bits(m ^ 1 << x)) for x, m in enumerate(self.up)]
        rows = []
        for a in range(n):
            row = [0] * n
            row[a] = 1
            for x in (a, *above[a]):
                v = row[x]
                if v:
                    for b in above[x]:
                        row[b] -= v
            rows.append(row)
        return rows

    def mobius_idx(self, i, j):
        """mu(i, j) by index, pulled over the interval [i, j] only: 1 on
        the diagonal, 0 unless i < j.  A caller that reads many entries of
        one row or column computes that row or column once instead."""
        if i == j:
            return 1
        if not self.up[i] >> j & 1:
            return 0
        return _pull(self.n, _bits(self.up[i] & self.down[j] ^ 1 << i),
                     self.down)[j]

    # -- constructions ---------------------------------------------------

    def product(self, other):
        labels = [(a, b) for a in self.labels for b in other.labels]
        pos = {lab: k for k, lab in enumerate(labels)}
        arcs = []
        for i, cov in enumerate(self.upper):
            for j in cov:
                for b in other.labels:
                    arcs.append((pos[(self.labels[i], b)],
                                 pos[(self.labels[j], b)]))
        for i, cov in enumerate(other.upper):
            for j in cov:
                for a in self.labels:
                    arcs.append((pos[(a, other.labels[i])],
                                 pos[(a, other.labels[j])]))
        return Poset._from_arcs(labels, arcs)

    def restrict(self, keep):
        """Induced subposet on the elements in the bitmask keep."""
        kept = [*_bits(keep)]
        pos = {old: new for new, old in enumerate(kept)}
        labels = [self.labels[i] for i in kept]
        arcs = [(pos[i], pos[j]) for i in kept
                for j in _bits(self.up[i] & keep ^ 1 << i)]
        return Poset._from_arcs(labels, arcs)

    def mobius_number(self, keep=None):
        """mu(0^, 1^) of the subposet induced on the elements in the
        bitmask keep (all of P by default) with a fresh bottom and top
        adjoined.

        One pull over the parent's down-sets, building no poset: the walk
        is the linear extension restricted to keep (one of the induced
        order), 0^ is the pull's anchor, and
        mu(0^, 1^) = -(1 + sum of mu(0^, x) over the kept x).
        """
        if keep is None:
            keep = (1 << self.n) - 1
        return -1 - sum(_pull(self.n, _bits(keep), self.down))

    def __repr__(self):
        return f"Poset(n={self.n})"


# -- JSON interchange ----------------------------------------------------

def poset_to_json(P):
    return {"elements": list(P.labels),
            "covers": [[P.labels[i], P.labels[j]]
                       for i, cov in enumerate(P.upper) for j in cov]}


def _cover_error(index, covers):
    """The message for the first entry of covers that is not a pair of
    known labels; index maps each label to its position."""
    for k, pair in enumerate(covers if type(covers) in (list, tuple) else ()):
        if type(pair) not in (list, tuple) or len(pair) != 2:
            return f"covers[{k}] is not a pair of labels"
        for lab in pair:
            try:
                if lab not in index:
                    return f"unknown label {lab!r} in covers"
            except TypeError:
                return f"covers[{k}] holds an unhashable label {lab!r}"
    return "'covers' is not a list of pairs"


def poset_from_json(data):
    if type(data) is not dict:
        raise PosetError("poset JSON is not an object")
    if "elements" not in data or "covers" not in data:
        raise PosetError("poset JSON needs 'elements' and 'covers' keys")
    if type(data["elements"]) not in (list, tuple):
        raise PosetError("'elements' is not a list of labels")
    check_size("poset", len(data["elements"]), POSET_ELEMENTS)
    # non-cover relations in the input are accepted and reduced
    return Poset.from_covers(data["elements"], data["covers"])
