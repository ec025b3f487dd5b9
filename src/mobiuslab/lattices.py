"""Lattice recognition, rank theory, and the geometric-lattice identity
suite (Weisner, cutsets, complements, modular factorization,
point/hyperplane counting, Kung's theorem, point deletion)."""

from collections import Counter
from itertools import combinations

from .exactmat import bareiss_det, int_row_rank
from .posets import Poset, PosetError, _bits


class LatticeError(PosetError):
    pass


class NotRankedError(LatticeError):
    pass


def _extremes(covers):
    """The elements with nothing on one side: the minimal ones given the
    lower cover lists, the maximal ones given the upper."""
    return [i for i, cov in enumerate(covers) if not cov]


def _meets_of_covers(lower, down):
    """True iff, in a poset with a zero, any two elements covered by a
    common element have a meet.  Their common lower bounds c, never 0,
    have a greatest element iff c is the down-set of its highest bit, as
    a meet follows every other lower bound in the linear extension."""
    for xs in lower:
        for x, y in combinations(xs, 2):
            c = down[x] & down[y]
            if c != down[c.bit_length() - 1]:
                return False
    return True


def _joins_of_covers(upper, up):
    """True iff any two elements covering a common element have a join
    or no common upper bound: their common upper bounds c are 0 or the
    up-set of the lowest bit of c, as a join precedes every other upper
    bound in the linear extension."""
    for xs in upper:
        for x, y in combinations(xs, 2):
            c = up[x] & up[y]
            if c and c != up[(c & -c).bit_length() - 1]:
                return False
    return True


class MeetSemilattice(Poset):
    """Poset with a zero element in which every pair has a greatest
    lower bound, that is, every pair with an upper bound has a join.

    Element indices are the poset's (linear-extension order), so index 0
    is the zero; its labels, index and order lists are shared, not copied.
    """

    def __init__(self, poset):
        self._share(poset)
        if self.n == 0:
            raise PosetError("empty poset is not a meet semilattice")
        minimals = _extremes(self.lower)
        if len(minimals) != 1:
            raise PosetError(f"{len(minimals)} minimal elements; a meet "
                             "semilattice has a unique zero")
        self.zero = minimals[0]
        # there may be no top, so the pairs of upper covers are scanned
        if not _joins_of_covers(self.upper, self.up):
            self._raise_witness(self.down, lambda c: c.bit_length() - 1,
                                PosetError, "greatest lower")

    def _share(self, P):
        """Take P's labels, index and order lists as they are."""
        (self.labels, self.n, self.index, self.up, self.down, self.upper,
         self.lower) = P.labels, P.n, P.index, P.up, P.down, P.upper, P.lower

    def _raise_witness(self, sets, end, error, bound):
        """Raise error naming the first pair in index order whose bound
        is missing.  The bounds are read from sets (down-sets for a meet,
        up-sets for a join): the common bounds c of the pair have one
        iff c is 0 or c is the set of its bit end(c), the highest for a
        meet and the lowest for a join.  The pair is sought among the
        later j not above i, which in a linear extension are the j > i
        incomparable with i; a comparable pair has both bounds."""
        up, every = self.up, (1 << self.n) - 1
        for i in range(self.n):
            for j in _bits((every ^ up[i]) >> i << i):
                c = sets[i] & sets[j]
                if c and c != sets[end(c)]:
                    raise error(f"no {bound} bound for witness pair "
                                f"({self.labels[i]!r}, {self.labels[j]!r})")

    def meet(self, i, j):
        return (self.down[i] & self.down[j]).bit_length() - 1


class Lattice(MeetSemilattice):
    """A poset in which every pair has a join and a meet.

    Index 0 is the zero and index n-1 is the one.  A bounded poset whose
    pairs all have joins is a lattice.
    """

    def __init__(self, poset):
        self._share(poset)
        if self.n == 0:
            raise LatticeError("empty poset is not a lattice")
        minimals, maximals = _extremes(self.lower), _extremes(self.upper)
        if len(minimals) != 1 or len(maximals) != 1:
            raise LatticeError("poset is not bounded: "
                               f"{len(minimals)} minimal / "
                               f"{len(maximals)} maximal elements")
        self.zero = minimals[0]
        self.one = maximals[0]
        self._rank = None
        # a bounded poset is a lattice iff every pair has a meet: the
        # criterion of MeetSemilattice on the dual order, which pairs
        # lower covers.  The witness is the first pair with no join; no
        # pair before it lacks a meet, as two maximal lower bounds would
        # lack a join
        if not _meets_of_covers(self.lower, self.down):
            self._raise_witness(self.up, lambda c: (c & -c).bit_length() - 1,
                                LatticeError, "least upper")

    def join(self, i, j):
        # a join precedes every other upper bound in the linear extension
        common = self.up[i] & self.up[j]
        return (common & -common).bit_length() - 1

    def join_set(self, indices):
        common = self.up[self.zero]
        for i in indices:
            common &= self.up[i]
        return (common & -common).bit_length() - 1

    @property
    def rank(self):
        """Per-element rank (longest chain from zero) as a tuple,
        validated against the Jordan-Dedekind condition.  One pass over
        the lower covers: those of an element share one rank, and its own
        is one more."""
        if self._rank is None:
            r = []
            for cov in self.lower:
                k = r[cov[0]] if cov else -1
                for i in cov:
                    if r[i] != k:
                        self._raise_unranked()
                r.append(k + 1)
            self._rank = tuple(r)
        return self._rank

    def _raise_unranked(self):
        """Raise NotRankedError naming the first cover pair, in the order
        of the upper cover lists, whose heights differ by more than 1."""
        r = self.heights()
        for i, cov in enumerate(self.upper):
            for j in cov:
                if r[j] != r[i] + 1:
                    raise NotRankedError(
                        "unequal maximal chains below witness pair "
                        f"({self.labels[i]!r}, {self.labels[j]!r})")

    @property
    def height(self):
        return self.rank[self.one]

    def atoms(self):
        return list(self.upper[self.zero])

    def coatoms(self):
        return list(self.lower[self.one])

    def top_join_mask(self, a):
        """Mask of the x with x v a = 1.  x v a < 1 iff some coatom lies
        above both x and a, so these are the elements outside the
        down-sets of the coatoms above a, and no join is taken."""
        up, down = self.up, self.down
        mask = (1 << self.n) - 1
        for h in self.lower[self.one]:
            if up[a] >> h & 1:
                mask &= ~down[h]
        return mask

    def complements(self, a):
        """Mask of the x with x v a = 1 and x ^ a = 0; dually, x ^ a > 0
        iff some atom lies below both."""
        mask = self.top_join_mask(a)
        for p in self.upper[self.zero]:
            if self.down[a] >> p & 1:
                mask &= ~self.up[p]
        return mask

    def __repr__(self):
        return f"Lattice(n={self.n})"


# -- predicates ----------------------------------------------------------

def _semimodular_side(L, covers, bound):
    """True iff, whenever x != y both lie in some list covers[c],
    bound(x, y) lies in covers[x] and in covers[y].  Given the upper
    cover lists, x and y cover c and bound(x, y) covers both."""
    for xs in covers:
        for x, y in combinations(xs, 2):
            z = bound(x, y)
            if z not in covers[x] or z not in covers[y]:
                return False
    return True


def is_semimodular(L):
    """Upper semimodularity by the local criterion (Stanley, EC1 Prop.
    3.3.2): whenever x != y both cover some c, x v y covers both."""
    return _semimodular_side(L, L.upper, L.join)


def is_atomistic(L):
    """Every x is the join of the atoms below it iff every join-
    irreducible x != 0 (covering one element) is an atom (covering 0
    alone), as each x is the join of the join-irreducibles below it."""
    return all(L.lower[x] == [L.zero] for x in join_irreducibles(L)
               if x != L.zero)


def is_geometric(L):
    return is_semimodular(L) and is_atomistic(L)


def is_modular_element(L, a):
    """Rank equality r(a) + r(b) = r(a^b) + r(avb) against every b."""
    r = L.rank
    return all(r[L.meet(a, b)] + r[L.join(a, b)] == r[a] + r[b]
               for b in range(L.n))


def is_lower_semimodular(L):
    """The dual criterion: whenever x != y are both covered by some c,
    both cover x ^ y."""
    return _semimodular_side(L, L.lower, L.meet)


def is_modular_lattice(L):
    """A finite lattice is modular iff it is upper and lower semimodular
    (Birkhoff); the lower side goes first, as Pi_n fails only there."""
    return is_lower_semimodular(L) and is_semimodular(L)


def whitney_numbers(L):
    """W_k = number of elements of rank k."""
    r = L.rank
    counts = [0] * (r[L.one] + 1)
    for k in r:
        counts[k] += 1
    return counts


def whitney_rank_sums(L):
    """Signed sums w_k = sum_{r(a)=k} mu(0, a)."""
    r = L.rank
    sums = [0] * (r[L.one] + 1)
    for k, m in zip(r, L.mobius_row(L.zero)):
        sums[k] += m
    return sums


def _value_classes(vec):
    """One bitmask per distinct nonzero value of vec: bit x of the mask
    for v is set iff vec[x] == v."""
    classes = {}
    for x, v in enumerate(vec):
        if v:
            classes[v] = classes.get(v, 0) | 1 << x
    return classes


def _class_sum(classes, mask):
    """The sum of vec[x] over the x in mask, given the value classes of
    vec: one popcount per class, with no set decoded."""
    return sum(v * (m & mask).bit_count() for v, m in classes.items())


# -- identity checks -----------------------------------------------------

def weisner_check(L, elements):
    """mu(0,1) = -sum over x < 1 with x v a = 1 of mu(0,x), for each a
    in elements (none of them 0); one report per a, in order.

    The witnesses x of a are the top_join_mask of a without 1.  The sum
    is a popcount of the witness mask against each value class of
    mu(0, .).  A report gives the witness count, and the witness labels
    only when it fails."""
    if L.zero in elements:
        raise LatticeError("Weisner's lemma needs a != 0")
    mu0 = L.mobius_row(L.zero)
    lhs = mu0[L.one]
    classes = _value_classes(mu0)
    reports = []
    for a in elements:
        witness = L.top_join_mask(a) ^ 1 << L.one
        rhs = -_class_sum(classes, witness)
        report = {"identity": "Weisner", "lhs": lhs, "rhs": rhs,
                  "pass": lhs == rhs, "witness_count": witness.bit_count()}
        if lhs != rhs:
            report["witnesses"] = [L.labels[x] for x in _bits(witness)]
        reports.append(report)
    return reports


def is_cutset(L, cut):
    """A cutset meets every maximal chain from 0 to 1.  Returns a witness
    maximal chain avoiding the set, or None if the set is a cutset.

    One depth-first pass over the covers that avoid the set: an element
    once left without reaching 1 can never reach it, so it is entered at
    most once, and the witness is the first chain in cover order."""
    cut = set(cut)
    if L.zero in cut:
        return None
    upper = L.upper
    seen = {L.zero}
    chain = [L.zero]
    pending = [iter(upper[L.zero])]
    while chain[-1] != L.one:
        for y in pending[-1]:
            if y not in cut and y not in seen:
                seen.add(y)
                chain.append(y)
                pending.append(iter(upper[y]))
                break
        else:
            chain.pop()
            pending.pop()
            if not chain:
                return None
    return chain


def cutset_mobius(L, cut):
    """mu(0,1) by Rota's crosscut theorem: the sum of (-1)^|T| over the
    nonempty subsets T of the cutset whose join and meet lie in {0, 1}.
    T counts only through its (join, meet), so the cut is folded in one
    element at a time over the signed count of each (join, meet)."""
    cut = sorted(set(cut))
    witness = is_cutset(L, cut)
    if witness is not None:
        raise LatticeError("not a cutset; untouched maximal chain: "
                           + " < ".join(str(L.labels[x]) for x in witness))
    signed = Counter()
    for c in cut:
        grown = Counter({(c, c): -1})
        for (j, m), count in signed.items():
            grown[L.join(j, c), L.meet(m, c)] -= count
        signed.update(grown)
    ends = (L.zero, L.one)
    return sum(count for (j, m), count in signed.items()
               if j in ends and m in ends)


def walker_complement_check(L, a):
    """mu of L' minus the complements of a is zero."""
    if a in (L.zero, L.one):
        raise LatticeError("element must lie strictly between 0 and 1")
    comp = L.complements(a)
    keep = (1 << L.n) - 1 ^ 1 << L.zero ^ 1 << L.one ^ comp
    value = L.mobius_number(keep)
    return {"identity": "complement deletion", "lhs": value, "rhs": 0,
            "pass": value == 0,
            "witnesses": [L.labels[x] for x in _bits(comp)]}


def _check_join_isomorphism(L, a, x):
    """Verify t -> t v x maps [x^a, a] bijectively and order-preservingly
    onto [x, x v a]."""
    lo, hi = L.meet(a, x), L.join(a, x)
    up = L.up
    source = list(_bits(up[lo] & L.down[a]))
    image = [L.join(t, x) for t in source]
    image_mask = 0
    for t in image:
        image_mask |= 1 << t
    if image_mask != up[x] & L.down[hi]:
        return False
    for s, t in zip(source, image):
        for s2, t2 in zip(source, image):
            if (up[s] >> s2 & 1) != (up[t] >> t2 & 1):
                return False
    return True


def modular_factorization(L, a):
    """mu(0,1) = mu(0,a) * sum over complements x of a of mu(0,x), for a
    modular element a strictly between 0 and 1."""
    if a in (L.zero, L.one):
        raise LatticeError("need 0 < a < 1")
    if not is_modular_element(L, a):
        raise LatticeError(f"{L.labels[a]!r} is not modular")
    mu0 = L.mobius_row(L.zero)
    comp = [*_bits(L.complements(a))]
    lhs = mu0[L.one]
    rhs = mu0[a] * sum(mu0[x] for x in comp)
    iso_ok = all(_check_join_isomorphism(L, a, x) for x in comp)
    # Stanley's criterion (a is modular iff no two of its complements are
    # comparable) is a theorem only for geometric lattices
    up = L.up
    antichain_ok = not is_geometric(L) or not any(
        up[x] >> y & 1 for x in comp for y in comp if x != y)
    return {"identity": "modular factorization", "lhs": lhs, "rhs": rhs,
            "pass": lhs == rhs and iso_ok and antichain_ok,
            "antichain_ok": antichain_ok,
            "witnesses": [L.labels[x] for x in comp]}


def _perfect_matching(support, n):
    """Kuhn augmenting-path matching on row -> allowed-columns lists.
    Returns a permutation list or None."""
    match_col = [None] * n

    def augment(row, seen):
        for col in support[row]:
            if col in seen:
                continue
            seen.add(col)
            if match_col[col] is None or augment(match_col[col], seen):
                match_col[col] = row
                return True
        return False

    for row in range(n):
        if not augment(row, set()):
            return None
    perm = [None] * n
    for col, row in enumerate(match_col):
        perm[row] = col
    return perm


def dowling_wilson_check(L):
    """det of the join-hits-one matrix equals prod_p mu(p,1) != 0, and a
    permutation with q v sigma(q) = 1 is extracted from its support."""
    mu_top = L.mobius_col(L.one)
    bad = [p for p in range(L.n) if mu_top[p] == 0]
    if bad:
        raise LatticeError("hypothesis fails: mu(p,1) = 0 at "
                           f"{L.labels[bad[0]]!r}")
    hits = [L.top_join_mask(p) for p in range(L.n)]
    det = bareiss_det([[m >> q & 1 for q in range(L.n)] for m in hits])
    prod = 1
    for p in range(L.n):
        prod *= mu_top[p]
    support = [list(_bits(m)) for m in hits]
    perm = _perfect_matching(support, L.n)
    ok = det == prod and det != 0 and perm is not None
    ok = ok and all(L.join(p, perm[p]) == L.one for p in range(L.n))
    ok = ok and perm[L.zero] == L.one
    return {"identity": "join-complement permutation", "lhs": det,
            "rhs": prod, "pass": ok,
            "permutation": None if perm is None else
            [L.labels[q] for q in perm]}


def top_heavy_check(L, k):
    """W_0 + ... + W_k <= W_{d-k} + ... + W_d."""
    W = whitney_numbers(L)
    d = L.height
    if not 0 <= k <= d:
        raise LatticeError(f"k must be in 0..{d}")
    lhs = sum(W[:k + 1])
    rhs = sum(W[d - k:])
    return {"identity": "top-heavy partial sums", "lhs": lhs, "rhs": rhs,
            "pass": lhs <= rhs, "witnesses": []}


def dowling_complement_check(L):
    """Build the entrywise matrix M with (M)_{pq} = Mobius number of
    {x in L': x v p < 1, x <= q}, relate it to the product F = -Z^T D H
    (which equals -M transposed on the inner block), check that product
    is nonsingular, and extract a complement-pairing permutation from
    its support."""
    mu0 = L.mobius_row(L.zero)
    mu_top = L.mobius_col(L.one)
    bad = [p for p in range(L.n) if mu0[p] == 0 or mu_top[p] == 0]
    if bad:
        raise LatticeError("hypothesis fails: mu(0,p) mu(p,1) = 0 at "
                           f"{L.labels[bad[0]]!r}")
    down = L.down
    classes = _value_classes(mu0)
    inner = [x for x in range(L.n) if x not in (L.zero, L.one)]
    inner_mask = (1 << L.n) - 1 & ~(1 << L.zero | 1 << L.one)
    hits = [L.top_join_mask(p) for p in range(L.n)]
    M = [[0] * L.n for _ in range(L.n)]
    ideal_ok = True
    for p in range(L.n):
        gp = inner_mask & ~hits[p]
        for q in range(L.n):
            ideal = gp & down[q]
            value = L.mobius_number(ideal)
            # ideal identity: the Mobius number of a down-closed subset
            # of L' is minus the sum of mu(0, z) over it and 0
            ideal_ok = ideal_ok and value == -_class_sum(
                classes, ideal | 1 << L.zero)
            M[p][q] = value
    # D = diag(mu(0, .)) and H_iq = [i v q = 1], so F_pq is minus the
    # sum of mu(0, i) over the i <= p with i v q = 1
    F = [[-_class_sum(classes, down[p] & m) for m in hits]
         for p in range(L.n)]
    factor_ok = all(F[p][q] == -M[q][p] for p in inner for q in inner)
    det = bareiss_det(F)
    comps = [L.complements(p) for p in range(L.n)]
    lemma_ok = all(comps[p] >> q & 1
                   for p in inner for q in inner if M[p][q] != 0)
    comp_support = [[q for q in _bits(comps[p]) if F[p][q] != 0]
                    for p in range(L.n)]
    support_ok = all(comps[p] >> q & 1
                     for p in range(L.n) for q in range(L.n) if F[p][q] != 0)
    perm = _perfect_matching(comp_support, L.n)
    ok = (det != 0 and ideal_ok and factor_ok and lemma_ok and support_ok
          and perm is not None)
    return {"identity": "complement permutation", "lhs": det, "rhs": "nonzero",
            "pass": ok,
            "permutation": None if perm is None else
            [L.labels[q] for q in perm]}


def basterfield_kelly_check(L):
    """W_1 = W_{d-1} iff the lattice is modular; modularity also checked
    through the hyperplane/line meet criterion."""
    W = whitney_numbers(L)
    d = L.height
    w1, wd1 = W[1] if d >= 1 else 0, W[d - 1] if d >= 1 else 0
    modular = is_modular_lattice(L)
    r = L.rank
    lines = [x for x in range(L.n) if r[x] == 2]
    hyperplane_line = all(L.meet(h, l) != L.zero
                          for h in L.coatoms() for l in lines)
    consistent = (w1 == wd1) == modular and modular == hyperplane_line
    return {"identity": "points vs hyperplanes", "lhs": w1, "rhs": wd1,
            "pass": w1 <= wd1 and consistent,
            "modular": modular, "hyperplane_line_criterion": hyperplane_line}


def join_irreducibles(L):
    """Elements covering at most one element, 0 included: x is the join
    of two elements other than x iff it covers two or more."""
    return [x for x, cov in enumerate(L.lower) if len(cov) <= 1]


def meet_irreducibles(L):
    """Elements covered by at most one element, 1 included."""
    return [x for x, cov in enumerate(L.upper) if len(cov) <= 1]


def kung_check(L, k):
    """With A = ranks <= k and B = ranks >= d - k: the zeta submatrix
    Z[A, B] has full row rank, after verifying the hypothesis with
    x* = 1 for every x outside B.  On modular lattices additionally
    checks |J(L)| = |M(L)|."""
    d = L.height
    if not 0 <= k <= d:
        raise LatticeError(f"k must be in 0..{d}")
    r = L.rank
    A = [x for x in range(L.n) if r[x] <= k]
    B = [x for x in range(L.n) if r[x] >= d - k]
    mu_top = L.mobius_col(L.one)
    A_mask = sum(1 << a for a in A)
    for x in range(L.n):
        if r[x] >= d - k:
            continue
        if mu_top[x] == 0:
            raise LatticeError("hypothesis violation: mu(x,1) = 0 at "
                               f"witness {L.labels[x]!r}")
        if L.top_join_mask(x) & A_mask:
            raise LatticeError("hypothesis violation: a v x = x* at "
                               f"witness {L.labels[x]!r}")
    sub = [[L.up[a] >> b & 1 for b in B] for a in A]
    rank = int_row_rank(sub)
    result = {"identity": "zeta submatrix row rank", "lhs": rank,
              "rhs": len(A), "pass": rank == len(A),
              "A_size": len(A), "B_size": len(B)}
    if is_modular_lattice(L):
        J, Mi = join_irreducibles(L), meet_irreducibles(L)
        result["join_irreducibles"] = len(J)
        result["meet_irreducibles"] = len(Mi)
        result["pass"] = result["pass"] and len(J) == len(Mi)
    return result


def point_deletion(L, p):
    """Delete the atom p: take the fixed points of
    a -> join of the other atoms below a, complete to a lattice, and
    verify the deletion recursion for mu(0,1)."""
    atoms = L.atoms()
    if p not in atoms:
        raise LatticeError(f"{L.labels[p]!r} is not an atom")
    others = [q for q in atoms if q != p]
    h = L.join_set(others)
    coloop = h != L.one
    up = L.up
    fixed = sum(1 << a for a in range(L.n)
                if L.join_set([q for q in others if up[q] >> a & 1]) == a)
    deleted = Lattice(L.restrict(fixed))
    mu0 = L.mobius_row(L.zero)
    lhs = mu0[L.one]
    mu_p_top = L.mobius_idx(p, L.one)
    if coloop:
        rhs = -mu_p_top
    else:
        rhs = deleted.mobius_row(deleted.zero)[deleted.one] - mu_p_top
    report = {"identity": "point deletion recursion", "lhs": lhs, "rhs": rhs,
              "pass": lhs == rhs, "coloop": coloop,
              "witnesses": [L.labels[p]]}
    return deleted, report
