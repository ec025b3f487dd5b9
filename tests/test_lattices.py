import contextlib
import random
from collections import Counter

import pytest

from order_oracles import (bits, cover_pairs, first_unbounded_pair,
                           interval, poset_with_zero)
from mobiuslab import lattices
from mobiuslab.instances import (boolean_lattice, chain, complete_graph,
                                 contraction_lattice, cycle_graph,
                                 divisor_lattice,
                                 partition_lattice, subspace_lattice)
from mobiuslab.lattices import (Lattice, LatticeError, MeetSemilattice,
                                NotRankedError)
from mobiuslab.posets import Poset, poset_from_json, poset_to_json


def test_non_lattice_witness():
    P = Poset.from_covers(["0", "a", "b", "c", "d"],
                          [("0", "a"), ("0", "b"),
                           ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    with pytest.raises(LatticeError):
        Lattice(P)


def test_unbounded_rejected():
    with pytest.raises(LatticeError):
        Lattice(Poset.from_covers(["x", "y"], []))


def topless_meet_semilattice():
    """The first seeded poset with a zero, two or more maximal elements
    and every meet."""
    for seed in range(100):
        P = poset_with_zero(random.Random(seed), top=False)
        maximal = sum(m == 1 << i for i, m in enumerate(P.up))
        if maximal >= 2 and first_unbounded_pair(P, ("lower",)) is None:
            return P
    raise AssertionError("no seed gave a topless meet semilattice")


@pytest.mark.parametrize("name", ["B_3", "Pi_4", "D_60", "topless"])
def test_a_lattice_is_the_poset_it_was_built_from(name):
    # Lattice and MeetSemilattice hold the lists of the poset they check,
    # so every Poset method answers on them as on that poset
    if name == "topless":
        P = topless_meet_semilattice()
        built = [MeetSemilattice(P)]
    else:
        family = {"B_3": lambda: boolean_lattice(3),
                  "Pi_4": lambda: partition_lattice(4),
                  "D_60": lambda: divisor_lattice(60)}[name]
        P = poset_from_json(poset_to_json(family()))
        built = [Lattice(P), MeetSemilattice(P)]
    assert type(P) is Poset
    rng = random.Random(27)
    keeps = [0, (1 << P.n) - 1] + [rng.getrandbits(P.n) for _ in range(8)]
    for L in built:
        assert isinstance(L, Poset)
        for attr in ("up", "down", "upper", "lower", "labels"):
            assert getattr(L, attr) is getattr(P, attr)
        assert poset_to_json(L) == poset_to_json(P)
        assert all(L.mobius_row(a) == P.mobius_row(a) for a in range(P.n))
        for keep in keeps:
            assert L.mobius_number(keep) == P.mobius_number(keep)
            assert (poset_to_json(L.restrict(keep))
                    == poset_to_json(P.restrict(keep)))
        assert not hasattr(L, "poset")


def test_join_meet_tables():
    L = boolean_lattice(3)
    a, b = L.idx("1"), L.idx("2")
    assert L.labels[L.join(a, b)] == "12"
    assert L.meet(a, b) == L.zero
    assert L.join_set([]) == L.zero


def test_rank_cannot_be_edited_through_its_result():
    # writing into the returned ranks must not change a later answer
    L = boolean_lattice(3)
    r = L.rank
    with contextlib.suppress(TypeError):
        r[3] = 0
    assert lattices.whitney_numbers(L) == [1, 3, 3, 1]
    assert lattices.is_modular_lattice(L)


def test_rank_and_jordan_dedekind():
    L = boolean_lattice(4)
    assert L.height == 4
    assert all(L.rank[x] == len(L.labels[x]) for x in range(L.n))
    bad = Lattice(Poset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]))
    with pytest.raises(NotRankedError):
        bad.rank


def test_atoms_coatoms_complements():
    L = boolean_lattice(3)
    assert len(L.atoms()) == len(L.coatoms()) == 3
    a = L.idx("1")
    comp = bits(L.complements(a))
    assert comp == [L.idx("23")]


def test_semimodular_geometric_modular():
    assert lattices.is_geometric(boolean_lattice(3))
    assert lattices.is_geometric(subspace_lattice(2, 3))
    assert lattices.is_geometric(partition_lattice(4))
    assert lattices.is_modular_lattice(boolean_lattice(3))
    assert lattices.is_modular_lattice(subspace_lattice(2, 3))
    assert not lattices.is_modular_lattice(partition_lattice(4))
    N5 = Lattice(Poset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]))
    assert not lattices.is_modular_lattice(N5)
    assert not lattices.is_semimodular(boolean_lattice(2)) is False


def test_modular_elements_in_partition_lattice():
    L = partition_lattice(4)
    for p in L.atoms():
        assert lattices.is_modular_element(L, p)
    assert lattices.is_modular_element(L, L.idx("0122"))
    assert not lattices.is_modular_element(L, L.idx("0011"))


def test_whitney_numbers():
    assert lattices.whitney_numbers(boolean_lattice(3)) == [1, 3, 3, 1]
    assert lattices.whitney_numbers(subspace_lattice(2, 3)) == [1, 7, 7, 1]
    assert lattices.whitney_numbers(partition_lattice(4)) == [1, 6, 7, 1]


def test_whitney_rank_sums_alternate_in_sign():
    for L in (boolean_lattice(4), subspace_lattice(2, 3),
              partition_lattice(5)):
        w = lattices.whitney_rank_sums(L)
        assert all((-1) ** k * w[k] > 0 for k in range(len(w)))
    assert lattices.whitney_rank_sums(boolean_lattice(3)) == [1, -3, 3, -1]
    assert lattices.whitney_rank_sums(partition_lattice(3)) == [1, -3, 2]


def test_sign_corollary_on_intervals():
    L = contraction_lattice(complete_graph(4))
    r = L.rank
    P = L
    for a in range(L.n):
        for b in bits(P.up[a]):
            mu = P.mobius_idx(a, b)
            assert (-1) ** (r[b] - r[a]) * mu > 0


def test_weisner():
    for L in (boolean_lattice(4), subspace_lattice(2, 3),
              partition_lattice(5)):
        for a in range(L.n):
            if a == L.zero:
                continue
            assert lattices.weisner_check(L, [a])[0]["pass"]
    with pytest.raises(LatticeError):
        lattices.weisner_check(boolean_lattice(2), [0])


def test_weisner_reports_follow_the_element_list(monkeypatch):
    L = boolean_lattice(3)
    P = L
    elements = [P.idx(lab) for lab in ("123", "1", "12", "3")]
    reports = lattices.weisner_check(L, elements)
    assert [r["witness_count"] for r in reports] == [7, 1, 3, 1]
    assert all(r["lhs"] == r["rhs"] == -1 and r["pass"] for r in reports)
    # the witness labels are decoded only for a failing report
    assert not any("witnesses" in r for r in reports)
    with pytest.raises(LatticeError):
        lattices.weisner_check(L, [P.idx("1"), L.zero])
    # a wrong mu(0, 23) fails every a whose witnesses hold 23: not a = 3,
    # whose only witness is 12
    row = P.mobius_row(L.zero)
    row[P.idx("23")] += 1
    monkeypatch.setattr(P, "mobius_row", lambda a: list(row))
    reports = lattices.weisner_check(L, elements)
    assert [(r["lhs"], r["rhs"], r["pass"]) for r in reports] == [
        (-1, -2, False), (-1, -2, False), (-1, -2, False), (-1, -1, True)]
    assert [r.get("witnesses") for r in reports] == [
        ["", "1", "2", "12", "3", "13", "23"], ["23"], ["3", "13", "23"],
        None]
    assert [r["witness_count"] for r in reports] == [7, 1, 3, 1]


WEISNER_LATTICES = {
    "B_4": lambda: boolean_lattice(4),
    "Pi_5": lambda: partition_lattice(5),
    "L_3(2)": lambda: subspace_lattice(2, 3),
    "D_60": lambda: divisor_lattice(60),
    "K_4": lambda: contraction_lattice(complete_graph(4)),
    "C_5": lambda: contraction_lattice(cycle_graph(5)),
}


def joins_to_one(L, a):
    """The x < 1 with x v a = 1 by the definition of the join: 1 is the
    only common upper bound of x and a."""
    up = L.up
    return [x for x in range(L.n)
            if x != L.one and up[x] & up[a] == 1 << L.one]


@pytest.mark.parametrize("name", WEISNER_LATTICES)
def test_weisner_against_the_join_definition(name):
    L = WEISNER_LATTICES[name]()
    mu0 = L.mobius_row(L.zero)
    elements = [a for a in range(L.n) if a != L.zero]
    reports = lattices.weisner_check(L, elements)
    for a, r in zip(elements, reports):
        witnesses = joins_to_one(L, a)
        assert r["rhs"] == -sum(mu0[x] for x in witnesses) == mu0[L.one]
        assert r["witness_count"] == len(witnesses)


@pytest.mark.parametrize("name", WEISNER_LATTICES)
def test_top_join_mask_and_complements_against_the_definitions(name):
    # x ^ a = 0 iff 0 is the only common lower bound of x and a
    L = WEISNER_LATTICES[name]()
    down = L.down
    for a in range(L.n):
        mask = L.top_join_mask(a)
        assert [x for x in bits(mask) if x != L.one] == joins_to_one(L, a)
        assert mask >> L.one & 1
        assert bits(L.complements(a)) == [
            x for x in joins_to_one(L, a) + [L.one]
            if down[x] & down[a] == 1 << L.zero]


@pytest.mark.parametrize("name", WEISNER_LATTICES)
def test_weisner_count_needs_every_coatom_above_a(name):
    # The coatom sum with one coatom h >= a left out of the union.  Its rhs
    # stays right: the x it adds are those whose join with a is some y
    # below h and below no other coatom, and Weisner's lemma on [0, y]
    # makes the sum over each such y zero.  Only the witness count,
    # checked against the join definition, catches it.
    L = WEISNER_LATTICES[name]()
    up, down = L.up, L.down
    mu0 = L.mobius_row(L.zero)
    coatoms = L.coatoms()
    for h in coatoms:
        wrong_counts = 0
        for a in range(L.n):
            if a == L.zero or not up[a] >> h & 1:
                continue
            union = 0
            for g in coatoms:
                if g != h and up[a] >> g & 1:
                    union |= down[g]
            witness = ((1 << L.n) - 1 ^ 1 << L.one) & ~union
            assert -sum(mu0[x] for x in bits(witness)) == mu0[L.one]
            wrong_counts += witness.bit_count() != len(joins_to_one(L, a))
        assert wrong_counts


def test_edited_results_do_not_change_later_answers():
    L = boolean_lattice(3)
    P = L
    M = P.mobius_matrix()
    M[0][-1] = 99
    P.mobius_row(0)[1] = 99
    P.mobius_col(L.one)[0] = 99
    assert P.mobius_idx(0, 7) == -1
    assert P.mobius_idx(0, 1) == -1
    assert all(r["pass"] for r in lattices.weisner_check(L, range(1, L.n)))


def test_cutset_with_atoms_and_coatoms():
    for L in (boolean_lattice(4), subspace_lattice(2, 3),
              partition_lattice(4)):
        mu = L.mobius_idx(L.zero, L.one)
        assert lattices.cutset_mobius(L, L.atoms()) == mu
        assert lattices.cutset_mobius(L, L.coatoms()) == mu


def test_cutset_single_element_chain():
    L = Lattice(chain(1))
    assert lattices.cutset_mobius(L, [L.one]) == -1


def test_cutset_rejects_non_cutset():
    L = boolean_lattice(3)
    with pytest.raises(LatticeError):
        lattices.cutset_mobius(L, [L.idx("1")])


def chain_dfs_cutset(L, cut):
    """The first maximal chain avoiding the cut, in cover order, by a
    depth-first search over chains with no visited set (the former
    `is_cutset`), or None."""
    cut = set(cut)
    succ = {}
    for i, j in cover_pairs(L):
        succ.setdefault(i, []).append(j)
    if L.zero in cut:
        return None

    def dfs(x, chain):
        if x == L.one:
            return list(chain)
        for y in succ.get(x, []):
            if y in cut:
                continue
            chain.append(y)
            hit = dfs(y, chain)
            if hit:
                return hit
            chain.pop()
        return None

    return dfs(L.zero, [L.zero])


def random_set_lattice(rng):
    """An intersection-closed family of subsets of a 6-set with the whole
    set added, under inclusion, with its elements listed in random order."""
    family = {rng.getrandbits(6) for _ in range(rng.randint(1, 14))} | {63}
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    labels = sorted(family, key=lambda s: rng.random())
    return Lattice(Poset.from_covers(labels, [
        (a, b) for a in family for b in family if a != b and a & b == a]))


def test_is_cutset_equals_chain_dfs():
    rng = random.Random(52)
    named = [boolean_lattice(4), partition_lattice(4), divisor_lattice(60),
             subspace_lattice(2, 3), Lattice(chain(1))]
    found = {True: 0, False: 0}
    for k in range(200):
        L = named[k % 5] if k < 50 else random_set_lattice(rng)
        for _ in range(5):
            p = rng.random()
            cut = [x for x in range(L.n) if rng.random() < p / 2]
            want = chain_dfs_cutset(L, cut)
            assert lattices.is_cutset(L, cut) == want
            found[want is None] += 1
    # both verdicts occur often
    assert min(found.values()) > 200


def test_cutset_of_many_elements():
    # 23 of the 24 atoms of a rank-two lattice miss a chain, all 24 are a
    # cutset; so are the 63 coatoms of Pi_7
    atoms = [f"a{i}" for i in range(24)]
    L = Lattice(Poset.from_covers(["0"] + atoms + ["1"],
                                  [("0", a) for a in atoms]
                                  + [(a, "1") for a in atoms]))
    with pytest.raises(LatticeError, match="chain: 0 < a23 < 1$"):
        lattices.cutset_mobius(L, L.atoms()[:23])
    assert lattices.cutset_mobius(L, L.atoms()) == 23
    Pi7 = partition_lattice(7)
    assert len(Pi7.coatoms()) == 63
    assert lattices.cutset_mobius(Pi7, Pi7.coatoms()) == 720


def subset_walk(L, cut):
    """sum of (-1)^|T| over the nonempty subsets T of the cut whose join
    and meet both lie in {0, 1}, by walking every subset (the former
    `cutset_mobius`)."""
    up, down = L.up, L.down
    ends = (L.zero, L.one)

    def walk(start, ups, downs):
        total = 0
        for t in range(start, len(cut)):
            u, d = ups & up[cut[t]], downs & down[cut[t]]
            outside = ((u & -u).bit_length() - 1 in ends
                       and d.bit_length() - 1 in ends)
            total -= outside + walk(t + 1, u, d)
        return total

    return walk(0, up[L.zero], down[L.one])


def seeded_cutset(L, rng):
    """Random inner elements, then one more from every maximal chain that
    the set misses (the top if the chain has no inner element)."""
    inner = [x for x in range(L.n) if x not in (L.zero, L.one)]
    cut = set(rng.sample(inner, rng.randint(0, min(4, len(inner)))))
    while True:
        chain = lattices.is_cutset(L, cut)
        if chain is None:
            return sorted(cut)
        choices = [x for x in chain if x not in (L.zero, L.one)]
        cut.add(rng.choice(choices) if choices else L.one)


def rank_gaps(L):
    """r(a) + r(b) - r(a^b) - r(avb) for every pair a < b, with join and
    meet read from the order masks (the former `lattices._rank_gaps`)."""
    r, up, down = L.rank, L.up, L.down
    for a in range(L.n):
        ua, da, ra = up[a], down[a], r[a]
        for b in range(a + 1, L.n):
            common = ua & up[b]
            yield (ra + r[b] - r[(common & -common).bit_length() - 1]
                   - r[(da & down[b]).bit_length() - 1])


def graded(L):
    try:
        L.rank
    except NotRankedError:
        return False
    return True


M3 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"),
       ("c", "1")])
# ranked and semimodular, not atomistic
SEMIMODULAR_8 = (range(8), [(0, 1), (0, 2), (1, 3), (1, 5), (2, 3), (2, 4),
                            (3, 6), (4, 6), (5, 6), (6, 7)])


def oracle_lattices():
    """Named lattices, then seeded random intersection-closed ones."""
    named = [boolean_lattice(n) for n in range(1, 7)]
    named += [partition_lattice(n) for n in range(2, 7)]
    named += [subspace_lattice(2, 2), subspace_lattice(2, 3),
              subspace_lattice(3, 2)]
    named += [divisor_lattice(n) for n in (12, 30, 72, 360)]
    named += [Lattice(Poset.from_covers(*P)) for P in (
        (["0", "a", "b", "c", "1"],
         [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
        M3, SEMIMODULAR_8)]
    rng = random.Random(53)
    return named + [random_set_lattice(rng) for _ in range(150)]


def test_semimodular_and_modular_equal_rank_gap_oracles():
    seen = Counter()
    for L in oracle_lattices():
        gaps = list(rank_gaps(L)) if graded(L) else None
        semimodular = gaps is not None and min(gaps, default=0) >= 0
        modular = gaps is not None and not any(gaps)
        assert lattices.is_semimodular(L) == semimodular
        assert lattices.is_modular_lattice(L) == modular
        seen[gaps is not None, semimodular, modular] += 1
    # ungraded, graded but not semimodular, semimodular but not modular,
    # and modular lattices all occur
    assert set(seen) == {(False, False, False), (True, False, False),
                         (True, True, False), (True, True, True)}
    assert min(seen.values()) >= 5


def test_cutset_mobius_equals_subset_walk():
    # on any cutset against the walk; on the rank levels, which are
    # crosscuts, also against mu by the crosscut theorem
    rng = random.Random(54)
    walked = 0
    for L in oracle_lattices():
        cuts = [seeded_cutset(L, rng) for _ in range(3)]
        if graded(L):
            mu = L.mobius_idx(L.zero, L.one)
            for k in range(1, L.height):
                level = [x for x in range(L.n) if L.rank[x] == k]
                assert lattices.cutset_mobius(L, level) == mu
                cuts.append(level)
        for cut in cuts:
            if len(cut) <= 15:
                assert lattices.cutset_mobius(L, cut) == subset_walk(L, cut)
                walked += 1
    assert walked > 500


def test_walker_complement_deletion():
    for L in (boolean_lattice(4), subspace_lattice(2, 3),
              partition_lattice(4)):
        for a in range(L.n):
            if a in (L.zero, L.one):
                continue
            assert lattices.walker_complement_check(L, a)["pass"]


def test_modular_factorization():
    L = subspace_lattice(2, 3)
    r = lattices.modular_factorization(L, L.atoms()[0])
    assert r["pass"] and r["lhs"] == -8
    with pytest.raises(LatticeError):
        lattices.modular_factorization(partition_lattice(4),
                                       partition_lattice(4).idx("0011"))


def test_dowling_wilson():
    for L in (boolean_lattice(2), boolean_lattice(4),
              subspace_lattice(2, 3), partition_lattice(5)):
        r = lattices.dowling_wilson_check(L)
        assert r["pass"], r
        assert r["permutation"][L.zero] == L.labels[L.one]
        for k in range(L.height // 2 + 1):
            assert lattices.top_heavy_check(L, k)["pass"]


def test_top_heavy_k_range():
    # the inequality holds for every 0 <= k <= d; a k outside that range
    # is refused rather than reported as a failure (k = d + 1) or a
    # vacuous pass (k = -1)
    for L in (boolean_lattice(4), partition_lattice(5),
              subspace_lattice(2, 3), divisor_lattice(72)):
        d = L.height
        for k in range(d + 1):
            assert lattices.top_heavy_check(L, k)["pass"], (L, k)
        for k in (-1, d + 1):
            with pytest.raises(LatticeError,
                               match=rf"^k must be in 0\.\.{d}$"):
                lattices.top_heavy_check(L, k)


def test_dowling_wilson_hypothesis_failure():
    with pytest.raises(LatticeError):
        lattices.dowling_wilson_check(Lattice(chain(2)))


def test_dowling_complement():
    for L in (boolean_lattice(2), boolean_lattice(3),
              subspace_lattice(2, 3)):
        r = lattices.dowling_complement_check(L)
        assert r["pass"], r
    with pytest.raises(LatticeError):
        lattices.dowling_complement_check(divisor_lattice(12))


def test_dowling_complement_reports_ideal_failure(monkeypatch):
    # a wrong Mobius number for the one ideal that is all of L' (p = 0,
    # q = 1) breaks the ideal identity and no other check, since that
    # entry lies outside the inner block; the verdict reports it
    L = boolean_lattice(3)
    right = Poset.mobius_number
    monkeypatch.setattr(
        Poset, "mobius_number",
        lambda self, keep=None: right(self, keep)
        + (keep is not None and keep.bit_count() == L.n - 2))
    r = lattices.dowling_complement_check(L)
    assert r["pass"] is False


def test_basterfield_kelly():
    for L in (boolean_lattice(3), boolean_lattice(5),
              subspace_lattice(2, 3), subspace_lattice(3, 2)):
        r = lattices.basterfield_kelly_check(L)
        assert r["pass"] and r["modular"] and r["lhs"] == r["rhs"]
    for L in (partition_lattice(4), partition_lattice(5)):
        r = lattices.basterfield_kelly_check(L)
        assert r["pass"] and not r["modular"] and r["lhs"] < r["rhs"]


def test_kung():
    for L in (boolean_lattice(4), subspace_lattice(2, 3),
              partition_lattice(4)):
        for k in range(L.height + 1):
            assert lattices.kung_check(L, k)["pass"]


def test_kung_irreducibles_on_modular():
    r = lattices.kung_check(subspace_lattice(2, 3), 1)
    assert r["join_irreducibles"] == r["meet_irreducibles"]


def test_point_deletion():
    for L in (boolean_lattice(3), partition_lattice(3),
              partition_lattice(4)):
        for p in L.atoms():
            deleted, report = lattices.point_deletion(L, p)
            assert report["pass"], report
    L = boolean_lattice(3)
    _, report = lattices.point_deletion(L, L.atoms()[0])
    assert report["coloop"]
    L = partition_lattice(3)
    _, report = lattices.point_deletion(L, L.atoms()[0])
    assert not report["coloop"]


def test_interval_lattice():
    L = boolean_lattice(3)
    sub = Lattice(interval(L, "1", "123"))
    assert sub.n == 4


def bowtie_on_chain(length):
    """(labels, covers): a bowtie a, b < c, d above a chain of `length`
    elements, with a top added.  It is bounded, but a and b have two
    minimal upper bounds."""
    chain = [f"c{i}" for i in range(length)]
    covers = list(zip(chain, chain[1:]))
    covers += [(chain[-1], "a"), (chain[-1], "b"), ("a", "c"), ("a", "d"),
               ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
    return chain + ["a", "b", "c", "d", "1"], covers


def test_non_lattice_rejected_at_every_size():
    for length in (1, 100, 500):
        P = Poset.from_covers(*bowtie_on_chain(length))
        with pytest.raises(LatticeError, match=r"^no least upper bound for "
                           r"witness pair \('a', 'b'\)$"):
            Lattice(P)


def test_modular_factorization_on_semimodular_non_geometric():
    # ranked and semimodular, not atomistic; 4 fails the rank equality
    # against 5 but has no complement, so the antichain criterion (a
    # theorem for geometric lattices only) holds vacuously
    P = Poset.from_covers(range(8), [(0, 1), (0, 2), (1, 3), (1, 5), (2, 3),
                                     (2, 4), (3, 6), (4, 6), (5, 6), (6, 7)])
    L = Lattice(P)
    a = P.idx(4)
    assert lattices.is_semimodular(L) and not lattices.is_geometric(L)
    assert not lattices.is_modular_element(L, a)
    with pytest.raises(LatticeError, match="^4 is not modular$"):
        lattices.modular_factorization(L, a)


def test_modular_factorization_reports_antichain_criterion():
    L = partition_lattice(4)
    r = lattices.modular_factorization(L, L.idx("0122"))
    assert r["pass"] and r["antichain_ok"] is True


def pairwise_irreducibles(L):
    """Join- and meet-irreducibles by the definition: x is reducible iff
    it is the join (meet) of two elements other than x."""
    reducible_j = {j for x in range(L.n) for y in range(x + 1, L.n)
                   for j in [L.join(x, y)] if j not in (x, y)}
    reducible_m = {m for x in range(L.n) for y in range(x + 1, L.n)
                   for m in [L.meet(x, y)] if m not in (x, y)}
    return ([x for x in range(L.n) if x not in reducible_j],
            [x for x in range(L.n) if x not in reducible_m])


def test_irreducibles_from_covers_match_pairwise_oracle():
    N5 = Lattice(Poset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]))
    for L in (boolean_lattice(4), subspace_lattice(2, 3),
              partition_lattice(4), divisor_lattice(360), Lattice(chain(3)),
              Lattice(chain(0)), N5):
        assert (lattices.join_irreducibles(L),
                lattices.meet_irreducibles(L)) == pairwise_irreducibles(L)
