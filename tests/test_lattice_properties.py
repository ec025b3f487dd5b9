"""Property tests of the lattice layer against brute-force oracles that
read only the order relation (the masks `up` and `down`) and search it.

- `Lattice` and `MeetSemilattice` check pairs of upper covers only; their
  verdict and witness must equal a scan of all pairs by least-upper-bound
  search.
- `is_modular_lattice` tests the local criteria of upper and lower
  semimodularity on pairs of covers; it must agree with Dedekind's law
  a v (b ^ c) = (a v b) ^ c on all a <= c.
- `cutset_mobius` folds the cut in over signed counts per (join, meet);
  it must agree with the sum over `itertools.combinations`.

`tests/test_lattice_seeded.py` runs the first check without hypothesis
on posets from the same generator, `order_oracles.poset_with_zero`, and
`tests/test_lattices.py` runs seeded versions of the others:
`is_semimodular` and `is_modular_lattice` against the rank gaps
r(a) + r(b) - r(a v b) - r(a ^ b) over all pairs (`rank_gaps`), and
`cutset_mobius` against the walk over every subset of the cut
(`subset_walk`).

Inputs are random posets with a least element, with and without a top:
random DAGs and intersection-closed set families, some with a chain of
more than 400 elements put below them.
"""

import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from order_oracles import (first_unbounded_pair,  # noqa: E402
                           greatest_lower_bound, incomparable_pairs,
                           least_upper_bound, pair, poset_with_zero)

from mobiuslab import lattices  # noqa: E402
from mobiuslab.instances import (boolean_lattice, divisor_lattice,  # noqa
                                 partition_lattice, subspace_lattice)
from mobiuslab.lattices import Lattice, LatticeError  # noqa: E402
from mobiuslab.lattices import MeetSemilattice  # noqa: E402
from mobiuslab.posets import Poset, PosetError  # noqa: E402


@st.composite
def posets_with_zero(draw, top, pad=False):
    """`order_oracles.poset_with_zero` from a drawn seed: a random order
    two times in three, else a set family; with `pad`, a chain below it
    half the time."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    sets = not draw(st.integers(0, 2))
    return poset_with_zero(rng, top, sets, pad and draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(posets_with_zero(top=True, pad=True))
def test_lattice_check_equals_all_pairs_scan(P):
    found = first_unbounded_pair(P, ("upper", "lower"))
    if found is None:
        L = Lattice(P)
        assert (L.zero, L.one) == (0, P.n - 1)
    else:
        kind, i, j = found
        with pytest.raises(LatticeError) as err:
            Lattice(P)
        assert str(err.value) == (f"no least {kind} bound for witness pair "
                                  + pair(P, i, j))


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda top: posets_with_zero(top, pad=True)))
def test_meet_semilattice_check_equals_all_pairs_scan(P):
    found = first_unbounded_pair(P, ("lower",))
    if found is None:
        S = MeetSemilattice(P)
        for i, j in incomparable_pairs(P):
            assert S.meet(i, j) == greatest_lower_bound(P, i, j)
    else:
        _, i, j = found
        with pytest.raises(PosetError) as err:
            MeetSemilattice(P)
        assert str(err.value) == ("no greatest lower bound for witness pair "
                                  + pair(P, i, j))


def bound_tables(L):
    """Join and meet tables of L by search."""
    P = L
    join = [[least_upper_bound(P, i, j) for j in range(L.n)]
            for i in range(L.n)]
    meet = [[greatest_lower_bound(P, i, j) for j in range(L.n)]
            for i in range(L.n)]
    return join, meet


def dedekind_modular(L):
    join, meet = bound_tables(L)
    return all(join[a][meet[b][c]] == meet[join[a][b]][c]
               for a in range(L.n) for c in range(L.n) if L.up[a] >> c & 1
               for b in range(L.n))


def lattice_or_none(P):
    try:
        return Lattice(P)
    except LatticeError:
        return None


@settings(max_examples=200, deadline=None)
@given(posets_with_zero(top=True))
def test_modular_by_rank_equals_dedekind(P):
    L = lattice_or_none(P)
    assume(L is not None)
    assert lattices.is_modular_lattice(L) == dedekind_modular(L)


N5 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
# not graded: maximal chains 0 < a < b < 1, 0 < c < d < 1 and 0 < e < 1
UNRANKED = (["0", "a", "b", "c", "d", "e", "1"],
            [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "d"),
             ("d", "1"), ("0", "e"), ("e", "1")])


@pytest.mark.parametrize("L", [
    Lattice(Poset.from_covers(*N5)), Lattice(Poset.from_covers(*UNRANKED)),
    boolean_lattice(3), subspace_lattice(2, 3), partition_lattice(4),
    divisor_lattice(72)], ids=["N5", "unranked", "B_3", "L_3(2)", "Pi_4",
                               "D_72"])
def test_modular_by_rank_equals_dedekind_on_named(L):
    assert lattices.is_modular_lattice(L) == dedekind_modular(L)


def combinations_cutset_sum(L, cut):
    """sum over nonempty S in the cut of (-1)^|S|, over the S whose join
    and meet are both 0 or 1, by the bound tables."""
    join, meet = bound_tables(L)
    total = 0
    for k in range(1, len(cut) + 1):
        for S in combinations(cut, k):
            j, m = S[0], S[0]
            for x in S[1:]:
                j, m = join[j][x], meet[m][x]
            if j in (L.zero, L.one) and m in (L.zero, L.one):
                total += (-1) ** k
    return total


def random_cutset(L, rng):
    """Random inner elements, then one more from every maximal chain that
    the set misses (the top if the chain has no inner element)."""
    inner = [x for x in range(L.n) if x not in (L.zero, L.one)]
    cut = set(rng.sample(inner, rng.randint(0, min(3, len(inner)))))
    while True:
        chain = lattices.is_cutset(L, cut)
        if chain is None:
            return sorted(cut)
        choices = [x for x in chain if x not in (L.zero, L.one)]
        cut.add(rng.choice(choices) if choices else L.one)


FAMILIES = {"B_3": boolean_lattice(3), "B_4": boolean_lattice(4),
            "Pi_4": partition_lattice(4), "L_3(2)": subspace_lattice(2, 3),
            "D_60": divisor_lattice(60), "D_210": divisor_lattice(210)}


@pytest.mark.parametrize("name", FAMILIES)
def test_cutset_walk_equals_combinations_on_families(name):
    L = FAMILIES[name]
    rng = random.Random(L.n)
    cuts = [L.atoms(), L.coatoms()]
    cuts += [random_cutset(L, rng) for _ in range(5)]
    for cut in cuts:
        want = combinations_cutset_sum(L, cut)
        assert lattices.cutset_mobius(L, cut) == want


@settings(max_examples=150, deadline=None)
@given(posets_with_zero(top=True), st.integers(0, 2 ** 32 - 1))
def test_cutset_walk_equals_combinations(P, seed):
    L = lattice_or_none(P)
    assume(L is not None and L.n >= 2)
    cut = random_cutset(L, random.Random(seed))
    assume(len(cut) <= 12)
    assert lattices.cutset_mobius(L, cut) == combinations_cutset_sum(L, cut)
