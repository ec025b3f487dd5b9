"""Seeded checks of lattice recognition against pairwise bound search in
order_oracles.py.  Unlike test_lattice_properties.py they need no
hypothesis: `Lattice` and `MeetSemilattice` must give the verdict and the
exact witness message of a scan of all pairs, and the joins and meets of
an accepted poset must equal the searched bounds.  Inputs are random
posets with a least element, with and without a top: random orders and
intersection-closed set families, every fifth one on top of a chain of
more than 400 elements.
"""

import random

import pytest

from order_oracles import (first_unbounded_pair, greatest_lower_bound,
                           incomparable_pairs, least_upper_bound, pair,
                           poset_with_zero)

from mobiuslab.lattices import Lattice, LatticeError, MeetSemilattice
from mobiuslab.posets import PosetError

SEEDS = range(150)


def posets(top):
    for seed in SEEDS:
        rng = random.Random(seed)
        yield poset_with_zero(rng, top, sets=seed % 3 == 0,
                              pad=seed % 5 == 4)


def test_lattice_verdicts_and_witnesses():
    verdicts = set()
    for P in posets(top=True):
        found = first_unbounded_pair(P, ("upper", "lower"))
        verdicts.add(found and found[0])
        if found is None:
            L = Lattice(P)
            assert (L.zero, L.one) == (0, P.n - 1)
            for i, j in incomparable_pairs(P):
                assert L.join(i, j) == least_upper_bound(P, i, j)
                assert L.meet(i, j) == greatest_lower_bound(P, i, j)
        else:
            kind, i, j = found
            with pytest.raises(LatticeError) as err:
                Lattice(P)
            assert str(err.value) == (f"no least {kind} bound for witness "
                                      "pair " + pair(P, i, j))
    # the seeds reach lattices and non-lattices; a pair with no meet has
    # two maximal lower bounds before it with no join, so no witness is
    # a missing meet
    assert verdicts == {None, "upper"}


@pytest.mark.parametrize("top", [False, True])
def test_meet_semilattice_verdicts_and_witnesses(top):
    verdicts = set()
    for P in posets(top):
        found = first_unbounded_pair(P, ("lower",))
        verdicts.add(found is None)
        if found is None:
            S = MeetSemilattice(P)
            for i, j in incomparable_pairs(P):
                assert S.meet(i, j) == greatest_lower_bound(P, i, j)
        else:
            _, i, j = found
            with pytest.raises(PosetError) as err:
                MeetSemilattice(P)
            assert str(err.value) == ("no greatest lower bound for witness "
                                      "pair " + pair(P, i, j))
    assert verdicts == {False, True}
