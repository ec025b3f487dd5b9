import random

import pytest

from order_oracles import bits, build, chain_f_vector, chains_by_length

from mobiuslab import complexes
from mobiuslab.instances import (boolean_lattice, chain, partition_lattice,
                                 random_poset, subspace_lattice)
from mobiuslab.posets import Poset, PosetError


def test_order_complex_chain_counts():
    # the chains of 0 < 1 < 2 are the faces of a triangle
    P = chain(2)
    assert complexes.order_complex(P) == [3, 3, 1]
    assert complexes.euler_characteristic(P) == 1
    assert complexes.order_complex(Poset.from_covers([], [])) == []


def _random_orders():
    """Seeded random orders of 0 to 13 elements, with the oracle's own
    up-sets: the empty poset and antichains first."""
    rng = random.Random(23)
    for n in range(14):
        for density in (0, 0.15, 0.4, 0.8):
            for _ in range(3):
                labels = rng.sample(range(100), n)
                arcs = [(labels[i], labels[j]) for i in range(n)
                        for j in range(i + 1, n) if rng.random() < density]
                P, up, _, _ = build(labels, arcs)
                yield P, up, rng


def _as_mask(indices):
    return sum(1 << i for i in indices)


def test_f_vector_matches_chain_listing():
    for P, up, rng in _random_orders():
        everything = set(range(P.n))
        assert complexes.order_complex(P) == chain_f_vector(up, everything)
        for _ in range(3):
            keep = {x for x in everything if rng.random() < 0.6}
            assert (complexes.order_complex(P, _as_mask(keep))
                    == chain_f_vector(up, keep)), (P.upper, keep)


def test_f_vectors_of_lattice_families():
    for L in (boolean_lattice(3), boolean_lattice(4), partition_lattice(4),
              partition_lattice(5), subspace_lattice(2, 3),
              subspace_lattice(3, 2)):
        P = L
        up = [frozenset(bits(m)) for m in P.up]
        inner = set(range(P.n)) - {L.zero, L.one}
        for keep in (set(range(P.n)), inner):
            assert (complexes.order_complex(P, _as_mask(keep))
                    == chain_f_vector(up, keep))
    # B_4 by hand: chains of k + 1 subsets of {1, 2, 3, 4}
    assert (complexes.order_complex(boolean_lattice(4))
            == [16, 65, 110, 84, 24])


def test_chain_counts_of_every_interval():
    for P, up, _ in _random_orders():
        for a in range(P.n):
            for b in range(P.n):
                if b in up[a]:
                    assert (complexes.chain_counts(P, a, b)
                            == chains_by_length(up, a, b))
                else:
                    with pytest.raises(PosetError):
                        complexes.chain_counts(P, a, b)


def test_euler_equals_one_plus_mobius():
    # the nonempty faces of a segment, ordered by inclusion, and the
    # empty poset (chi = 0, mu = -1) come first
    segment = Poset.from_covers(["1", "2", "12"], [("1", "12"), ("2", "12")])
    posets = [segment, Poset.from_covers([], [])]
    rng = random.Random(21)
    for _ in range(100):
        posets.append(random_poset(rng.randrange(1, 11), rng.random(),
                                   rng.randrange(2 ** 30)))
    for P in posets:
        assert complexes.euler_characteristic(P) == 1 + P.mobius_number()


def test_cone_detection_and_mobius():
    # a cone point makes the order complex contractible: chi = 1, mu = 0
    C = chain(3)
    assert complexes.euler_characteristic(C) == 1
    assert C.mobius_number() == 0
    two = Poset.from_covers(["x", "y"], [])
    assert complexes.euler_characteristic(two) == 2
    assert two.mobius_number() == 1


def test_monotone_map_validation():
    P = chain(1)
    Q = Poset.from_covers(["x", "y"], [])
    with pytest.raises(PosetError):
        complexes.MonotoneMap(P, Q, ["x", "y"])


def test_baclawski_on_random_maps():
    rng = random.Random(22)
    for _ in range(60):
        P = random_poset(rng.randrange(1, 9), rng.random(),
                         rng.randrange(2 ** 30))
        Q = random_poset(rng.randrange(1, 6), rng.random(),
                         rng.randrange(2 ** 30))
        f = complexes.random_monotone_map(P, Q, rng.randrange(2 ** 30))
        report = complexes.verify_baclawski(f)
        assert report["pass"], report


def test_cardinality_map_to_chain():
    P = boolean_lattice(3)
    Q = chain(3)
    f = complexes.MonotoneMap(P, Q, [len(lab) for lab in P.labels])
    assert complexes.verify_baclawski(f)["pass"]


def test_ideal_decomposition():
    # the ideal decomposition of S is the fibre identity of the inclusion
    # of an ideal I: each y in I has the fibre S<=y, which has a top, so
    # its Mobius number is 0 and only the y outside I contribute
    rng = random.Random(23)
    for _ in range(40):
        S = random_poset(rng.randrange(1, 9), rng.random(),
                         rng.randrange(2 ** 30))
        size = rng.randrange(S.n + 1)
        ideal = set()
        for x in sorted(range(S.n), key=lambda i: len(bits(S.down[i])))[:size]:
            ideal |= set(bits(S.down[x]))
        sub = S.restrict(_as_mask(ideal))
        report = complexes.verify_baclawski(
            complexes.MonotoneMap(sub, S, sub.labels))
        assert report["pass"], report
        terms = report["witnesses"]
        assert all(terms[y]["mu_fibre"] == 0 for y in ideal)


def test_retract_preserves_mobius_number():
    P = boolean_lattice(3)
    images = ["".join(c for c in lab if c in "12") for lab in P.labels]
    f = complexes.MonotoneMap(P, P, images)
    assert complexes.retract_check(P, f)["pass"]


def test_retract_check_reports_problems():
    P = chain(1)
    f = complexes.MonotoneMap(P, P, [1, 1])
    report = complexes.retract_check(P, f)
    assert not report["pass"]
    assert any(w["kind"] == "not decreasing" for w in report["witnesses"])


def test_dismantlable_has_zero_mobius_number():
    rng = random.Random(24)
    seen = 0
    for _ in range(200):
        P = random_poset(rng.randrange(1, 9), rng.random(),
                         rng.randrange(2 ** 30))
        if complexes.is_dismantlable(P):
            seen += 1
            assert P.mobius_number() == 0
    assert seen > 20


def test_bounded_posets_dismantle():
    assert complexes.is_dismantlable(boolean_lattice(3))
    assert complexes.is_dismantlable(chain(4))
