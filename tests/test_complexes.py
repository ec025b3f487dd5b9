import random

import pytest

from mobiuslab import complexes
from mobiuslab.instances import boolean_lattice, chain, random_poset
from mobiuslab.posets import Poset, PosetError


def bits(mask):
    """Indices of the set bits of an order mask, in increasing order."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def test_simplicial_closure():
    S = complexes.SimplicialComplex([{1, 2, 3}])
    assert S.level_numbers() == [3, 3, 1]
    assert S.euler_characteristic() == 1


def test_order_complex_chain_counts():
    P = chain(2)
    S = complexes.order_complex(P)
    assert S.level_numbers() == [3, 3, 1]


def test_euler_equals_one_plus_mobius():
    rng = random.Random(21)
    for _ in range(100):
        P = random_poset(rng.randrange(1, 11), rng.random(),
                         rng.randrange(2 ** 30))
        chi = complexes.order_complex(P).euler_characteristic()
        assert chi == 1 + P.mobius_number()


def test_face_poset():
    S = complexes.SimplicialComplex([{1, 2}])
    FP = S.face_poset()
    assert FP.n == 3
    assert FP.mobius_number() == S.euler_characteristic() - 1


def test_cone_detection_and_mobius():
    C = chain(3)
    assert complexes.is_cone(C) is not None
    assert C.mobius_number() == 0
    two = Poset.from_covers(["x", "y"], [])
    assert complexes.is_cone(two) is None


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
    P = boolean_lattice(3).poset
    Q = chain(3)
    f = complexes.MonotoneMap(P, Q, [len(lab) for lab in P.labels])
    assert complexes.verify_baclawski(f)["pass"]


def test_ideal_decomposition():
    rng = random.Random(23)
    for _ in range(40):
        S = random_poset(rng.randrange(1, 9), rng.random(),
                         rng.randrange(2 ** 30))
        size = rng.randrange(S.n + 1)
        ideal = set()
        for x in sorted(range(S.n), key=lambda i: len(bits(S.down[i])))[:size]:
            ideal |= set(bits(S.down[x]))
        report = complexes.verify_ideal_decomposition(
            S, [S.labels[i] for i in ideal])
        assert report["pass"], report


def test_ideal_decomposition_rejects_non_ideal():
    P = chain(2)
    with pytest.raises(PosetError):
        complexes.verify_ideal_decomposition(P, [2])


def test_retract_preserves_mobius_number():
    P = boolean_lattice(3).poset
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
    assert complexes.is_dismantlable(boolean_lattice(3).poset)
    assert complexes.is_dismantlable(chain(4))
