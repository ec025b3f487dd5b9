import random

import pytest

from order_oracles import bits, dual, interval, is_isomorphic
from mobiuslab.complexes import chain_counts, order_complex
from mobiuslab.exactmat import identity, mat_mul
from mobiuslab.posets import (Poset, PosetError, poset_from_json,
                              poset_to_json)
from mobiuslab.instances import boolean_lattice, chain, random_poset


def diamond():
    return Poset.from_covers(["0", "a", "b", "1"],
                             [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def test_cycle_detected():
    with pytest.raises(PosetError):
        Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(PosetError):
        Poset.from_covers(["a"], [("a", "a")])


def test_cycle_reported_on_long_chain():
    # the cycle sits after 9990 acyclic elements, all placed by the
    # linear extension before the cycle is found
    n = 10 ** 4
    arcs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 10)]
    with pytest.raises(PosetError) as err:
        Poset._from_arcs(list(range(n)), arcs)
    cycle = list(range(n - 10, n)) + [n - 10]
    assert str(err.value) == ("cycle detected: "
                              + " < ".join(map(str, cycle)))


def test_duplicate_and_unknown_labels():
    with pytest.raises(PosetError):
        Poset.from_covers(["a", "a"], [])
    with pytest.raises(PosetError):
        Poset.from_covers(["a"], [("a", "b")])


def test_transitive_reduction():
    P = Poset.from_covers(["a", "b", "c"],
                          [("a", "b"), ("b", "c"), ("a", "c")])
    assert sum(map(len, P.upper)) == 2
    assert P.up[P.idx("a")] >> P.idx("c") & 1


def test_mobius_is_zeta_inverse():
    rng = random.Random(1)
    for _ in range(100):
        P = random_poset(rng.randrange(1, 11), rng.random(),
                         rng.randrange(2 ** 30))
        assert mat_mul(P.mobius_matrix(), P.zeta_matrix()) == identity(P.n)
        assert mat_mul(P.zeta_matrix(), P.mobius_matrix()) == identity(P.n)


def test_mobius_row_col_agree():
    rng = random.Random(2)
    for _ in range(30):
        P = random_poset(rng.randrange(1, 10), rng.random(),
                         rng.randrange(2 ** 30))
        M = P.mobius_matrix()
        for a in range(P.n):
            assert P.mobius_row(a) == M[a]
            assert P.mobius_col(a) == [M[i][a] for i in range(P.n)]


def test_chain_mobius():
    C = chain(4)
    assert C.mobius_idx(0, 0) == 1
    assert C.mobius_idx(0, 1) == -1
    assert C.mobius_idx(0, 2) == 0
    assert C.mobius_idx(1, 3) == 0


def test_hall_chain_sum_matches_matrix():
    rng = random.Random(3)
    for _ in range(40):
        P = random_poset(rng.randrange(1, 9), rng.random(),
                         rng.randrange(2 ** 30))
        for a in range(P.n):
            for b in bits(P.up[a]):
                hall = sum((-1) ** l * k for l, k
                           in chain_counts(P, a, b).items())
                assert hall == P.mobius_idx(a, b)


def test_strict_zeta_counts_chains():
    # entry (a, b) of the square of the strict zeta matrix counts the
    # chains a < x < b
    P = boolean_lattice(3)
    Y = P.zeta_matrix()
    for i in range(P.n):
        Y[i][i] = 0
    Y2 = mat_mul(Y, Y)
    a, b = P.idx(""), P.idx("123")
    assert Y2[a][b] == chain_counts(P, a, b)[2] == 6


def test_dual_and_product():
    P = diamond()
    D = dual(P)
    assert (D.mobius_idx(D.idx("1"), D.idx("0"))
            == P.mobius_idx(P.idx("0"), P.idx("1")) == 1)
    Q = chain(1)
    prod = Q.product(Q)
    assert prod.n == 4
    assert is_isomorphic(prod, boolean_lattice(2))


def test_interval_and_restrict():
    P = boolean_lattice(3)
    I = interval(P, "1", "123")
    assert I.n == 4
    assert is_isomorphic(I, boolean_lattice(2))


def test_mobius_number_conventions():
    empty = Poset.from_covers([], [])
    assert empty.mobius_number() == -1
    point = Poset.from_covers(["x"], [])
    assert point.mobius_number() == 0
    two = Poset.from_covers(["x", "y"], [])
    assert two.mobius_number() == 1
    assert boolean_lattice(2).mobius_number() == 0


def test_mobius_number_of_subset_equals_hall_chain_sum():
    # mu(0^, 1^) of the induced subposet with bounds adjoined is
    # -1 + sum of (-1)^(|c| + 1) over its nonempty chains c, counted by
    # the f-vector of the order complex
    rng = random.Random(10)
    for n in range(11):
        for _ in range(12):
            labels = list(range(n))
            arcs = [(i, j) for i in labels for j in labels[i + 1:]
                    if rng.random() < 0.3]
            P = Poset.from_covers(labels, arcs)
            subsets = [0, (1 << n) - 1] + [
                sum(1 << i for i in range(n) if rng.random() < 0.6)
                for _ in range(4)]
            for S in subsets:
                hall = -1 + sum((-1) ** k * fk for k, fk
                                in enumerate(order_complex(P, S)))
                assert P.mobius_number(S) == hall, (n, arcs, S)
            assert P.mobius_number() == P.mobius_number((1 << n) - 1)


def _bounded_mobius_number(P, keep):
    """mu(0^, 1^) of the subposet on keep, on a poset that is built: the
    restriction, with fresh bounds adjoined by their covers."""
    sub = P.restrict(keep)
    bot, top = "0^", "1^"
    covers = ([[sub.labels[i], sub.labels[j]]
               for i, cov in enumerate(sub.upper) for j in cov]
              + [[bot, lab] for lab in sub.labels]
              + [[lab, top] for lab in sub.labels] + [[bot, top]])
    B = Poset.from_covers([bot, *sub.labels, top], covers)
    return B.mobius_idx(B.idx(bot), B.idx(top))


def test_mobius_number_matches_a_built_subposet():
    rng = random.Random(26)
    for n in range(1, 13):
        for density in (0, 0.2, 0.5, 0.9):
            P = random_poset(n, density, rng.randrange(2 ** 30))
            assert P.mobius_number(0) == _bounded_mobius_number(P, 0) == -1
            for x in range(n):
                assert (P.mobius_number(1 << x)
                        == _bounded_mobius_number(P, 1 << x) == 0)
            for _ in range(6):
                keep = rng.getrandbits(n)
                assert (P.mobius_number(keep)
                        == _bounded_mobius_number(P, keep)), (n, keep)


def test_json_round_trip():
    P = boolean_lattice(2)
    Q = poset_from_json(poset_to_json(P))
    assert Q.labels == P.labels
    assert Q.upper == P.upper


def test_density_extremes():
    P0 = random_poset(6, 0, 9)
    assert not any(P0.upper)
    P1 = random_poset(6, 1, 9)
    assert max(P1.heights()) == 5
