import random

import pytest

from order_oracles import forward_down
from mobiuslab import inversion
from mobiuslab.instances import boolean_lattice, random_poset


def test_round_trip_up_and_down():
    rng = random.Random(11)
    for _ in range(100):
        P = random_poset(rng.randrange(1, 12), rng.random(),
                         rng.randrange(2 ** 30))
        f = [rng.randrange(-9, 10) for _ in range(P.n)]
        assert inversion.invert_up(P, inversion.forward_up(P, f)) == f
        assert inversion.invert_down(P, forward_down(P, f)) == f


def test_invert_matches_mobius_matrix_formula():
    # the mu route, f(z) = sum_y mu(z, y) g(y) (up) or mu(y, z) g(y)
    # (down), is the oracle for the back-substitution
    rng = random.Random(13)
    for n in (1, 2, 5, 17, 60, 200, 401, 450):
        P = random_poset(n, rng.choice((0.01, 0.05, 0.3, 0.9)),
                         rng.randrange(2 ** 30))
        M = P.mobius_matrix()
        g = [rng.randrange(-9, 10) for _ in range(n)]
        saved = list(g)
        want_up = [sum(M[z][y] * g[y] for y in range(n)) for z in range(n)]
        want_down = [sum(M[y][z] * g[y] for y in range(n))
                     for z in range(n)]
        for g_in in (g, dict(zip(P.labels, g))):
            assert inversion.invert_up(P, g_in) == want_up
            assert inversion.invert_down(P, g_in) == want_down
        assert g == saved


def test_function_as_dict():
    P = boolean_lattice(2)
    f = {lab: len(lab) for lab in P.labels}
    g = inversion.forward_up(P, f)
    assert g[P.idx("")] == 0 + 1 + 1 + 2


def test_derangements_match_bruteforce():
    for n in range(8):
        assert inversion.derangements(n) == \
            inversion.derangements_bruteforce(n)
    assert inversion.derangements(7) == 1854


def test_derangements_range():
    assert inversion.derangements(12) > 0
    with pytest.raises(ValueError):
        inversion.derangements(13)
    with pytest.raises(ValueError):
        inversion.derangements(-1)


def test_lindstrom_wilf_determinant():
    rng = random.Random(12)
    for _ in range(100):
        P = random_poset(rng.randrange(1, 9), rng.random(),
                         rng.randrange(2 ** 30))
        f = [rng.randrange(-4, 5) for _ in range(P.n)]
        _, det = inversion.lindstrom_wilf_det(P, f)
        prod = 1
        for v in f:
            prod *= v
        assert det == prod


def test_lindstrom_wilf_matrix_entries():
    P = boolean_lattice(2)
    f = [1, 2, 3, 4]
    G, det = inversion.lindstrom_wilf_det(P, f)
    top = P.idx("12")
    assert G[top][top] == f[top]
    assert det == 1 * 2 * 3 * 4
