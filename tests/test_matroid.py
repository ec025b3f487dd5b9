import random
from itertools import product

import pytest

import family_oracles as oracle
from matroid_oracles import (broken_circuits, circuits, independents,
                             rank_axioms_check, subset_rank)
from mobiuslab import instances, matroid
from mobiuslab.guards import SizeGuardError
from mobiuslab.instances import (Graph, _Field, boolean_lattice,
                                 complete_graph, contraction_lattice,
                                 cycle_graph, gaussian_binomial,
                                 partition_lattice, random_connected_graph,
                                 random_graph, subspace_lattice)
from mobiuslab.lattices import Lattice, whitney_numbers
from mobiuslab.matroid import (characteristic_polynomial, chromatic_oracle,
                               chromatic_polynomial, codeword_weight_check,
                               coloring_count, flats_lattice, nbc_counts,
                               poly_eval, stirling_first_unsigned)
from mobiuslab.posets import Poset


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_polynomial_helpers():
    assert matroid.poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert matroid.poly_sub([1, 2], [1, 2]) == []
    assert poly_eval([2, 0, 1], 3) == 11
    assert matroid.monomial(5, 2) == [0, 0, 5]


def test_free_matroid():
    L = boolean_lattice(3)
    assert len(independents(L)) == 8
    assert circuits(L) == []
    assert nbc_counts(L) == [1, 3, 3, 1]


def test_triangle_circuit():
    L = partition_lattice(3)
    cs = circuits(L)
    assert len(cs) == 1 and len(cs[0]) == 3
    assert len(broken_circuits(L)) == 1
    assert nbc_counts(L) == [1, 3, 2]


def test_projective_plane_circuits():
    cs = circuits(subspace_lattice(2, 2))
    assert len(cs) == 1 and len(cs[0]) == 3


def test_rank_axioms():
    for L in (boolean_lattice(3), partition_lattice(4),
              subspace_lattice(2, 3)):
        assert rank_axioms_check(L.atoms(), lambda T: subset_rank(L, T))


@pytest.mark.parametrize("ranks", [(1, 1, 2), (0, 2, 2), (0, 1, 3)])
def test_rank_axioms_reject_bad_rank(ranks):
    # a rank function on two atoms that breaks r(empty) = 0, r(atom) = 1
    # or unit increase
    assert rank_axioms_check([0, 1], lambda T: ranks[len(T)]) is False


def test_nbc_counts_rejects_bad_order():
    L = boolean_lattice(3)
    with pytest.raises(ValueError, match="permutation of the atoms"):
        nbc_counts(L, [L.atoms()[0]] * 3)


def test_independents_guard():
    with pytest.raises(SizeGuardError):
        independents(partition_lattice(7))


def test_nbc_counts_match_whitney_sums():
    rng = random.Random(31)
    for L in (boolean_lattice(4), partition_lattice(4),
              subspace_lattice(2, 3),
              contraction_lattice(cycle_graph(4))):
        base = nbc_counts(L)
        w = [(-1) ** k * s
             for k, s in enumerate(matroid.whitney_rank_sums(L))]
        assert base == w
        for _ in range(5):
            order = L.atoms()
            rng.shuffle(order)
            assert nbc_counts(L, order) == base


def nbc_by_circuits(L, order):
    """NBC counts by the circuit route: the independent sets that contain
    no broken circuit under the order."""
    bcs = broken_circuits(L, order)
    counts = [0] * (L.height + 1)
    for T in independents(L):
        if not any(B <= T for B in bcs):
            counts[len(T)] += 1
    return counts


def shuffled_orders(L, rng, k):
    for _ in range(k):
        order = L.atoms()
        rng.shuffle(order)
        yield order


def test_nbc_closure_route_matches_circuit_route():
    rng = random.Random(32)
    for L in (partition_lattice(4), subspace_lattice(2, 3)):
        for order in shuffled_orders(L, rng, 3):
            assert nbc_by_circuits(L, order) == nbc_counts(L, order)


def test_nbc_counts_match_circuit_route_on_graphs():
    # contraction lattices of seeded graphs, forests and isolated
    # vertices included, each under shuffled atom orders
    rng = random.Random(36)
    for _ in range(15):
        n = rng.randrange(2, 7)
        e = rng.randrange(min(10, n * (n - 1) // 2) + 1)
        L = contraction_lattice(random_graph(n, e, rng.randrange(2 ** 30)))
        for order in shuffled_orders(L, rng, 4):
            assert nbc_by_circuits(L, order) == nbc_counts(L, order)


def test_nbc_partition_lattice_stirling():
    for n in range(2, 6):
        counts = nbc_counts(partition_lattice(n))
        assert counts == [stirling_first_unsigned(n, n - k)
                          for k in range(n)]


def test_stirling_values():
    assert stirling_first_unsigned(4, 2) == 11
    assert stirling_first_unsigned(5, 1) == 24
    assert all(stirling_first_unsigned(n, n) == 1 for n in range(13))
    with pytest.raises(ValueError):
        stirling_first_unsigned(13, 1)


def test_stirling_counts_permutation_cycles():
    from itertools import permutations
    for n in range(1, 7):
        by_cycles = {}
        for p in permutations(range(n)):
            seen, cycles = set(), 0
            for s in range(n):
                if s in seen:
                    continue
                cycles += 1
                x = s
                while x not in seen:
                    seen.add(x)
                    x = p[x]
            by_cycles[cycles] = by_cycles.get(cycles, 0) + 1
        for k, cnt in by_cycles.items():
            assert cnt == stirling_first_unsigned(n, k)


def test_broken_circuit_complex_pure():
    for L in (partition_lattice(4), subspace_lattice(2, 3)):
        bcs = broken_circuits(L)
        nbc_sets = [T for T in independents(L)
                    if not any(B <= T for B in bcs)]
        top = [T for T in nbc_sets if len(T) == L.height]
        for T in nbc_sets:
            assert any(T <= S for S in top)


def test_chromatic_known_graphs():
    assert chromatic_polynomial(complete_graph(3)) == [0, 2, -3, 1]
    assert chromatic_polynomial(cycle_graph(4)) == [0, -3, 6, -4, 1]
    assert chromatic_polynomial(Graph(3, [])) == [0, 0, 0, 1]
    # vertex 1 is isolated: x * x (x - 1)
    assert chromatic_polynomial(Graph(3, [(0, 2)])) == [0, 0, -1, 1]
    assert chromatic_polynomial(Graph(0, [])) == [1]


def test_chromatic_matches_oracle_and_colorings():
    rng = random.Random(33)
    graphs = [complete_graph(4), cycle_graph(5), path_graph(5)]
    for _ in range(10):
        n = rng.randrange(2, 6)
        e = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        graphs.append(random_connected_graph(n, e, rng.randrange(2 ** 30)))
    for g in graphs:
        poly = chromatic_polynomial(g)
        assert poly == chromatic_oracle(g)
        for k in range(4):
            assert poly_eval(poly, k) == coloring_count(g, k)


def test_chromatic_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    poly = chromatic_polynomial(g)
    assert poly == chromatic_oracle(g)
    assert poly_eval(poly, 3) == coloring_count(g, 3)


def test_characteristic_polynomial():
    assert characteristic_polynomial(subspace_lattice(2, 2)) == [2, -3, 1]
    assert characteristic_polynomial(boolean_lattice(4)) == [1, -4, 6, -4, 1]
    # 0 < a, b < c < 1: mu(0, 1) = 0 is the constant term
    L = Lattice(Poset.from_covers("0abc1", [list(c) for c in
                                            ("0a", "0b", "ac", "bc", "c1")]))
    assert characteristic_polynomial(L) == [0, 1, -2, 1]


def test_codeword_weight_identity_matrix():
    r = codeword_weight_check([[1, 0], [0, 1]], 2, t=2)
    assert r["pass"]
    assert r["lhs"] == 1
    assert r["tuple_lhs"] == 9


def test_codeword_weight_triangle_incidence():
    g = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    r = codeword_weight_check(g, 2)
    assert r["pass"]


def test_codeword_rejects_zero_column():
    with pytest.raises(ValueError):
        codeword_weight_check([[1, 0], [0, 0]], 2)


def test_codeword_random_matrices():
    rng = random.Random(34)
    done = 0
    while done < 10:
        q = rng.choice((2, 3))
        k = rng.randrange(2, 4)
        ncols = rng.randrange(2, 6)
        g = [[rng.randrange(q) for _ in range(ncols)] for _ in range(k)]
        if any(all(g[i][j] == 0 for i in range(k)) for j in range(ncols)):
            continue
        r = codeword_weight_check(g, q, t=2 if done < 3 else None)
        assert r["pass"], (g, q, r)
        done += 1


# -- flats of a vector configuration -------------------------------------

def seeded_generators(count, rows=(1, 4), columns=8, seed=35):
    """(generator, q) over GF(2..5) with rows[0] to rows[1] rows and 1 to
    `columns` columns; about one column in three repeats or is parallel
    to an earlier one."""
    rng = random.Random(seed)
    least, most = rows
    for _ in range(count):
        q, k = rng.randrange(2, 6), rng.randrange(least, most + 1)
        F = _Field(q)
        cols = []
        for _ in range(rng.randrange(1, columns + 1)):
            if cols and rng.random() < 0.3:
                c = rng.randrange(1, q)
                cols.append([F.mul(c, x) for x in rng.choice(cols)])
            else:
                cols.append([0] * k)
                while not any(cols[-1]):
                    cols[-1] = [rng.randrange(q) for _ in range(k)]
        yield [list(row) for row in zip(*cols)], q


# the tall ones split their rows unevenly between the two half add
# tables at odd row counts
@pytest.mark.parametrize("generator, q", [
    *seeded_generators(120),
    *seeded_generators(30, rows=(5, 8), columns=6, seed=36)])
def test_flats_match_rank_closure_oracle(generator, q):
    # labels are the flats as column sets
    assert oracle.same_order(flats_lattice(generator, q),
                             oracle.flats_lattice(generator, q))


@pytest.mark.parametrize("rows, estimate", [(19, 2 ** 20), (21, 2 ** 22)])
def test_tall_generator_refused_before_any_add_table(monkeypatch, rows,
                                                     estimate):
    # the larger add table covers ceil(rows / 2) coordinates each way
    def no_table(*args):
        raise AssertionError("an add table was built")
    monkeypatch.setattr(instances, "_digits", no_table)
    with pytest.raises(SizeGuardError) as refused:
        flats_lattice([[1]] * rows, 2)
    assert str(refused.value) == (f"span add table: estimated size "
                                  f"{estimate} exceeds limit 1000000")


@pytest.mark.parametrize("generator, message", [
    ([[2]], "generator entry 2 at row 0, column 0 is not in range(2)"),
    ([[1, 1], [1]], "generator row 1 has 1 entries, row 0 has 2"),
    ([[1, -1]], "generator entry -1 at row 0, column 1 is not in range(2)")])
def test_flats_lattice_refuses_bad_generator(monkeypatch, generator,
                                             message):
    # refused before any column code is taken: a short row used to be
    # cut off by zip, and -1 read as the code of 1
    def no_flats(*args):
        raise AssertionError("column codes were taken")
    monkeypatch.setattr(matroid, "_span_flats", no_flats)
    with pytest.raises(ValueError) as refused:
        flats_lattice(generator, 2)
    assert str(refused.value) == message


def projective_points(q, k):
    """One vector per line through 0 of GF(q)^k: those whose first
    nonzero coordinate is 1."""
    return [v for v in product(range(q), repeat=k)
            if any(v) and next(x for x in v if x) == 1]


@pytest.mark.parametrize("q, k", [(q, k) for q in (2, 3, 4, 5)
                                  for k in (1, 2, 3)])
def test_projective_flats_are_the_subspaces(q, k):
    points = projective_points(q, k)
    L = flats_lattice([list(row) for row in zip(*points)], q)
    assert whitney_numbers(L) == [gaussian_binomial(k, r, q)
                                  for r in range(k + 1)]
    assert characteristic_polynomial(L) == characteristic_polynomial(
        subspace_lattice(q, k))


# PG(3, 2) with one point left out: 14 columns
PG32_MINUS_POINT = [[0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1],
                    [0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1],
                    [0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0],
                    [1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0]]


def test_flats_labels_do_not_collide_past_ten_columns():
    # as digit strings, {1, 2, 13} and {12, 13} both read "1213"
    L = flats_lattice(PG32_MINUS_POINT, 2)
    assert L.n == 66
    assert {(1, 2, 13), (12, 13)} <= set(L.labels)
    assert codeword_weight_check(PG32_MINUS_POINT, 2)["pass"]
