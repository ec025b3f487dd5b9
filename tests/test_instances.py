import random
from itertools import combinations

import pytest

import family_oracles as oracle
from order_oracles import is_isomorphic
from mobiuslab import lattices
from mobiuslab.guards import SizeGuardError
from mobiuslab.instances import (Graph, boolean_lattice, chain,
                                 complete_graph, contraction_lattice,
                                 cycle_graph, divisor_lattice,
                                 gaussian_binomial, partition_lattice,
                                 random_graph, random_poset, random_tree,
                                 subspace_lattice)
from mobiuslab.matroid import chromatic_polynomial, poly_eval


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == [(0, 1), (1, 2)]


def test_boolean_lattice_structure():
    L = boolean_lattice(3)
    assert L.n == 8
    assert L.labels[L.zero] == ""
    assert L.labels[L.one] == "123"
    assert is_isomorphic(boolean_lattice(1), chain(1))


def test_boolean_is_power_of_chains():
    for n in range(1, 5):
        prod = chain(1)
        for _ in range(n - 1):
            prod = prod.product(chain(1))
        assert is_isomorphic(boolean_lattice(n), prod)


def test_boolean_guard():
    with pytest.raises(SizeGuardError):
        boolean_lattice(17)


def test_divisor_lattice():
    assert is_isomorphic(divisor_lattice(30), boolean_lattice(3))
    assert is_isomorphic(divisor_lattice(8), chain(3))
    assert divisor_lattice(12).n == 6
    with pytest.raises(SizeGuardError):
        divisor_lattice(10 ** 6 + 1)


def test_divisor_product_decomposition():
    for p_r, m in ((4, 15), (9, 10), (8, 3)):
        lhs = divisor_lattice(p_r * m)
        rhs = divisor_lattice(m).product(
            divisor_lattice(p_r))
        assert is_isomorphic(lhs, rhs)


def test_subspace_lattice_counts():
    L = subspace_lattice(2, 2)
    assert L.n == 5
    assert lattices.whitney_numbers(L) == [1, 3, 1]
    assert lattices.whitney_numbers(subspace_lattice(3, 2)) == [1, 4, 1]
    assert subspace_lattice(2, 3).mobius_idx(0, 15) == -8
    assert gaussian_binomial(4, 2, 2) == 35


def test_subspace_lattice_gf4():
    L = subspace_lattice(4, 2)
    assert lattices.whitney_numbers(L) == [1, 5, 1]
    assert lattices.is_geometric(L)


def test_subspace_lattice_unsupported_field():
    with pytest.raises(ValueError):
        subspace_lattice(6, 2)


def test_partition_lattice():
    assert partition_lattice(4).n == 15
    L = partition_lattice(5)
    assert L.mobius_idx(L.zero, L.one) == 24
    assert lattices.whitney_numbers(partition_lattice(3)) == [1, 3, 1]
    with pytest.raises(SizeGuardError):
        partition_lattice(10)


def test_contraction_lattice():
    K3 = complete_graph(3)
    assert is_isomorphic(contraction_lattice(K3),
                         partition_lattice(3))
    K4 = complete_graph(4)
    assert is_isomorphic(contraction_lattice(K4),
                         partition_lattice(4))
    tree = path_graph(4)
    assert is_isomorphic(contraction_lattice(tree),
                         boolean_lattice(3))


def test_contraction_lattice_rank_is_vertices_minus_components():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    L = contraction_lattice(g)
    assert lattices.is_geometric(L)
    assert L.height == g.n - 2


def test_generated_instances_are_geometric():
    for L in (boolean_lattice(4), subspace_lattice(2, 3),
              partition_lattice(4),
              contraction_lattice(complete_graph(4))):
        assert lattices.is_geometric(L)


def test_random_poset_determinism():
    a = random_poset(8, 0.4, 123)
    b = random_poset(8, 0.4, 123)
    assert a.labels == b.labels and a.upper == b.upper
    c = random_poset(8, 0.4, 124)
    assert a.upper != c.upper


def test_random_tree_determinism_and_shape():
    a = random_tree(9, 7)
    b = random_tree(9, 7)
    assert a.edges == b.edges
    assert len(a.edges) == 8 and a.is_connected()


def test_negative_sizes_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        subspace_lattice(2, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        random_graph(-2, 0, 0)
    assert subspace_lattice(2, 0).n == 1
    assert random_graph(0, 0, 0).edges == []


# -- the generators against their enumerate-and-filter oracles -----------

@pytest.mark.parametrize("n", range(1, 8))
def test_partition_lattice_matches_oracle(n):
    assert oracle.same_order(partition_lattice(n),
                             oracle.partition_lattice(n))


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


def test_contraction_lattice_matches_oracle_on_every_small_graph():
    # 1 + 1 + 2 + 8 + 64 + 1024 labeled graphs on 0..5 vertices
    for n in range(6):
        for G in all_graphs(n):
            assert oracle.same_order(contraction_lattice(G),
                                     oracle.contraction_lattice(G)), G


def seeded_graphs():
    rng = random.Random(17)
    for n in (6, 7, 8, 9):
        pairs = list(combinations(range(n), 2))
        for _ in range(2):
            yield Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
    for n in range(3, 10):
        yield cycle_graph(n)
    # isolated vertices, and no vertex at all
    yield Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)])
    yield Graph(6, [])
    yield Graph(0, [])


@pytest.mark.parametrize("G", seeded_graphs(),
                         ids=lambda G: f"{G.n}v{len(G.edges)}e")
def test_contraction_lattice_matches_oracle(G):
    assert oracle.same_order(contraction_lattice(G),
                             oracle.contraction_lattice(G))


class EdgeBlindGraph(Graph):
    """Reports every other vertex as a neighbour, so a merge of any two
    blocks passes the edge test."""

    def adjacency(self):
        return [set(range(self.n)) - {v} for v in range(self.n)]


def test_oracle_catches_merge_without_edge():
    # the oracle reads the edges themselves: a generator that merges
    # blocks no edge joins builds Pi_5, not the lattice of C_5
    G = EdgeBlindGraph(5, cycle_graph(5).edges)
    assert contraction_lattice(G).n == 52
    assert not oracle.same_order(contraction_lattice(G),
                                 oracle.contraction_lattice(G))


@pytest.mark.parametrize("q, n", [(q, n) for q in (2, 3, 4, 5)
                                  for n in range(4)] + [(2, 4)])
def test_subspace_lattice_matches_oracle(q, n):
    assert oracle.same_order(subspace_lattice(q, n),
                             oracle.subspace_lattice(q, n))


@pytest.mark.parametrize("m", [12, 36, 60, 210, 360, 2310, 5040, 55440,
                               1, 9973])
def test_divisor_lattice_matches_oracle(m):
    # the divisors the benchmark generates, 1, and a prime
    assert oracle.same_order(divisor_lattice(m),
                             oracle.divisor_lattice(m))


# -- closed forms at the sizes the oracles cannot reach ------------------

@pytest.mark.parametrize("q, n", [(3, 4), (2, 6)])
def test_subspace_lattice_closed_forms(q, n):
    # W_k = [n choose k]_q and mu(0, 1) = (-1)^n q^C(n, 2)
    L = subspace_lattice(q, n)
    assert lattices.whitney_numbers(L) == [gaussian_binomial(n, k, q)
                                           for k in range(n + 1)]
    assert L.mobius_idx(L.zero, L.one) == \
        (-1) ** n * q ** (n * (n - 1) // 2)


def test_chromatic_polynomial_of_cycle_11():
    # P(C_n, x) = (x - 1)^n + (-1)^n (x - 1)
    n = 11
    poly = chromatic_polynomial(cycle_graph(n))
    for x in range(-3, 8):
        assert poly_eval(poly, x) == (x - 1) ** n + (-1) ** n * (x - 1)
    assert len(poly) == n + 1
