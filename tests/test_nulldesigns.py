import random
from itertools import product

import pytest

from mobiuslab.instances import (boolean_lattice, divisor_lattice,
                                 partition_lattice, random_poset,
                                 subspace_lattice)
from mobiuslab.lattices import MeetSemilattice
from mobiuslab.nulldesigns import (restrict_to_interval, strength,
                                   support_lower_bound, verify_support_theorem)
from mobiuslab.posets import Poset, PosetError


def alternating(P):
    """(-1)^height on a boolean lattice, i.e. (-1)^|S|."""
    return [(-1) ** len(lab) for lab in P.labels]


def test_meet_semilattice_validation():
    with pytest.raises(PosetError):
        MeetSemilattice(Poset.from_covers(["x", "y"], []))
    forest = Poset.from_covers(["0", "a", "b", "c", "d"],
                               [("0", "a"), ("0", "b"),
                                ("a", "c"), ("b", "c"), ("a", "d"),
                                ("b", "d")])
    with pytest.raises(PosetError):
        MeetSemilattice(forest).meet(forest.idx("c"), forest.idx("d"))


def test_meet_semilattice_validated_past_400_elements():
    chain = [f"c{i}" for i in range(500)]
    covers = list(zip(chain, chain[1:]))
    covers += [(chain[-1], "a"), (chain[-1], "b")]
    # two maximal elements with no common upper bound: a meet semilattice
    S = MeetSemilattice(Poset.from_covers(chain + ["a", "b"], covers))
    assert S.meet(S.idx("a"), S.idx("b")) == S.idx("c499")
    # c and d have two maximal common lower bounds
    covers += [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    P = Poset.from_covers(chain + ["a", "b", "c", "d"], covers)
    with pytest.raises(PosetError, match=r"^no greatest lower bound for "
                       r"witness pair \('c', 'd'\)$"):
        MeetSemilattice(P)


def test_strength_conventions():
    P = boolean_lattice(3)
    S = MeetSemilattice(P)
    assert strength(S, [0] * P.n) == 3
    indicator = [1 if lab == "12" else 0 for lab in P.labels]
    assert strength(S, indicator) == -1
    assert strength(S, alternating(P)) == 2


def test_restrict_to_interval_routes_agree():
    rng = random.Random(51)
    for _ in range(200):
        L = None
        while L is None:
            P = random_poset(rng.randrange(1, 13), rng.random(),
                             rng.randrange(2 ** 30))
            try:
                L = MeetSemilattice(P)
            except PosetError:
                L = None
        f = [rng.randrange(-4, 5) for _ in range(P.n)]
        b = rng.randrange(P.n)
        restrict_to_interval(L, f, b)


def test_restrict_at_top_is_identity():
    P = boolean_lattice(3)
    S = MeetSemilattice(P)
    f = alternating(P)
    fb = restrict_to_interval(S, f, P.idx("123"))
    assert fb == {lab: f[i] for i, lab in enumerate(P.labels)}


def test_integer_labels_are_not_read_as_indices():
    # D_12 has six elements labelled by ints; b is always an index
    P = divisor_lattice(12)
    S = MeetSemilattice(P)
    assert support_lower_bound(S, P.idx(6)) == 4
    f = {x: x for x in P.labels}
    assert restrict_to_interval(S, f, P.idx(4)) == {1: 1 + 3, 2: 2 + 6,
                                                    4: 4 + 12}


def test_support_lower_bound_closed_forms():
    for n in range(2, 9):
        P = boolean_lattice(n)
        S = MeetSemilattice(P)
        for t in range(n):
            b = P.idx(next(lab for lab in P.labels if len(lab) == t + 1))
            assert support_lower_bound(S, b) == 2 ** (t + 1)
    for q, n in ((2, 2), (2, 3), (2, 4), (3, 2)):
        L = subspace_lattice(q, n)
        S = MeetSemilattice(L)
        for b in range(L.n):
            t = L.rank[b] - 1
            want = 1
            for i in range(t + 1):
                want *= 1 + q ** i
            assert support_lower_bound(S, b) == want


def _cell_bound_factor(m):
    """Sum over partitions of an m-set of (blocks - 1)!, via Stirling
    numbers of the second kind."""
    import math
    S = [[0] * (m + 1) for _ in range(m + 1)]
    S[0][0] = 1
    for i in range(1, m + 1):
        for k in range(1, i + 1):
            S[i][k] = k * S[i - 1][k] + S[i - 1][k - 1]
    return sum(S[m][k] * math.factorial(k - 1) for k in range(1, m + 1))


def test_partition_lattice_bound_closed_form():
    # the sum over c <= b of |mu(c, b)| factors over the cells of b,
    # because [c, b] is a product of partition lattices of the per-cell
    # block counts; the per-cell factor is sum_k S(m, k) (k-1)!
    for n in range(2, 8):
        L = partition_lattice(n)
        S = MeetSemilattice(L)
        for b in range(L.n):
            digits = L.labels[b]
            want = 1
            for d in sorted(set(digits)):
                want *= _cell_bound_factor(digits.count(d))
            assert support_lower_bound(S, b) == want


def test_partition_lattice_refutes_factorial_claim():
    # the single-block element of P(4) already gives 26, which is not a
    # factorial of anything, let alone (n - k)!
    L = partition_lattice(4)
    S = MeetSemilattice(L)
    assert support_lower_bound(S, L.one) == 26


def test_support_theorem_equality_case():
    P = boolean_lattice(3)
    S = MeetSemilattice(P)
    f = alternating(P)
    report = verify_support_theorem(S, f)
    assert report["pass"]
    assert report["lhs"] == report["rhs"] == 8
    assert all(entry["pass"] for entry in report["witnesses"])


def test_support_theorem_zero_function_vacuous():
    P = boolean_lattice(2)
    report = verify_support_theorem(MeetSemilattice(P), [0] * P.n)
    assert report["pass"] and report.get("vacuous")


def test_support_theorem_scaling_invariance():
    P = boolean_lattice(3)
    S = MeetSemilattice(P)
    f = [2 * v for v in alternating(P)]
    report = verify_support_theorem(S, f)
    assert report["rhs"] == 8
    assert not report["pass"] or report["lhs"] > report["rhs"]


def test_support_theorem_rejects_high_support():
    P = boolean_lattice(3)
    S = MeetSemilattice(P)
    f = [1 if lab == "123" else 0 for lab in P.labels]
    with pytest.raises(PosetError):
        verify_support_theorem(S, f)


def test_exhaustive_strength_one_on_b4_interval():
    # every nonzero (0, +-1)-valued function of strength 1 supported on
    # a fixed 2-set interval of B(4) has support at least 4
    P = boolean_lattice(4)
    S = MeetSemilattice(P)
    cells = [i for i, lab in enumerate(P.labels) if len(lab) <= 2
             and set(lab) <= {"1", "2"}]
    found = 0
    for combo in product((-1, 0, 1), repeat=len(cells)):
        f = [0] * P.n
        for i, v in zip(cells, combo):
            f[i] = v
        if any(f) and strength(S, f) == 1:
            support = sum(1 for v in f if v)
            assert support >= 4
            found += 1
    assert found > 0
