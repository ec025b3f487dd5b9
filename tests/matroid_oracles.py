"""Oracles for the atom matroid of a geometric lattice L, which share no
code with `matroid.nbc_counts`: the rank of an atom set T is the lattice
rank of its join, independent sets are listed one atom at a time,
circuits are read off as fundamental circuits, and broken circuits are
circuits minus their least atom.  Imported by test_matroid.py.
"""

from itertools import combinations

from mobiuslab.guards import check_size


def subset_rank(L, T):
    """r(T) = rank of the join of the atom set T."""
    return L.rank[L.join_set(T)]


def is_independent(L, T):
    return subset_rank(L, T) == len(T)


def rank_axioms_check(atoms, rank):
    """The four rank axioms on all subsets of atoms, for the rank
    function rank(T) of an atom set T."""
    check_size("rank_axioms_check", 2 ** len(atoms), 2 ** 12)
    subsets = []
    for k in range(len(atoms) + 1):
        subsets.extend(frozenset(c) for c in combinations(atoms, k))
    r = {S: rank(S) for S in subsets}
    if r[frozenset()] != 0:
        return False
    if any(r[frozenset([p])] != 1 for p in atoms):
        return False
    for S in subsets:
        for p in atoms:
            if not r[S] <= r[S | {p}] <= r[S] + 1:
                return False
    for S in subsets:
        for T in subsets:
            if r[S] + r[T] < r[S | T] + r[S & T]:
                return False
    return True


def independents(L):
    """All independent atom subsets, grown one atom at a time."""
    atoms = L.atoms()
    check_size("independents", len(atoms), 20)
    out = [frozenset()]
    layer = [((), L.zero)]
    while layer:
        nxt = []
        for T, j in layer:
            start = atoms.index(T[-1]) + 1 if T else 0
            for p in atoms[start:]:
                if L.down[j] >> p & 1:
                    continue
                T2 = T + (p,)
                nxt.append((T2, L.join(j, p)))
                out.append(frozenset(T2))
        layer = nxt
    return out


def circuits(L):
    """Minimal dependent sets, as fundamental circuits of the
    independent sets."""
    atoms = L.atoms()
    check_size("circuits", len(atoms), 20)
    found = set()
    for I in independents(L):
        jI = L.join_set(I)
        for p in atoms:
            if p in I or not L.down[jI] >> p & 1:
                continue
            base = I | {p}
            circuit = frozenset(x for x in base
                                if jI == L.join_set(base - {x}))
            found.add(circuit)
    for C in found:
        if is_independent(L, C) or not all(is_independent(L, C - {x})
                                           for x in C):
            raise ArithmeticError(f"{sorted(C)} is not a circuit")
    return sorted(found, key=lambda C: (len(C), sorted(C)))


def broken_circuits(L, order=None):
    """Each circuit minus its least atom under the given total order."""
    order = L.atoms() if order is None else list(order)
    pos = {p: i for i, p in enumerate(order)}
    return sorted({C - {min(C, key=pos.get)} for C in circuits(L)},
                  key=lambda B: (len(B), sorted(B)))
