import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mobiuslab
from mobiuslab import treedist
from mobiuslab.exactmat import bareiss_det, identity, mat_mul
from mobiuslab.instances import random_tree
from mobiuslab.treedist import (RootedTree, distance_inverse_ok,
                                distance_matrix, h_inverse_ok,
                                scaled_distance_inverse, scaled_h_inverse,
                                verify_tree)


def path(n, root=0):
    parent = [None if v == root else v - 1 if v > root else v + 1
              for v in range(n)]
    return RootedTree(n, root, parent)


def star(n):
    return RootedTree(n, 0, [None] + [0] * (n - 1))


def test_validation():
    with pytest.raises(ValueError):
        RootedTree(2, 0, [None, 5])
    with pytest.raises(ValueError):
        RootedTree(3, 0, [None, 2, 1])
    with pytest.raises(ValueError):
        RootedTree(2, 0, [0, 0])


def test_distance_matrix_small():
    assert distance_matrix(path(3)) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    D = distance_matrix(star(4))
    assert D[0] == [0, 1, 1, 1]
    assert D[1][2] == D[2][3] == 2
    assert distance_matrix(RootedTree(1, 0, [None])) == [[0]]


def ancestors(T, i):
    """Positions on the path from the root to position i, inclusive."""
    out = [i]
    while T.parent_pos[out[-1]] is not None:
        out.append(T.parent_pos[out[-1]])
    return out[::-1]


def tree_zeta(T):
    """Z[u][v] = 1 when u lies on the path from the root to v; unit
    upper triangular, as the breadth-first order puts every vertex after
    its ancestors."""
    n = T.n
    Z = [[0] * n for _ in range(n)]
    for v in range(n):
        for u in ancestors(T, v):
            Z[u][v] = 1
    assert all(Z[i][i] == 1 and not any(Z[i][:i]) for i in range(n))
    return Z


def root_path_distances(T):
    """D[u][v] = depth(u) + depth(v) - 2 depth(last common ancestor), by
    comparing the two root paths of every pair."""
    n = T.n
    anc = [ancestors(T, i) for i in range(n)]
    D = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            common = 0
            for a, b in zip(anc[i], anc[j]):
                if a != b:
                    break
                common += 1
            D[i][j] = len(anc[i]) + len(anc[j]) - 2 * common
    return D


def test_distance_matrix_matches_root_paths():
    rng = random.Random(49)
    trees = [path(300), path(120, rng.randrange(120)), star(30)]
    trees += [_random_rooted(rng, n) for n in range(2, 301, 23)]
    for T in trees:
        assert distance_matrix(T) == root_path_distances(T)


def _h(n):
    return [[(i == 0) + (j == 0) - 2 * (i == j) for j in range(n)]
            for i in range(n)]


def _fraction_oracle(M, S):
    """M S / (2n-2) == I by a dense Fraction product."""
    n = len(M)
    Si = [[Fraction(x, 2 * n - 2) for x in row] for row in S]
    return mat_mul(M, Si) == [[Fraction(i == j) for j in range(n)]
                              for i in range(n)]


def test_zeta_form():
    Z = tree_zeta(path(3))
    assert Z == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def test_zeta_inverse_three_cases():
    # Z^-1 is 1 on the diagonal, -1 at (parent, child) and 0 elsewhere
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 12)
        T = RootedTree.from_graph(random_tree(n, rng.randrange(2 ** 30)), 0)
        M = identity(n)
        for v in range(1, n):
            M[T.parent_pos[v]][v] = -1
        assert mat_mul(M, tree_zeta(T)) == identity(n)


def transpose(A):
    return [list(col) for col in zip(*A)]


def dense_congruence(T, M):
    """Z^T M Z by two dense products with the tree's zeta matrix."""
    Z = tree_zeta(T)
    return mat_mul(transpose(Z), mat_mul(M, Z))


def test_factorization_all_roots():
    # D = Z^T H Z with H = 1 e1^T + e1 1^T - 2I, from every root
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(1, 13)
        g = random_tree(n, rng.randrange(2 ** 30))
        for root in range(n):
            T = RootedTree.from_graph(g, root)
            assert dense_congruence(T, _h(n)) == distance_matrix(T)
            assert verify_tree(T)["pass"]


def test_zeta_congruence_matches_dense_product():
    rng = random.Random(48)
    trees = [path(n, rng.randrange(n)) for n in (1, 2, 5, 17, 40)]
    trees += [_random_rooted(rng, rng.randrange(1, 40)) for _ in range(40)]
    for T in trees:
        M = [[rng.randrange(-9, 10) for _ in range(T.n)]
             for _ in range(T.n)]
        assert (treedist._zeta_congruence(T, M)
                == dense_congruence(T, M))
        assert (treedist._zeta_congruence(T, _h(T.n))
                == dense_congruence(T, _h(T.n)) == distance_matrix(T))


def test_determinant_shape_independent():
    rng = random.Random(43)
    for n in range(2, 13):
        closed = (n - 1) * (-1) ** (n - 1) * 2 ** (n - 2)
        for _ in range(5):
            T = RootedTree.from_graph(
                random_tree(n, rng.randrange(2 ** 30)), 0)
            r = verify_tree(T)
            assert r["det"] == r["closed_form"] == closed and r["pass"]


def test_determinant_small_values():
    assert verify_tree(path(2))["det"] == -1
    assert verify_tree(path(3))["det"] == 4
    assert verify_tree(path(6))["det"] == -80
    assert verify_tree(path(1))["det"] is None


def test_h_determinant():
    for n in range(2, 11):
        assert bareiss_det(_h(n)) == (n - 1) * (-2) ** (n - 1) // 2


def test_distance_inverse():
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randrange(2, 13)
        T = RootedTree.from_graph(random_tree(n, rng.randrange(2 ** 30)), 0)
        assert _fraction_oracle(distance_matrix(T),
                                scaled_distance_inverse(T))


def test_distance_inverse_star_beta():
    # (D^-1)[1][1] = -1/2 + 1/6 at a leaf of the 4-vertex star; scaled by 6
    assert scaled_distance_inverse(star(4))[1][1] == -2


def test_distance_inverse_denominators():
    # every denominator of D^-1 divides 2n - 2: the scaled form is integral
    T = path(3)
    S = scaled_distance_inverse(T)
    assert all(type(x) is int for row in S for x in row)
    assert _fraction_oracle(distance_matrix(T), S)


def _moved(S, i, j, delta):
    out = [row[:] for row in S]
    out[i][j] += delta
    return out


def _random_rooted(rng, n):
    g = random_tree(n, rng.randrange(2 ** 30))
    return RootedTree.from_graph(g, rng.randrange(n))


def test_integer_verdicts_match_fraction_oracle():
    rng = random.Random(45)
    for n in (2, 3, 4, 5, 7, 10, 16, 25, 40):
        T = _random_rooted(rng, n)
        D = distance_matrix(T)
        SH, SD = scaled_h_inverse(n), scaled_distance_inverse(T)
        i, j = rng.randrange(n), rng.randrange(n)
        delta = rng.choice((-1, 1))
        for S in (SH, _moved(SH, i, j, delta)):
            assert h_inverse_ok(S) == _fraction_oracle(_h(n), S)
        for S in (SD, _moved(SD, i, j, delta)):
            assert distance_inverse_ok(T, D, S) == _fraction_oracle(D, S)
        assert h_inverse_ok(SH) and distance_inverse_ok(T, D, SD)


def test_h_inverse():
    for n in range(2, 13):
        assert _fraction_oracle(_h(n), scaled_h_inverse(n))


def test_perturbed_scaled_inverses_rejected():
    rng = random.Random(47)
    for n in range(2, 7):
        T = _random_rooted(rng, n)
        D = distance_matrix(T)
        SH, SD = scaled_h_inverse(n), scaled_distance_inverse(T)
        for i in range(n):
            for j in range(n):
                for delta in (-1, 1):
                    assert not h_inverse_ok(_moved(SH, i, j, delta))
                    assert not distance_inverse_ok(T, D,
                                                   _moved(SD, i, j, delta))
    for n in (20, 40):
        T = _random_rooted(rng, n)
        D = distance_matrix(T)
        SH, SD = scaled_h_inverse(n), scaled_distance_inverse(T)
        for _ in range(20):
            i, j = rng.randrange(n), rng.randrange(n)
            delta = rng.choice((-1, 1))
            assert not h_inverse_ok(_moved(SH, i, j, delta))
            assert not distance_inverse_ok(T, D, _moved(SD, i, j, delta))


def test_perturbed_closed_form_fails_report(monkeypatch):
    T = path(5)
    assert verify_tree(T)["pass"]
    right = treedist.scaled_distance_inverse
    monkeypatch.setattr(treedist, "scaled_distance_inverse",
                        lambda T: _moved(right(T), 1, 3, 1))
    r = verify_tree(T)
    assert r["inverse_verified"] is False and r["pass"] is False
    assert r["det"] == r["closed_form"]


def test_verify_tree_single_vertex():
    r = verify_tree(RootedTree(1, 0, [None]))
    assert r["pass"] and r["det"] is None and r["inverse_verified"] is None


# Run as `python -O -c PERTURBED tree --n 6`: the closed form of D^-1 (or
# of H^-1 with "h") comes back with one entry moved by one.
PERTURBED = """
import sys
from mobiuslab import treedist
from mobiuslab.cli import main
name = "scaled_h_inverse" if sys.argv[1] == "h" else "scaled_distance_inverse"
right = getattr(treedist, name)
def moved(arg):
    S = right(arg)
    S[-1][0] += 1
    return S
setattr(treedist, name, moved)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("which", ["h", "d"])
def test_perturbed_inverse_fails_under_optimize(tmp_path, which):
    paths = [str(Path(mobiuslab.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    r = subprocess.run([sys.executable, "-O", "-c", PERTURBED, which,
                        "tree", "--n", "6"], capture_output=True,
                       cwd=tmp_path, env=env, timeout=120)
    assert r.returncode == 1, r.stderr
    assert b"Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["inverse_verified"] is False and body["pass"] is False
    assert body["det"] == body["closed_form"] == -80


def test_no_assert_statements():
    # an answer must not change under python -O, so no module checks
    # anything with assert
    found = []
    for path in sorted(Path(treedist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assert)
                    or (isinstance(node, ast.Name)
                        and node.id == "AssertionError")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_poset_hop():
    # a lattice or meet semilattice is the Poset it was built from, so no
    # module reaches through an attribute named poset for the order;
    # args.poset, the path given to --poset, is not such a hop
    found = []
    for path in sorted(Path(treedist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "poset"
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "args")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports():
    # every name a module imports is read somewhere in it; __init__ is
    # skipped, since its imports are the package's re-exports
    found = []
    for path in sorted(Path(treedist.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# Definitions that no command reaches, each kept for a reason; what they
# read counts as reached.
UNCALLED = (
    ("product", "construction: the product order, waiting for the "
     "product-theorem row of verify-all"),
    ("retract_check", "order-map identity, not yet a verify-all row"),
    ("is_dismantlable", "order-map identity, not yet a verify-all row"),
    ("restrict_to_interval",
     "order-map identity, not yet a verify-all row"),
    ("support_lower_bound", "the bound alone; verify_support_theorem "
     "reads it off the column it pulls for its ledger"),
)


def foreign_names(tree):
    """Names a module binds by importing from outside mobiuslab."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names
                       if a.name.split(".")[0] != "mobiuslab")
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] != "mobiuslab"):
            out.update(a.asname or a.name for a in node.names)
    return out


def is_definition(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__"))


def own_reads(node, foreign):
    """Names and attributes that the code of node loads, leaving out the
    definitions inside it, which are reached by their own names; a
    dunder method's loads count as its class's."""
    out = set()
    todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        if is_definition(child):
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in foreign:
                out.add(child.id)
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.ctx, ast.Load)):
            out.add(child.attr)
        todo.extend(ast.iter_child_nodes(child))
    return out


def reached(reads, start):
    """The names reached from start by following what each definition of
    a name reads."""
    seen, todo = set(), list(start)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(reads.get(name, ()))
    return seen


def test_no_dead_definitions():
    # Every def and class in src/ (dunders and __init__ aside) is reached
    # from the code that runs at import, cli.py's command table and its
    # __main__ guard among it, or from an UNCALLED entry, by following
    # name and attribute loads from definition to definition.  Names are
    # matched by name only, and a load of a name imported from outside
    # mobiuslab (itertools' product) is not a load of a definition.
    reads, where, roots = {}, {}, set()
    for path in sorted(Path(treedist.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        foreign = foreign_names(tree)
        roots |= own_reads(tree, foreign)
        for node in ast.walk(tree):
            if is_definition(node):
                reads.setdefault(node.name, set()).update(
                    own_reads(node, foreign))
                where.setdefault(node.name, f"{path.name}:{node.lineno}")
    kept = {name for name, _ in UNCALLED}
    dead = set(reads) - reached(reads, roots | kept)
    assert sorted(f"{where[name]} {name}" for name in dead) == []
    # an entry that a command reaches, or that is gone, is stale
    assert sorted(kept & reached(reads, roots) | kept - set(reads)) == []
