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
from mobiuslab.exactmat import identity, mat_mul
from mobiuslab.instances import random_tree
from mobiuslab.treedist import (RootedTree, distance_inverse,
                                distance_inverse_ok, distance_matrix,
                                graham_lovasz_check, graham_pollak_det,
                                h_det_check, h_inverse, h_inverse_ok,
                                scaled_distance_inverse, scaled_h_inverse,
                                tree_zeta, tree_zeta_inverse, verify_tree)


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


def test_zeta_form():
    Z = tree_zeta(path(3))
    assert Z == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    M = tree_zeta_inverse(path(3))
    assert M == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]


def test_zeta_inverse_three_cases():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 12)
        T = RootedTree.from_graph(random_tree(n, rng.randrange(2 ** 30)), 0)
        M = tree_zeta_inverse(T)
        edges = {(T.parent_pos[v], v) for v in range(1, n)}
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert M[i][j] == 1
                elif (i, j) in edges:
                    assert M[i][j] == -1
                else:
                    assert M[i][j] == 0


def test_factorization_all_roots():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(1, 13)
        g = random_tree(n, rng.randrange(2 ** 30))
        for root in range(n):
            T = RootedTree.from_graph(g, root)
            assert graham_lovasz_check(T)["pass"]


def test_determinant_shape_independent():
    rng = random.Random(43)
    for n in range(2, 13):
        closed = (n - 1) * (-1) ** (n - 1) * 2 ** (n - 2)
        for _ in range(5):
            T = RootedTree.from_graph(
                random_tree(n, rng.randrange(2 ** 30)), 0)
            assert graham_pollak_det(T) == closed


def test_determinant_small_values():
    assert graham_pollak_det(path(2)) == -1
    assert graham_pollak_det(path(3)) == 4
    assert graham_pollak_det(path(6)) == -80
    with pytest.raises(ValueError):
        graham_pollak_det(path(1))


def test_h_determinant():
    for n in range(2, 11):
        assert h_det_check(n)["pass"]


def test_distance_inverse():
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randrange(2, 13)
        T = RootedTree.from_graph(random_tree(n, rng.randrange(2 ** 30)), 0)
        Di = distance_inverse(T)
        D = [[Fraction(x) for x in row] for row in distance_matrix(T)]
        assert mat_mul(D, Di) == [[Fraction(i == j) for j in range(n)]
                                  for i in range(n)]


def test_distance_inverse_star_beta():
    T = star(4)
    Di = distance_inverse(T)
    assert Di[1][1] == Fraction(-1, 2) + Fraction(1, 6)


def test_distance_inverse_denominators():
    T = path(3)
    Di = distance_inverse(T)
    for row in Di:
        for x in row:
            assert (2 * T.n - 2) % x.denominator == 0


def _h(n):
    return [[(i == 0) + (j == 0) - 2 * (i == j) for j in range(n)]
            for i in range(n)]


def _fraction_oracle(M, S):
    """M S / (2n-2) == I by a dense Fraction product."""
    n = len(M)
    Si = [[Fraction(x, 2 * n - 2) for x in row] for row in S]
    return mat_mul(M, Si) == [[Fraction(i == j) for j in range(n)]
                              for i in range(n)]


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
        assert mat_mul(_h(n), h_inverse(n)) == [[Fraction(i == j)
                                                 for j in range(n)]
                                                for i in range(n)]


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
    with pytest.raises(ArithmeticError):
        distance_inverse(T)


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
