import argparse
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import mobiuslab
from mobiuslab import cli, lattices, matroid, treedist
from mobiuslab.cli import EXIT_BROKEN_PIPE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def b3(tmp_path, capsys):
    path = tmp_path / "b3.json"
    code, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "3")
    assert code == 0
    path.write_text(out)
    return str(path)


def test_gen_boolean(capsys):
    code, obj, err = run_json(capsys, "gen", "--family", "boolean",
                              "--n", "3")
    assert code == 0
    assert obj["schema"] == 1
    assert len(obj["elements"]) == 8
    assert "8 elements" in err


def test_gen_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "--family", "random-poset",
                     "--n", "8", "--seed", "5")
    _, out2, _ = run(capsys, "gen", "--family", "random-poset",
                     "--n", "8", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "gen", "--family", "random-poset",
                     "--n", "8", "--seed", "6")
    assert out1 != out3


def test_gen_random_tree_csv(capsys):
    code, out, _ = run(capsys, "gen", "--family", "random-tree",
                       "--n", "6", "--seed", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert all(len(r) == 2 for r in rows)


def test_gen_unknown_family(capsys):
    code, _, err = run(capsys, "gen", "--family", "nope")
    assert code == 2 and "error" in err


def test_mu(capsys, b3):
    code, obj, err = run_json(capsys, "mu", "--poset", b3,
                              "--from", "", "--to", "123")
    assert code == 0
    assert obj["mu"] == -1
    assert "mu = -1" in err


def test_mu_incomparable(capsys, b3):
    code, _, err = run(capsys, "mu", "--poset", b3,
                       "--from", "1", "--to", "2")
    assert code == 2 and "incomparable" in err


def test_mu_unknown_label(capsys, b3):
    code, _, err = run(capsys, "mu", "--poset", b3,
                       "--from", "zz", "--to", "123")
    assert code == 2 and "no element labeled" in err


def test_labels_that_print_alike_rejected(capsys, tmp_path):
    # 1 and "1" are distinct labels that both print and resolve as "1"
    path = tmp_path / "alike.json"
    path.write_text(json.dumps({"elements": [1, "1", 2],
                                "covers": [[1, 2], ["1", 2]]}))
    message = f"error: {path}: labels 1 and '1' both print as '1'\n"
    for argv in (["invert"], ["mu", "--from", "1", "--to", "2"]):
        assert run(capsys, argv[0], "--poset", str(path),
                   *argv[1:]) == (2, "", message)


def test_zeta_json_and_csv(capsys, b3):
    code, obj, _ = run_json(capsys, "zeta", "--poset", b3)
    assert code == 0
    Z = obj["zeta"]
    assert all(Z[i][i] == 1 for i in range(8))
    code, out, _ = run(capsys, "zeta", "--poset", b3, "--csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_invert_matrix(capsys, b3):
    code, obj, _ = run_json(capsys, "invert", "--poset", b3)
    assert code == 0
    M = obj["mobius"]
    idx = {lab: i for i, lab in enumerate(obj["elements"])}
    assert M[idx[""]][idx["123"]] == -1
    assert M[idx["1"]][idx["12"]] == -1


def test_invert_function(capsys, b3, tmp_path):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"": 8, "1": 4, "2": 4, "3": 4,
                                 "12": 2, "13": 2, "23": 2, "123": 1}))
    code, obj, _ = run_json(capsys, "invert", "--poset", b3,
                            "--function", str(fpath))
    assert code == 0
    # g(S) = 2^(3-|S|) is the up-sum of the indicator-like f below
    assert obj["values"]["123"] == 1
    assert obj["values"][""] == 1


def test_invert_function_bad_label(capsys, b3, tmp_path):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"zz": 1}))
    code, _, err = run(capsys, "invert", "--poset", b3,
                       "--function", str(fpath))
    assert code == 2 and "unknown label" in err


def test_invert_csv_refused_with_function(capsys, b3, tmp_path):
    # --csv shapes only the Mobius matrix; with --function it would be a
    # flag that does nothing
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"": 1}))
    code, out, err = run(capsys, "invert", "--poset", b3,
                         "--function", str(fpath), "--csv")
    assert (code, out) == (2, "")
    assert err == "error: --csv does not apply with --function\n"


def test_invert_direction_refused_without_function(capsys, b3, tmp_path):
    # --direction picks the order sums that --function inverts; without
    # it the flag would do nothing
    code, out, err = run(capsys, "invert", "--poset", b3,
                         "--direction", "down")
    assert (code, out) == (2, "")
    assert err == "error: --direction applies only with --function\n"
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"": 1}))
    code, _, err = run(capsys, "invert", "--poset", b3,
                       "--function", str(fpath))
    assert (code, err) == (0, "inverted up-sums on 8 elements\n")


def test_json_booleans_are_not_integers(capsys, b3, tmp_path):
    # true and false are ints to Python; they must not pass as 1 and 0
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"": True}))
    code, out, err = run(capsys, "invert", "--poset", b3,
                         "--function", str(fpath))
    assert code == 2 and out == ""
    assert err == f"error: {fpath}: value for '' is not an integer\n"
    tpath = tmp_path / "t.json"
    for tree, field in [({"n": True, "root": 0, "parent": [None]}, "'n'"),
                        ({"n": 2, "root": False, "parent": [None, 0]},
                         "'root'"),
                        ({"n": 3, "root": 0, "parent": [None, 0, True]},
                         "parent[2]"),
                        ({"n": 2, "root": 0, "parent": [None, "0"]},
                         "parent[1]")]:
        tpath.write_text(json.dumps(tree))
        code, out, err = run(capsys, "tree", "--tree", str(tpath))
        assert code == 2 and out == ""
        assert err == f"error: {tpath}: {field} is not an integer\n"


def test_chains(capsys, b3):
    code, obj, _ = run_json(capsys, "chains", "--poset", b3,
                            "--from", "", "--to", "123")
    assert code == 0
    assert obj["pass"]
    assert obj["mu_by_chains"] == obj["mu_matrix"] == -1
    assert obj["by_length"] == {"1": 1, "2": 6, "3": 6}


def test_euler(capsys, b3):
    code, obj, _ = run_json(capsys, "euler", "--poset", b3)
    assert code == 0
    assert obj["pass"]
    assert obj["euler_characteristic"] == 1 + obj["mobius_number"]


def _gen(capsys, tmp_path, family, n):
    path = tmp_path / f"{family}{n}.json"
    code, out, _ = run(capsys, "gen", "--family", family, "--n", str(n))
    assert code == 0
    path.write_text(out)
    return str(path)


def test_chains_and_euler_past_twenty_elements(capsys, tmp_path):
    # 7087261 chains from the bottom to the top of B_9; `euler` refused
    # every poset of more than 20 elements before chains were counted
    # in one pass
    b9 = _gen(capsys, tmp_path, "boolean", 9)
    code, obj, _ = run_json(capsys, "chains", "--poset", b9,
                            "--from", "", "--to", "123456789")
    assert code == 0 and obj["pass"] and obj["count"] == 7087261
    assert obj["mu_by_chains"] == obj["mu_matrix"] == -1
    assert obj["by_length"]["9"] == 362880
    for path in (_gen(capsys, tmp_path, "boolean", 5), b9,
                 _gen(capsys, tmp_path, "partition", 7)):
        code, obj, _ = run_json(capsys, "euler", "--poset", path)
        assert code == 0 and obj["pass"]


def test_chain_counts_refused_before_the_pass(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "chain", 19999)
    message = ("error: order_complex: estimated size {} exceeds limit "
               "10000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "euler", "--poset", path)
    assert code == 2 and out == ""
    assert err == message.format(20000 * 20001 // 2 * 20000)
    code, out, err = run(capsys, "chains", "--poset", path,
                         "--from", "0", "--to", "19999")
    assert code == 2 and out == ""
    assert err == message.format(19998 * 19999 // 2 * 19998)
    assert time.perf_counter() - start < 10


def test_chains_refuses_incomparable_endpoints(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"elements": ["x", "y"], "covers": []}))
    code, out, err = run(capsys, "chains", "--poset", str(path),
                         "--from", "x", "--to", "y")
    assert code == 2 and out == ""
    assert err == "error: endpoints are incomparable\n"


def test_lattice_check(capsys, b3, tmp_path):
    code, obj, _ = run_json(capsys, "lattice-check", "--poset", b3)
    assert code == 0
    assert obj["is_lattice"] and obj["geometric"] and obj["modular"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"elements": ["0", "a", "b", "c", "d"],
         "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"],
                    ["b", "c"], ["b", "d"]]}))
    code, obj, _ = run_json(capsys, "lattice-check", "--poset", str(bad))
    assert code == 1
    assert not obj["is_lattice"] and "witness" in obj


def test_lattice_check_scans_each_side_once(capsys, b3, monkeypatch):
    # "modular" reuses the upper side that "semimodular" already scanned
    scan, sides = lattices._semimodular_side, []

    def counted(L, covers, bound):
        sides.append(bound.__name__)
        return scan(L, covers, bound)
    monkeypatch.setattr(lattices, "_semimodular_side", counted)
    code, obj, _ = run_json(capsys, "lattice-check", "--poset", b3)
    assert code == 0 and obj["semimodular"] and obj["modular"]
    assert sorted(sides) == ["join", "meet"]


def test_non_lattice_past_400_elements(capsys, tmp_path):
    # a bowtie a, b < c, d above a 500-element chain, with a top added
    chain = [f"c{i}" for i in range(500)]
    covers = [list(pair) for pair in zip(chain, chain[1:])]
    covers += [[chain[-1], "a"], [chain[-1], "b"], ["a", "c"], ["a", "d"],
               ["b", "c"], ["b", "d"], ["c", "1"], ["d", "1"]]
    path = tmp_path / "bowtie500.json"
    path.write_text(json.dumps({"elements": chain + ["a", "b", "c", "d", "1"],
                                "covers": covers}))
    code, obj, _ = run_json(capsys, "lattice-check", "--poset", str(path))
    assert code == 1
    assert obj == {"schema": 1, "is_lattice": False, "pass": False,
                   "witness": "no least upper bound for witness pair "
                              "('a', 'b')"}
    code, out, err = run(capsys, "whitney", "--poset", str(path))
    assert code == 2 and out == ""
    assert "not a lattice" in err and "Traceback" not in err


def test_weisner(capsys, b3):
    code, obj, _ = run_json(capsys, "weisner", "--poset", b3)
    assert code == 0 and obj["pass"] and obj["checked"] == 7
    code, obj, _ = run_json(capsys, "weisner", "--poset", b3,
                            "--element", "12")
    assert code == 0 and obj["checked"] == 1


def test_cutset(capsys, b3):
    code, obj, _ = run_json(capsys, "cutset", "--poset", b3)
    assert code == 0 and obj["pass"]
    assert obj["mu"] == -1 and sorted(obj["cutset"]) == ["1", "2", "3"]
    code, obj, _ = run_json(capsys, "cutset", "--poset", b3,
                            "--cutset", "12,13,23")
    assert code == 0 and obj["mu"] == -1
    code, _, err = run(capsys, "cutset", "--poset", b3, "--cutset", "1")
    assert code == 2


def test_cutset_maps_labels_once(capsys, b3, monkeypatch):
    # the str -> index map is built once per call, not once per token
    by_str, maps = cli._by_str, []
    monkeypatch.setattr(cli, "_by_str", lambda P: maps.append(1) or by_str(P))
    code, obj, _ = run_json(capsys, "cutset", "--poset", b3,
                            "--cutset", "12,13,23")
    assert code == 0 and obj["mu"] == -1 and len(maps) == 1


def test_cutset_refuses_non_crosscut(capsys, tmp_path):
    # a cutset with comparable elements, and the top of B_2, once reported
    # false identity failures (exit 1)
    d60 = tmp_path / "d60.json"
    code, out, _ = run(capsys, "gen", "--family", "divisor", "--n", "60")
    d60.write_text(out)
    code, out, err = run(capsys, "cutset", "--poset", str(d60),
                         "--cutset", "2,3,12,20,30")
    assert (code, out) == (2, "")
    assert err == "error: not a crosscut: '2' < '12'\n"
    b2 = tmp_path / "b2.json"
    code, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "2")
    b2.write_text(out)
    code, out, err = run(capsys, "cutset", "--poset", str(b2),
                         "--cutset", "12")
    assert (code, out) == (2, "")
    assert err == "error: not a crosscut: '12' is the top element\n"
    code, _, err = run(capsys, "cutset", "--poset", str(b2),
                       "--cutset", ",1")
    assert code == 2 and "'' is the bottom element" in err


def test_cutset_refusal_names_integer_labels(capsys, tmp_path):
    # a divisor lattice has integer labels; the untouched chain is named
    # with them, not raised as a TypeError
    d12 = tmp_path / "d12.json"
    code, out, _ = run(capsys, "gen", "--family", "divisor", "--n", "12")
    d12.write_text(out)
    code, out, err = run(capsys, "cutset", "--poset", str(d12),
                         "--cutset", "2")
    assert (code, out) == (2, "")
    assert err == ("error: not a cutset; untouched maximal chain: "
                   "1 < 3 < 6 < 12\n")


def rank_two(k):
    """0 < a0, ..., a(k-1) < 1 as poset JSON: k atoms that are coatoms."""
    atoms = [f"a{i}" for i in range(k)]
    return json.dumps({"elements": ["0"] + atoms + ["1"],
                       "covers": [["0", a] for a in atoms]
                       + [[a, "1"] for a in atoms]})


def test_cutset_of_many_atoms(capsys, tmp_path):
    # 23 atoms: 2^23 subsets, summed in well under a second, with or
    # without --cutset
    path = tmp_path / "m23.json"
    path.write_text(rank_two(23))
    cut = ",".join(f"a{i}" for i in range(23))
    start = time.perf_counter()
    for extra in ([], ["--cutset", cut]):
        code, obj, _ = run_json(capsys, "cutset", "--poset", str(path),
                                *extra)
        assert code == 0 and obj["mu"] == obj["mu_matrix"] == 22
    assert time.perf_counter() - start < 1


def test_chromatic(capsys, tmp_path):
    gpath = tmp_path / "k3.txt"
    gpath.write_text("0 1\n1 2\n0 2  # triangle\n")
    code, obj, _ = run_json(capsys, "chromatic", "--graph", str(gpath))
    assert code == 0 and obj["pass"]
    assert obj["coefficients"] == [0, 2, -3, 1]


def test_chromatic_bad_graph(capsys, tmp_path):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("0 1 2\n")
    code, _, err = run(capsys, "chromatic", "--graph", str(gpath))
    assert code == 2 and "line 1" in err


@pytest.mark.parametrize("token", ["2_0", "+1", "\u0663", "\uff11"])
def test_graph_vertices_are_plain_decimals(capsys, tmp_path, token):
    gpath = tmp_path / "bad.txt"
    gpath.write_text(f"0 1\n1 {token}\n", encoding="utf-8")
    assert run(capsys, "chromatic", "--graph", str(gpath)) == (
        2, "", f"error: {gpath}: line 2: vertices must be integers\n")


def test_graph_negative_vertex_is_missing(capsys, tmp_path):
    gpath = tmp_path / "neg.txt"
    gpath.write_text("0 -1\n")
    assert run(capsys, "chromatic", "--graph", str(gpath)) == (
        2, "", f"error: {gpath}: edge (0,-1) references a missing vertex\n")


def test_charpoly_and_whitney(capsys, b3):
    code, obj, _ = run_json(capsys, "charpoly", "--poset", b3)
    assert code == 0
    assert obj["coefficients"] == [-1, 3, -3, 1]
    code, obj, _ = run_json(capsys, "whitney", "--poset", b3)
    assert code == 0
    assert obj["counts"] == [1, 3, 3, 1]
    assert obj["rank_sums"] == [1, -3, 3, -1]
    code, out, _ = run(capsys, "whitney", "--poset", b3, "--csv")
    assert out.splitlines()[0] == "rank,count,rank_sum"


def test_tree_random(capsys):
    code, obj, _ = run_json(capsys, "tree", "--n", "6", "--seed", "1")
    assert code == 0 and obj["pass"]
    assert obj["det"] == obj["closed_form"] == -80
    assert obj["inverse_verified"]


def test_tree_from_file(capsys, tmp_path):
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(
        {"n": 4, "root": 0, "parent": [None, 0, 0, 0]}))
    code, obj, _ = run_json(capsys, "tree", "--tree", str(tpath))
    assert code == 0 and obj["n"] == 4 and obj["det"] == -12


def test_nulldesign(capsys, b3, tmp_path):
    fpath = tmp_path / "f.json"
    values = {"": 1, "1": -1, "2": -1, "3": -1,
              "12": 1, "13": 1, "23": 1, "123": -1}
    fpath.write_text(json.dumps(values))
    code, obj, _ = run_json(capsys, "nulldesign", "--poset", b3,
                            "--function", str(fpath))
    assert code == 0 and obj["pass"]
    assert obj["strength"] == 2
    assert obj["support"] == 8 and obj["bound"] == 8


def test_verify_all(capsys):
    code, out, err = run(capsys, "verify-all", "--seed", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] and len(obj["results"]) == 20
    assert err.count("pass") >= 20


def test_verify_all_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-all", "--seed", "3")
    _, out2, _ = run(capsys, "verify-all", "--seed", "3")
    assert out1 == out2


def test_missing_file(capsys):
    code, _, err = run(capsys, "mu", "--poset", "/nonexistent.json",
                       "--from", "", "--to", "1")
    assert code == 2 and "error" in err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n")
    code, _, err = run(capsys, "mu", "--poset", str(path),
                       "--from", "", "--to", "1")
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("elements, covers, message", [
    # the first three messages are the ones printed before entries were
    # checked one by one, kept byte for byte
    ("abc", [["a", "z"]], "unknown label 'z' in covers"),
    ("abc", [["a", "b"], ["b", "b"]], "cycle detected: b < b"),
    ("abc", [["a", "b"], ["b", "c"], ["c", "b"]],
     "cycle detected: b < c < b"),
    ("abc", [["a", "b"], 5], "covers[1] is not a pair of labels"),
    ("abc", [["a"]], "covers[0] is not a pair of labels"),
    ("abc", [["a", "b", "c"]], "covers[0] is not a pair of labels"),
    # a two-letter string once unpacked as the pair b < c
    ("abc", [["a", "b"], "bc"], "covers[1] is not a pair of labels"),
    ("abc", [["a", ["b"]]], "covers[0] holds an unhashable label ['b']"),
    ("abc", 5, "'covers' is not a list of pairs"),
    # the unplaced element with the smallest index, c, lies past the
    # cycle and has no successor
    ("cab", [["a", "b"], ["b", "a"], ["b", "c"]],
     "cycle detected: a < b < a"),
    # every pair is read before the cycle is looked for
    ("abc", [["a", "b"], ["b", "a"], ["a", "z"]],
     "unknown label 'z' in covers"),
    ("abc", [["a", "z"], "bc"], "unknown label 'z' in covers"),
    ("abc", [[]], "covers[0] is not a pair of labels"),
    ("abc", [["a", "b"], ["b", "a"], 7], "covers[2] is not a pair of labels"),
    ("abc", {"a": "b"}, "'covers' is not a list of pairs"),
])
def test_bad_covers_named(capsys, tmp_path, elements, covers, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": list(elements),
                                "covers": covers}))
    assert run(capsys, "invert", "--poset", str(path)) == (
        2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("elements, message", [
    (5, "'elements' is not a list of labels"),
    ("abc", "'elements' is not a list of labels"),
    ({"a": 1}, "'elements' is not a list of labels"),
    ([[1], 2], "elements[0] is an unhashable label [1]"),
    (["a", {"b": 1}], "elements[1] is an unhashable label {'b': 1}"),
    (["a", "a"], "duplicate label 'a'"),
    (["a", "a", [1]], "duplicate label 'a'"),
    ([[1], "a", "a"], "elements[0] is an unhashable label [1]"),
    ([1, True], "duplicate label True"),
])
def test_bad_elements_named(capsys, tmp_path, elements, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": elements, "covers": []}))
    assert run(capsys, "invert", "--poset", str(path)) == (
        2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("body", [5, "elements covers", [["a"], []]])
def test_poset_json_not_an_object(capsys, tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert run(capsys, "invert", "--poset", str(path)) == (
        2, "", f"error: {path}: poset JSON is not an object\n")


@pytest.mark.parametrize("body, message", [
    ([None], "tree JSON is not an object"),
    ({"root": 0, "parent": [None]}, "missing 'n'"),
    ({"n": 1, "parent": [None]}, "missing 'root'"),
    ({"n": 1, "root": 0}, "missing 'parent'"),
    ({"n": 1, "root": 0, "parent": {"0": None}}, "'parent' is not a list"),
    ({"n": 2, "root": 0, "parent": [None, None]},
     "bad parent None for vertex 1"),
])
def test_bad_tree_named(capsys, tmp_path, body, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(body))
    assert run(capsys, "tree", "--tree", str(path)) == (
        2, "", f"error: {path}: {message}\n")


def test_gen_random_graph_refuses_negative_edges(capsys):
    assert run(capsys, "gen", "--family", "random-graph", "--n", "4",
               "--edges", "-1") == (
        2, "", "error: edge count must be nonnegative\n")


# The child processes below import mobiuslab from the same place as this
# test process, installed or not, whatever directory pytest started in.
def child_env():
    paths = [str(Path(mobiuslab.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


# What the wrapper that `pip install` generates for `[project.scripts]` does.
CONSOLE_SCRIPT = ("import sys; from mobiuslab.cli import console_entry; "
                  "sys.exit(console_entry())")


def run_child(tmp_path, *argv):
    return subprocess.run(argv, capture_output=True, cwd=tmp_path,
                          env=child_env(), timeout=120)


def test_console_script_runs(tmp_path):
    r = run_child(tmp_path, sys.executable, "-c", CONSOLE_SCRIPT,
                  "gen", "--family", "chain", "--n", "2")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert len(obj["elements"]) == 3


def test_module_entry_runs(tmp_path, capsys):
    argv = ["gen", "--family", "chain", "--n", "2"]
    code, out, _ = run(capsys, *argv)
    r = run_child(tmp_path, sys.executable, "-m", "mobiuslab", *argv)
    assert r.returncode == code == 0
    assert r.stdout == out.encode()

    code, _, _ = run(capsys, "gen", "--family", "nope")
    r = run_child(tmp_path, sys.executable, "-m", "mobiuslab",
                  "gen", "--family", "nope")
    assert r.returncode == code == 2
    assert r.stdout == b""
    assert b"error:" in r.stderr and b"Traceback" not in r.stderr


def test_pyproject_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mobiuslab"]
    assert target == "mobiuslab.cli:console_entry"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.skipif(shutil.which("mobiuslab") is None,
                    reason="the mobiuslab script is not installed")
def test_installed_script_runs(tmp_path):
    r = run_child(tmp_path, "mobiuslab", "gen", "--family", "chain",
                  "--n", "2")
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["elements"]) == 3


def test_closed_stdout_exits_quietly(tmp_path):
    # About 110 kB of JSON: more than a pipe holds, so the child is still
    # writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "mobiuslab", "gen", "--family", "boolean",
         "--n", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env=child_env())
    assert proc.stdout.read(20) == b'{"schema": 1, "eleme'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert b"Traceback" not in err and b"Error" not in err


def test_gen_chain_size_guard(tmp_path):
    r = run_child(tmp_path, sys.executable, "-m", "mobiuslab", "gen",
                  "--family", "chain", "--n", "1000000000")
    assert r.returncode == 2 and r.stdout == b""
    assert r.stderr == (b"error: chain: estimated size 1000000001 exceeds "
                        b"limit 20000\n")


def test_tree_size_guard(tmp_path):
    message = b"tree: estimated size 1000000 exceeds limit 300\n"
    r = run_child(tmp_path, sys.executable, "-m", "mobiuslab", "tree",
                  "--n", "1000000")
    assert r.returncode == 2 and r.stdout == b""
    assert r.stderr == b"error: " + message
    r = run_child(tmp_path, sys.executable, "-m", "mobiuslab", "gen",
                  "--family", "random-tree", "--n", "1000000")
    assert r.returncode == 2 and r.stderr == b"error: " + message
    tpath = tmp_path / "star.json"
    tpath.write_text(json.dumps({"n": 301, "root": 0,
                                 "parent": [None] + [0] * 300}))
    r = run_child(tmp_path, sys.executable, "-m", "mobiuslab", "tree",
                  "--tree", str(tpath))
    assert r.returncode == 2 and b"estimated size 301 exceeds limit 300" \
        in r.stderr and b"Traceback" not in r.stderr


def test_poset_input_size_guard(tmp_path):
    # refused before the order masks are built: an antichain of 10^5
    # elements alone would take about 1.2 GB of masks
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps({"elements": list(range(100001)),
                                "covers": []}))
    r = run_child(tmp_path, sys.executable, "-m", "mobiuslab", "mu",
                  "--poset", str(path), "--from", "0", "--to", "1")
    assert r.returncode == 2 and r.stdout == b""
    assert r.stderr == (f"error: {path}: poset: estimated size 100001 "
                        "exceeds limit 100000\n").encode()


@pytest.mark.parametrize("family, n", [("subspace", "-1"),
                                       ("random-graph", "-2")])
def test_gen_negative_size(capsys, family, n):
    code, out, err = run(capsys, "gen", "--family", family, "--n", n)
    assert (code, out, err) == (2, "", "error: n must be nonnegative\n")


@pytest.mark.parametrize("argv, message", [
    (["--family", "random-poset", "--n", "2001"],
     "random_poset: estimated size 2001000 exceeds limit 2000000"),
    (["--family", "random-graph", "--n", "2001"],
     "random_graph: estimated size 2001000 exceeds limit 2000000"),
    (["--family", "contraction", "--graph", "k13.txt"],
     "contraction_lattice: estimated size 27644437 exceeds limit 5000000"),
])
def test_gen_refuses_before_enumerating(capsys, tmp_path, monkeypatch,
                                        argv, message):
    # 13 vertices have Bell(13) partitions; the random families visit
    # n(n-1)/2 pairs
    monkeypatch.chdir(tmp_path)
    Path("k13.txt").write_text("".join(f"{u} {v}\n" for u in range(13)
                                       for v in range(u + 1, 13)))
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gen_contraction_refuses_past_kept_flats(capsys, tmp_path,
                                                 monkeypatch):
    # K_12 passes the Bell(12) pre-guard; its growth stops at the first
    # flat past 10^5
    monkeypatch.chdir(tmp_path)
    Path("k12.txt").write_text("".join(f"{u} {v}\n" for u in range(12)
                                       for v in range(u + 1, 12)))
    code, out, err = run(capsys, "gen", "--family", "contraction",
                         "--graph", "k12.txt")
    assert (code, out, err) == (2, "", "error: contraction_lattice: "
                                "estimated size 100001 exceeds limit 100000\n")


def test_verify_all_reports_tree_failure(capsys, monkeypatch):
    right = treedist.scaled_distance_inverse

    def moved(T):
        S = right(T)
        S[0][-1] -= 1
        return S
    monkeypatch.setattr(treedist, "scaled_distance_inverse", moved)
    code, out, err = run(capsys, "verify-all", "--seed", "0")
    assert code == 1
    results = {r["name"]: r["pass"] for r in json.loads(out)["results"]}
    assert results.pop("tree distance identities") is False
    assert all(results.values())
    assert "FAIL" in err


def test_verify_all_reports_whitney_failure(capsys, monkeypatch):
    right = matroid.whitney_rank_sums

    def shifted(L):
        w = right(L)
        if L.n == 52:
            # only Pi_5, the broken-circuit check's lattice, is shifted:
            # the chromatic check's graphs give smaller lattices
            w[-1] += 1
        return w
    monkeypatch.setattr(matroid, "whitney_rank_sums", shifted)
    code, out, err = run(capsys, "verify-all", "--seed", "0")
    assert code == 1
    results = {r["name"]: r["pass"] for r in json.loads(out)["results"]}
    assert results.pop("broken-circuit counts") is False
    assert all(results.values())


# The parser is built once per import; every call to main reuses it.

def test_main_looks_handlers_up_by_name(capsys, b3, monkeypatch):
    calls = []
    right = cli.cmd_whitney

    def wrapper(args, L):
        calls.append(L.n)
        return right(args, L)
    monkeypatch.setattr(cli, "cmd_whitney", wrapper)
    code, obj, _ = run_json(capsys, "whitney", "--poset", b3)
    assert code == 0 and obj["counts"] == [1, 3, 3, 1]
    assert calls == [8]


def test_calls_in_one_process_match_fresh_processes(capsys, b3, tmp_path,
                                                    monkeypatch):
    # help, a usage error, bad input and a good call, in that order, each
    # against the same call alone in a new process
    calls = [["--help"],
             ["invert", "--poset", b3, "--direction", "sideways"],
             ["mu", "--poset", str(tmp_path / "none.json"), "--from", "",
              "--to", "1"],
             ["mu", "--poset", b3, "--from", "", "--to", "123"]]
    monkeypatch.setenv("COLUMNS", "80")
    here = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in here] == [0, 2, 2, 0]
    env = {**child_env(), "COLUMNS": "80"}
    for argv, (code, out, err) in zip(calls, here):
        r = subprocess.run([sys.executable, "-m", "mobiuslab", *argv],
                           capture_output=True, cwd=tmp_path, env=env,
                           timeout=120)
        assert (r.returncode, r.stdout.decode(), r.stderr.decode()) == (
            code, out, err)


def test_main_builds_no_parser(capsys, b3, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "gen", "--family", "chain", "--n", "2")[0] == 0
    assert run(capsys, "euler", "--poset", b3)[0] == 0
    assert run(capsys, "gen", "--n", "x")[0] == 2
    assert built == []


def _row_argvs():
    """For each row of the command table, its shortest command line and
    one that gives every flag."""
    for name, _, kind, _, options in cli._COMMANDS:
        given = [] if kind is None else [
            "--graph" if kind == "graph" else "--poset", "in.json"]
        needed, every = [name, *given], [name, *given]
        for flag, keywords in options.items():
            if keywords.get("action") == "store_true":
                every.append(flag)
                continue
            value = {int: "3", float: "0.5"}.get(keywords.get("type"), "a")
            value = keywords.get("choices", [value])[-1]
            every += [flag, value]
            if keywords.get("required"):
                needed += [flag, value]
        yield needed
        yield every


_PARSE_CASES = [*_row_argvs(),
                [], ["-h"], ["--help"], ["tree", "-h"], ["cutset", "--help"],
                ["-h", "tree"], ["nope"], ["nope", "--n", "4"],
                ["tree", "--n", "4", "--det"], ["tree", "tree"],
                ["tree", "--se", "3"], ["weisner", "--poset", "p", "--el",
                                        "a"],
                ["gen", "--family=chain", "--n=4"],
                ["tree", "--", "--n", "4"], ["tree", "--n", "4", "--"],
                ["--", "tree"], ["gen", "--family", "chain", "--n", "-3"],
                ["tree", "--n", "x"], ["gen", "--family", "chain", "--q"],
                ["invert", "--poset", "p", "--direction", "sideways"],
                ["mu", "--poset", "p", "--from", "a"],
                ["tree", "--n", "4", "--n", "5"]]


def _parse_outcome(parse, argv):
    """(namespace, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = parse(list(argv))
        except SystemExit as e:
            code = e.code
    return namespace, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_subcommand_parse_equals_the_whole_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert (_parse_outcome(cli._parse, argv)
            == _parse_outcome(cli._PARSER.parse_args, argv))


def test_parse_cases_reach_each_outcome():
    outcomes = [_parse_outcome(cli._PARSER.parse_args, argv)[:2]
                for argv in _PARSE_CASES]
    assert {code for _, code in outcomes} == {None, 0, 2}
    commands = {ns.command for ns, _ in outcomes if ns is not None}
    assert commands == {row[0] for row in cli._COMMANDS}


def test_a_whole_command_line_is_read_by_its_own_parser(monkeypatch):
    monkeypatch.setattr(cli._PARSER, "parse_args", None)
    for argv in _row_argvs():
        assert cli._parse(argv).command == argv[0]
