"""Byte-identity of the CLI: stdout, stderr and exit code of every case
below against SHA-256 digests kept in golden_cli.json.

The digests pin the exact bytes, so a change to any algorithm under the
CLI that alters an output, an error message or an exit code fails here.
Record them again only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from mobiuslab import cli
from mobiuslab.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# posets written by hand: a bowtie (not a lattice), the pentagon N5 (a
# lattice that is not ranked), a poset with two minimal elements and a
# ranked lattice whose mu(0, 1) is 0
_HAND = {
    "bowtie": {"elements": ["0", "a", "b", "c", "d", "1"],
               "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"],
                          ["b", "c"], ["b", "d"], ["c", "1"], ["d", "1"]]},
    "pentagon": {"elements": ["0", "a", "b", "c", "1"],
                 "covers": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"],
                            ["c", "1"]]},
    "vee": {"elements": ["x", "y", "z"], "covers": [["x", "z"], ["y", "z"],
                                                    ["x", "z"]]},
    "mu_zero": {"elements": ["0", "a", "b", "c", "1"],
                "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["b", "c"],
                           ["c", "1"]]},
}
_FILES = {
    "c4.txt": "0 1\n1 2\n2 3\n3 0\n",
    "k4.txt": "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    # vertex 1 is isolated
    "isolated.txt": "0 2\n",
    "two_edges.txt": "0 1\n2 3\n",
    "tree5.json": json.dumps({"n": 5, "root": 0,
                              "parent": [None, 0, 0, 1, 1]}),
    "g_b3.json": json.dumps({lab: (-1) ** len(lab) for lab in
                             ["", "1", "2", "3", "12", "13", "23", "123"]}),
    "g_r12.json": json.dumps({str(i): (i * 7) % 5 - 2 for i in range(12)}),
}

# (case name, argv, name of the input file its stdout becomes or None);
# "@x" in argv stands for the path of input file x
_GEN = [
    ("gen boolean 3", ["gen", "--family", "boolean", "--n", "3"], "b3"),
    ("gen boolean 0", ["gen", "--family", "boolean", "--n", "0"], None),
    ("gen boolean 5", ["gen", "--family", "boolean", "--n", "5"], "b5"),
    ("gen chain 6", ["gen", "--family", "chain", "--n", "6"], "c6"),
    ("gen divisor 60", ["gen", "--family", "divisor", "--n", "60"], "d60"),
    ("gen subspace 2 3", ["gen", "--family", "subspace", "--q", "2",
                          "--n", "3"], "l32"),
    ("gen subspace 3 2", ["gen", "--family", "subspace", "--q", "3",
                          "--n", "2"], "l23"),
    ("gen partition 4", ["gen", "--family", "partition", "--n", "4"], "p4"),
    ("gen partition 5", ["gen", "--family", "partition", "--n", "5"], "p5"),
    ("gen contraction c4", ["gen", "--family", "contraction",
                            "--graph", "@c4.txt"], "cc4"),
    ("gen contraction k4", ["gen", "--family", "contraction",
                            "--graph", "@k4.txt"], None),
    ("gen random-poset 12", ["gen", "--family", "random-poset", "--n", "12",
                             "--density", "0.3", "--seed", "7"], "r12"),
    ("gen random-poset 8", ["gen", "--family", "random-poset", "--n", "8",
                            "--density", "0.5", "--seed", "3"], "r8"),
    ("gen random-poset 40", ["gen", "--family", "random-poset", "--n", "40",
                             "--density", "0.1", "--seed", "2"], "r40"),
    ("gen random-tree", ["gen", "--family", "random-tree", "--n", "9",
                         "--seed", "3"], None),
    ("gen random-graph", ["gen", "--family", "random-graph", "--n", "6",
                          "--edges", "7", "--seed", "1"], None),
    ("gen unknown family", ["gen", "--family", "nope"], None),
    ("gen contraction no graph", ["gen", "--family", "contraction"], None),
    ("gen boolean too big", ["gen", "--family", "boolean", "--n", "17"],
     None),
]

_QUERIES = [
    ("invert b3", ["invert", "--poset", "@b3"]),
    ("invert r12", ["invert", "--poset", "@r12"]),
    ("invert r40 csv", ["invert", "--poset", "@r40", "--csv"]),
    ("invert p4 csv", ["invert", "--poset", "@p4", "--csv"]),
    ("invert b3 up", ["invert", "--poset", "@b3", "--function", "@g_b3.json"]),
    ("invert b3 down", ["invert", "--poset", "@b3", "--function",
                        "@g_b3.json", "--direction", "down"]),
    ("invert r12 up", ["invert", "--poset", "@r12", "--function",
                       "@g_r12.json"]),
    ("invert r12 down", ["invert", "--poset", "@r12", "--function",
                         "@g_r12.json", "--direction", "down"]),
    ("invert b3 csv function", ["invert", "--poset", "@b3", "--function",
                                "@g_b3.json", "--csv"]),
    ("mu b3", ["mu", "--poset", "@b3", "--from", "", "--to", "123"]),
    ("mu b3 inner", ["mu", "--poset", "@b3", "--from", "1", "--to", "123"]),
    ("mu p4", ["mu", "--poset", "@p4", "--from", "0123", "--to", "0000"]),
    ("mu p5", ["mu", "--poset", "@p5", "--from", "01234", "--to", "00000"]),
    ("mu d60", ["mu", "--poset", "@d60", "--from", "2", "--to", "60"]),
    ("mu l32", ["mu", "--poset", "@l32", "--from", "", "--to",
                "100,010,001"]),
    ("mu r40", ["mu", "--poset", "@r40", "--from", "0", "--to", "39"]),
    ("mu incomparable", ["mu", "--poset", "@b3", "--from", "1", "--to",
                         "2"]),
    ("mu reversed", ["mu", "--poset", "@b3", "--from", "12", "--to", "1"]),
    ("mu unknown label", ["mu", "--poset", "@b3", "--from", "9", "--to",
                          "1"]),
    ("zeta b3", ["zeta", "--poset", "@b3"]),
    ("zeta r12 csv", ["zeta", "--poset", "@r12", "--csv"]),
    ("zeta vee", ["zeta", "--poset", "@vee"]),
    ("chains b3", ["chains", "--poset", "@b3", "--from", "", "--to", "123"]),
    ("chains r12", ["chains", "--poset", "@r12", "--from", "0", "--to",
                    "11"]),
    ("euler b3", ["euler", "--poset", "@b3"]),
    ("euler r8", ["euler", "--poset", "@r8"]),
    ("euler r12", ["euler", "--poset", "@r12"]),
    ("euler bowtie", ["euler", "--poset", "@bowtie"]),
    ("euler p4", ["euler", "--poset", "@p4"]),
    ("lattice-check b3", ["lattice-check", "--poset", "@b3"]),
    ("lattice-check b5", ["lattice-check", "--poset", "@b5"]),
    ("lattice-check p4", ["lattice-check", "--poset", "@p4"]),
    ("lattice-check d60", ["lattice-check", "--poset", "@d60"]),
    ("lattice-check l32", ["lattice-check", "--poset", "@l32"]),
    ("lattice-check l23", ["lattice-check", "--poset", "@l23"]),
    ("lattice-check c6", ["lattice-check", "--poset", "@c6"]),
    ("lattice-check cc4", ["lattice-check", "--poset", "@cc4"]),
    ("lattice-check bowtie", ["lattice-check", "--poset", "@bowtie"]),
    ("lattice-check pentagon", ["lattice-check", "--poset", "@pentagon"]),
    ("lattice-check vee", ["lattice-check", "--poset", "@vee"]),
    ("lattice-check r12", ["lattice-check", "--poset", "@r12"]),
    ("whitney b5", ["whitney", "--poset", "@b5"]),
    ("whitney p5", ["whitney", "--poset", "@p5"]),
    ("whitney l23 csv", ["whitney", "--poset", "@l23", "--csv"]),
    ("whitney pentagon", ["whitney", "--poset", "@pentagon"]),
    ("whitney bowtie", ["whitney", "--poset", "@bowtie"]),
    ("charpoly b3", ["charpoly", "--poset", "@b3"]),
    ("charpoly p4", ["charpoly", "--poset", "@p4"]),
    ("charpoly l32", ["charpoly", "--poset", "@l32"]),
    ("charpoly d60", ["charpoly", "--poset", "@d60"]),
    ("charpoly p5", ["charpoly", "--poset", "@p5"]),
    ("charpoly mu zero", ["charpoly", "--poset", "@mu_zero"]),
    ("weisner p4", ["weisner", "--poset", "@p4"]),
    ("weisner l32 one", ["weisner", "--poset", "@l32", "--element",
                         "100"]),
    ("weisner d60", ["weisner", "--poset", "@d60"]),
    ("weisner bowtie", ["weisner", "--poset", "@bowtie"]),
    ("weisner p5", ["weisner", "--poset", "@p5"]),
    # at the top element every x < 1 is a witness
    ("weisner b5 one", ["weisner", "--poset", "@b5", "--element",
                        "12345"]),
    ("cutset b3", ["cutset", "--poset", "@b3"]),
    ("cutset p4 coatoms", ["cutset", "--poset", "@p4", "--cutset",
                           "0001,0010,0100,0111,0011,0101,0110"]),
    ("cutset b3 not a cutset", ["cutset", "--poset", "@b3", "--cutset",
                                "1,2"]),
    ("chromatic c4", ["chromatic", "--graph", "@c4.txt"]),
    ("chromatic k4", ["chromatic", "--graph", "@k4.txt"]),
    ("chromatic isolated vertex", ["chromatic", "--graph",
                                   "@isolated.txt"]),
    ("chromatic disconnected", ["chromatic", "--graph", "@two_edges.txt"]),
    ("tree file", ["tree", "--tree", "@tree5.json"]),
    ("tree random", ["tree", "--n", "7", "--seed", "2"]),
    ("tree none", ["tree"]),
    ("nulldesign b3", ["nulldesign", "--poset", "@b3", "--function",
                       "@g_b3.json"]),
    ("verify-all seed 0", ["verify-all", "--seed", "0"]),
    ("verify-all seed 1", ["verify-all", "--seed", "1"]),
    ("verify-all seed 2", ["verify-all", "--seed", "2"]),
    ("verify-all seed 3", ["verify-all", "--seed", "3"]),
    ("verify-all seed 4", ["verify-all", "--seed", "4"]),
    ("no command", []),
    # help and usage errors: argparse output, pinned at 80 columns
    ("help", ["--help"]),
    ("unknown command", ["nope"]),
    ("cutset help", ["cutset", "--help"]),
    ("usage gen", ["gen", "--n", "x"]),
    ("usage mu", ["mu", "--poset", "x"]),
    ("usage zeta", ["zeta"]),
    ("usage invert", ["invert", "--poset", "x", "--direction", "sideways"]),
    ("usage chains", ["chains", "--poset", "x", "--from", "a"]),
    ("usage euler", ["euler"]),
    ("usage lattice-check", ["lattice-check"]),
    ("usage weisner", ["weisner", "--element", "1"]),
    ("usage cutset", ["cutset", "--cutset"]),
    ("usage chromatic", ["chromatic"]),
    ("usage charpoly", ["charpoly", "--poset"]),
    ("usage whitney", ["whitney", "--csv"]),
    ("usage tree", ["tree", "--n", "x"]),
    ("usage nulldesign", ["nulldesign", "--poset", "x"]),
    ("usage verify-all", ["verify-all", "--seed", "x"]),
    ("tree det", ["tree", "--n", "4", "--det"]),
    ("verify-all suite full", ["verify-all", "--suite", "full"]),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv, files):
    argv = [str(files[a[1:]]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help and usage to the terminal width
    with (redirect_stdout(out), redirect_stderr(err),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record(workdir):
    """Run every case in order, writing inputs under workdir, and return
    {case: {"exit", "stdout", "stderr"}} with SHA-256 digests."""
    workdir = Path(workdir)
    files = {}
    for name, body in _HAND.items():
        files[name] = workdir / f"{name}.json"
        files[name].write_text(json.dumps(body))
    for name, text in _FILES.items():
        files[name] = workdir / name
        files[name].write_text(text)
    digests = {}
    for name, argv, output in _GEN:
        code, out, err = _run(argv, files)
        if output is not None:
            files[output] = workdir / f"{output}.json"
            files[output].write_text(out)
        digests[name] = {"exit": code, "stdout": _sha(out),
                         "stderr": _sha(err)}
    for name, argv in _QUERIES:
        code, out, err = _run(argv, files)
        digests[name] = {"exit": code, "stdout": _sha(out),
                         "stderr": _sha(err)}
    return digests


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", [c[0] for c in _GEN + _QUERIES])
def test_cli_bytes_match_golden(recorded, case):
    want = json.loads(GOLDEN.read_text())[case]
    assert recorded[case] == want


def test_golden_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == {
        c[0] for c in _GEN + _QUERIES}


def test_golden_covers_every_command():
    used = {c[1][0] for c in _GEN + _QUERIES if c[1]}
    assert {row[0] for row in cli._COMMANDS} <= used


def test_golden_under_optimize():
    # python -O strips assert statements; no output may depend on them
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-O", __file__], capture_output=True,
                       env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(record(tmp), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
