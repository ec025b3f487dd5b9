"""Self-tests for the benchmark: the closed forms agree with a second
derivation, each oracle rejects a perturbed output, and the layer
wrappers leave every output unchanged.

    python3 bench/selftest.py
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(os.path.dirname(HERE), ".bench_build", "selftest")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mobiuslab import cli  # noqa: E402


def _scratch_dir():
    """A fresh directory inside the checkout, as the benchmark uses."""
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(dir=SCRATCH)


def _bell(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _hall_mu(order, a, b):
    """Hall's theorem: mu(a,b) = sum over chains a = x0 < ... < xk = b of
    (-1)^k."""
    def chains(x):
        if x == b:
            return 1
        strictly_above = order.up[x] & order.down[b] & ~(1 << x)
        return -sum(chains(y) for y in order.members(strictly_above))
    return chains(a)


class ClosedForms(unittest.TestCase):

    def test_families(self):
        for n in range(1, 9):
            fam = oracles.boolean(n)
            self.assertEqual(fam.charpoly, oracles._poly_from_roots([1] * n))
            self.assertEqual(fam.mu, (-1) ** n)
        for n in range(2, 8):
            fam = oracles.partition(n)
            self.assertEqual(fam.size, _bell(n))
            self.assertEqual(fam.mu, (-1) ** (n - 1) * math.factorial(n - 1))
        for n, q in ((2, 2), (3, 2), (4, 2), (3, 3), (2, 5)):
            fam = oracles.subspace(n, q)
            self.assertEqual(fam.charpoly, oracles._poly_from_roots(
                [q ** i for i in range(n)]))
            self.assertEqual(fam.mu, (-1) ** n * q ** math.comb(n, 2))
        for m in (1, 12, 30, 360, 55440):
            fam = oracles.divisor(m)
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            self.assertEqual(fam.size, len(divisors))
            self.assertEqual(sum(fam.counts), fam.size)

    def test_order_mu_matches_hall_chain_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            order, _ = workloads._random_order(9, rng.random(), rng)
            for a in range(order.n):
                for b in order.members(order.up[a]):
                    self.assertEqual(order.mu(a, b), _hall_mu(order, a, b))


class OraclesReject(unittest.TestCase):
    """Every oracle accepts the program's real output and rejects it once
    one value is changed."""

    def setUp(self):
        self.dir = _scratch_dir()
        self.rng = random.Random(11)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def accepted(self, argv, check, expect=0):
        rc, out, err = workloads.invoke(cli, argv)
        self.assertEqual(rc, expect, err)
        self.assertIsNone(check(out))
        return json.loads(out)

    def assert_rejects(self, check, body):
        self.assertIsNotNone(check(json.dumps(body)))

    def order(self, n, density):
        order, arcs = workloads._random_order(n, density, self.rng)
        path = os.path.join(self.dir, f"order{n}.json")
        workloads._write_order(path, order, arcs)
        return order, path

    def gen(self, args, fam):
        path = os.path.join(self.dir, fam.name + ".json")
        workloads._gen(cli, path, args, fam)
        return path

    def test_flipped_mobius_entry(self):
        order, path = self.order(30, 0.2)
        probes = [[self.rng.randrange(1, 2 ** 31) for _ in range(30)]]
        check = partial(oracles.check_mobius_matrix, order, probes=probes)
        body = self.accepted(["invert", "--poset", path], check)
        index = {str(lab): i for i, lab in enumerate(order.labels)}
        pos = [index[e] for e in body["elements"]]
        M = body["mobius"]
        pairs = [(k, l) for k in range(30) for l in range(30)
                 if k != l and order.up[pos[k]] >> pos[l] & 1]
        for k, l in (pairs[0], pairs[-1], (0, 0), (29, 0)):
            M[k][l] += 1
            self.assert_rejects(check, body)
            M[k][l] -= 1
        self.assertIsNone(check(json.dumps(body)))

    def test_inverted_function_and_mu(self):
        order, path = self.order(25, 0.3)
        f = [self.rng.randrange(-9, 10) for _ in range(25)]
        gpath = os.path.join(self.dir, "g.json")
        workloads._write_json(gpath, {str(lab): v for lab, v in
                                      zip(order.labels, order.up_sums(f))})
        check = partial(oracles.check_values, order, want=f)
        body = self.accepted(["invert", "--poset", path, "--function", gpath],
                             check)
        body["values"][str(order.labels[3])] += 1
        self.assert_rejects(check, body)
        a = next(i for i in range(25) if order.up[i] != 1 << i)
        b = order.members(order.up[a])[-1]
        check = partial(oracles.check_mu, order, a=a, b=b)
        body = self.accepted(["mu", "--poset", path, "--from",
                              str(order.labels[a]), "--to",
                              str(order.labels[b])], check)
        body["mu"] += 1
        self.assert_rejects(check, body)

    def test_wrong_whitney_count_and_lattice_outputs(self):
        fam = oracles.partition(4)
        path = self.gen(["--family", "partition", "--n", "4"], fam)
        P = ["--poset", path]
        body = self.accepted(["whitney"] + P,
                             partial(oracles.check_whitney, fam))
        body["counts"][1] += 1
        self.assert_rejects(partial(oracles.check_whitney, fam), body)
        body = self.accepted(["lattice-check"] + P,
                             partial(oracles.check_lattice, fam))
        body["modular"] = True
        self.assert_rejects(partial(oracles.check_lattice, fam), body)
        body = self.accepted(["charpoly"] + P,
                             partial(oracles.check_charpoly, fam))
        body["coefficients"][0] += 1
        self.assert_rejects(partial(oracles.check_charpoly, fam), body)
        body = self.accepted(["weisner"] + P,
                             partial(oracles.check_weisner, fam))
        body["reports"][2]["lhs"] = body["reports"][2]["rhs"] = 0
        self.assert_rejects(partial(oracles.check_weisner, fam), body)
        body = self.accepted(["cutset"] + P,
                             partial(oracles.check_cutset, fam))
        body["mu_matrix"] += 1
        self.assert_rejects(partial(oracles.check_cutset, fam), body)

    def test_identity_outputs(self):
        body = self.accepted(["verify-all", "--seed", "3"],
                             oracles.check_verify_all)
        body["results"][4]["pass"] = False
        self.assert_rejects(oracles.check_verify_all, body)

        path = os.path.join(self.dir, "tree.json")
        workloads._write_json(path, {"n": 6, "root": 2,
                                     "parent": [2, 0, None, 2, 3, 3]})
        body = self.accepted(["tree", "--tree", path],
                             partial(oracles.check_tree, 6))
        body["det"] = body["closed_form"] = body["det"] + 1
        self.assert_rejects(partial(oracles.check_tree, 6), body)

        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        path = os.path.join(self.dir, "graph.txt")
        with open(path, "w") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        check = partial(oracles.check_chromatic, 4, edges)
        body = self.accepted(["chromatic", "--graph", path], check)
        body["coefficients"][1] += 1
        body["oracle"] = body["coefficients"]
        self.assert_rejects(check, body)

        order, path = self.order(8, 0.3)
        check = partial(oracles.check_euler, order)
        body = self.accepted(["euler", "--poset", path], check)
        body["euler_characteristic"] += 1
        self.assert_rejects(check, body)

        fam = oracles.boolean(3)
        path = self.gen(["--family", "boolean", "--n", "3"], fam)
        fpath = os.path.join(self.dir, "signs.json")
        workloads._write_json(fpath, {lab: (-1) ** len(lab) for lab in
                                      ["", "1", "2", "3", "12", "13", "23",
                                       "123"]})
        check = partial(oracles.check_nulldesign, 3)
        body = self.accepted(["nulldesign", "--poset", path, "--function",
                              fpath], check)
        body["bound"] -= 1
        self.assert_rejects(check, body)

    def test_exit_codes(self):
        answer = json.dumps({"is_lattice": False, "pass": False})
        lattice = json.dumps({"is_lattice": True, "pass": True})
        for known_defect in (False, True):
            op = workloads.Op("bowtie", [], 1, oracles.check_not_lattice,
                              known_defect)
            error = "defect" if known_defect else "wrong"
            self.assertEqual(run.judge(op, 1, answer), ("ok", None))
            self.assertEqual(run.judge(op, 2, "")[0], error)
            self.assertEqual(run.judge(op, None, "")[0], error)
            self.assertEqual(run.judge(op, 0, answer)[0], "wrong")
            self.assertEqual(run.judge(op, 1, lattice)[0], "wrong")
            self.assertEqual(run.judge(op, 1, "[]")[0], "wrong")

    def tally(self, op, rc, out):
        tally = run.Tally(1)
        tally.record(0, op, 0.001, *run.judge(op, rc, out))
        return tally

    def test_error_exit_makes_result_incorrect(self):
        """Exit 2 or an exception on an op that should exit 0 fails it and
        is a wrong answer; on the known-defect op it only fails it."""
        answer = json.dumps({"results": [{"name": str(k), "pass": True}
                                         for k in range(20)], "pass": True})
        op = workloads.Op("verify-all", [], 0, oracles.check_verify_all)
        for rc in (2, None):
            tally = self.tally(op, rc, "")
            self.assertEqual((tally.failed, tally.wrong), (1, 1))
        defect = workloads.Op("bowtie", [], 1, oracles.check_not_lattice,
                              known_defect=True)
        tally = self.tally(defect, 2, "")
        self.assertEqual((tally.failed, tally.wrong), (1, 0))
        self.assertEqual(self.tally(op, 0, answer).failed, 0)

    def test_only_the_500_element_bowtie_is_a_known_defect(self):
        workdir = _scratch_dir()
        try:
            ops = workloads.build("lattice_check", cli, 1, workdir)
        finally:
            shutil.rmtree(workdir)
        self.assertEqual([op.name for op in ops if op.known_defect],
                         [workloads.KNOWN_DEFECT])

    def test_known_defect_runs_once_outside_the_counts(self):
        """One pass of lattice_check: no op fails, and the known defect is
        reported on its own line.  Run in a child process, since a run
        imports mobiuslab afresh."""
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "lattice_check", "--seed", "1", "--seconds", "0", "--trace",
             "0"], capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertIn(f"known_defect {workloads.KNOWN_DEFECT}: defect: "
                      "exit 2", lines)


class Wrappers(unittest.TestCase):

    def test_outputs_unchanged_and_bindings_restored(self):
        workdir = _scratch_dir()
        try:
            ops = self._small_ops(workdir)
            before = self._bindings()
            plain = [workloads.invoke(cli, op.argv) for op in ops]
            tracer = layertrace.Tracer()
            with tracer:
                self.assertNotEqual(self._bindings(), before)
                traced = [workloads.invoke(cli, op.argv) for op in ops]
            self.assertEqual(self._bindings(), before)
        finally:
            shutil.rmtree(workdir)
        for op, a, b in zip(ops, plain, traced):
            self.assertEqual(a, b, op.name)
            self.assertEqual(run.judge(op, *a[:2]), ("ok", None), op.name)
        layers = {tracer.layers[i] for i in tracer.span_name}
        for layer in run.SELF_TIMES:
            if layer not in ("posets.other", "lattices.other"):
                self.assertIn(layer, layers)
        self.assertGreater(tracer.counts["lattices.join_meet.calls"], 0)
        self.assertGreater(tracer.counts["posets.mobius_idx.calls"], 0)

    def _small_ops(self, workdir):
        """A few ops of each workload, cut to small sizes."""
        rng = random.Random(2)
        lattice = [op for op in workloads.lattice_check(cli, rng, workdir)
                   if op.name.endswith(("B_3", "Pi_4", "bowtie100"))]
        identity = workloads.identity_suite(cli, rng, workdir)
        identity = ([op for op in identity if op.name == "verify-all"][:2]
                    + [op for op in identity
                       if op.name in ("tree 20", "chromatic 5v5e",
                                      "euler 6", "nulldesign B_3")])
        order, arcs = workloads._random_order(40, 0.2, rng)
        path = os.path.join(workdir, "order.json")
        workloads._write_order(path, order, arcs)
        invert = [workloads.Op("invert", ["invert", "--poset", path], 0,
                               partial(oracles.check_mobius_matrix, order,
                                       probes=[[1] * 40]))]
        return lattice + identity + invert

    @staticmethod
    def _bindings():
        out = {}
        for mod in layertrace.Tracer.modules():
            for name, obj in vars(mod).items():
                out[mod.__name__, name] = id(obj)
                if isinstance(obj, type):
                    for attr, value in vars(obj).items():
                        out[mod.__name__, name, attr] = id(value)
        return out


class Contract(unittest.TestCase):

    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         dict(run.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
