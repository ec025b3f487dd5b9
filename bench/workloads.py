"""The three benchmark workloads: their inputs, made from the seed, and
their fixed op lists.

Every op is one `mobiuslab.cli.main(argv)` call with an expected exit
code and an oracle from `oracles`.  Structured lattices come from
`mobiuslab gen`; random orders, functions, trees and graphs come from the
benchmark's own `random.Random(seed)`, so their oracles do not trust the
program.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import oracles


class Op:
    """One CLI call: `expect` is the exit code a correct program gives, and
    `check(stdout)` returns None or the reason the output is wrong.
    `known_defect` marks the one op on which the program is known to fail
    with an error exit; the benchmark runs it once per run, untimed and
    outside the failure counts, and reports its verdict."""

    __slots__ = ("name", "argv", "expect", "check", "known_defect")

    def __init__(self, name, argv, expect, check, known_defect=False):
        self.name = name
        self.argv = argv
        self.expect = expect
        self.check = check
        self.known_defect = known_defect


def invoke(cli, argv):
    """Run `cli.main(argv)` in-process with stdout and stderr captured.
    `main` is looked up on each call, so a traced binding is used."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class SetupError(RuntimeError):
    pass


def _gen(cli, path, args, fam=None):
    rc, out, err = invoke(cli, ["gen"] + args)
    if rc != 0:
        raise SetupError(f"gen {' '.join(args)} exited {rc}: {err.strip()}")
    if fam is not None:
        reason = oracles.check_gen(fam, out)
        if reason:
            raise SetupError(reason)
    with open(path, "w") as fh:
        fh.write(out)
    return json.loads(out)["elements"]


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))


def _random_order(n, density, rng):
    """Each pair i < j is related with probability `density`; labels are a
    random permutation, listed sorted, so the input order is not a linear
    extension."""
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]
    labels = list(range(n))
    rng.shuffle(labels)
    return oracles.Order(labels, arcs), arcs


def _write_order(path, order, arcs):
    _write_json(path, {"elements": sorted(order.labels),
                       "covers": [[order.labels[i], order.labels[j]]
                                  for i, j in arcs]})


# -- lattice_check -------------------------------------------------------

def _structured():
    # B_8 is left out to keep the pass short; B_9 is the boolean lattice
    # above the 400-element eager-validation limit
    for n in (2, 3, 4, 5, 6, 7, 9):
        yield ["--family", "boolean", "--n", str(n)], oracles.boolean(n)
    for n in range(3, 8):
        yield ["--family", "partition", "--n", str(n)], oracles.partition(n)
    for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        yield (["--family", "subspace", "--n", str(n), "--q", str(q)],
               oracles.subspace(n, q))
    for m in (12, 36, 60, 210, 360, 2310, 5040, 55440):
        yield ["--family", "divisor", "--n", str(m)], oracles.divisor(m)


def _bowtie(total):
    """0 < a, b < c, d < t0 < t1 < ... : bounded, but a and b have two
    minimal upper bounds, so it is not a lattice."""
    chain = [f"t{i}" for i in range(total - 5)]
    covers = [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
              ["b", "d"], ["c", "t0"], ["d", "t0"]]
    covers += [[s, t] for s, t in zip(chain, chain[1:])]
    return {"elements": ["0", "a", "b", "c", "d"] + chain, "covers": covers}


# `lattice-check` of B_8 and Pi_7 takes seconds, which would leave too few
# samples of every op in a run; larger lattices get the other queries only
LATTICE_CHECK_MAX = 250
# single-element Weisner ops per lattice, at elements the seed picks
WEISNER_ELEMENTS = 1
# the 500-element bowtie exits 2 instead of 1 (ROADMAP item 3)
KNOWN_DEFECT = "lattice-check bowtie500"


def lattice_check(cli, rng, workdir):
    ops = []
    for args, fam in _structured():
        path = os.path.join(workdir, fam.name + ".json")
        elements = _gen(cli, path, args, fam)
        P = ["--poset", path]
        if fam.size <= LATTICE_CHECK_MAX:
            ops.append(Op(f"lattice-check {fam.name}", ["lattice-check"] + P,
                          0, partial(oracles.check_lattice, fam)))
        ops.append(Op(f"whitney {fam.name}", ["whitney"] + P, 0,
                      partial(oracles.check_whitney, fam)))
        ops.append(Op(f"charpoly {fam.name}", ["charpoly"] + P, 0,
                      partial(oracles.check_charpoly, fam)))
        if fam.size <= 400:
            ops.append(Op(f"weisner {fam.name}", ["weisner"] + P, 0,
                          partial(oracles.check_weisner, fam)))
        # Weisner at single elements the seed picks
        for element in rng.sample(elements[1:], WEISNER_ELEMENTS):
            ops.append(Op(f"weisner {fam.name} one",
                          ["weisner", "--element", str(element)] + P, 0,
                          partial(oracles.check_weisner, fam,
                                  element=str(element))))
        # the cutset sum visits every subset of the atoms
        if fam.counts[1] <= 16:
            ops.append(Op(f"cutset {fam.name}", ["cutset"] + P, 0,
                          partial(oracles.check_cutset, fam)))
    # one bowtie on each side of the 400-element eager-validation limit
    for total in (100, 500):
        path = os.path.join(workdir, f"bowtie{total}.json")
        _write_json(path, _bowtie(total))
        name = f"lattice-check bowtie{total}"
        ops.append(Op(name, ["lattice-check", "--poset", path], 1,
                      oracles.check_not_lattice,
                      known_defect=name == KNOWN_DEFECT))
    return ops


# -- mobius_invert -------------------------------------------------------

SWEEP_N = (100, 200, 300)
SWEEP_DENSITY = (0.05, 0.3)
# posets up to this size also get `invert --function` up and down
FUNCTION_MAX_N = 200
# `mu` ops, one on each of as many posets, whose sizes are spread evenly
# over MU_N at both densities, so that op times form a continuum and no
# percentile sits on the edge between two kinds of op
MU_POSETS = 88
MU_N = (100, 200)


def _random_pair(order, rng):
    """A random pair a < b of the order."""
    a = rng.choice([i for i in range(order.n) if order.up[i] != 1 << i])
    return a, rng.choice(order.members(order.up[a] & ~(1 << a)))


def mobius_invert(cli, rng, workdir):
    ops = []
    for n in SWEEP_N:
        for density in SWEEP_DENSITY:
            order, arcs = _random_order(n, density, rng)
            tag = f"{n}_{density}"
            path = os.path.join(workdir, f"poset{tag}.json")
            _write_order(path, order, arcs)
            P = ["--poset", path]
            probes = [[rng.randrange(1, 2 ** 31) for _ in range(n)],
                      [rng.randrange(-2 ** 31, 2 ** 31) for _ in range(n)]]
            ops.append(Op(f"invert {tag}", ["invert"] + P, 0,
                          partial(oracles.check_mobius_matrix, order,
                                  probes=probes)))
            if n > FUNCTION_MAX_N:
                continue
            f = [rng.randrange(-9, 10) for _ in range(n)]
            for direction, sums in (("up", order.up_sums(f)),
                                    ("down", order.down_sums(f))):
                fpath = os.path.join(workdir, f"g{direction}{tag}.json")
                _write_json(fpath, {str(lab): sums[i]
                                    for i, lab in enumerate(order.labels)})
                ops.append(Op(f"invert {direction} {tag}",
                              ["invert"] + P + ["--function", fpath,
                                                "--direction", direction],
                              0, partial(oracles.check_values, order,
                                         want=f)))
    lo, hi = MU_N
    for k in range(MU_POSETS):
        n = lo + (hi - lo) * k // (MU_POSETS - 1)
        density = SWEEP_DENSITY[k % len(SWEEP_DENSITY)]
        order, arcs = _random_order(n, density, rng)
        path = os.path.join(workdir, f"mu{k}.json")
        _write_order(path, order, arcs)
        a, b = _random_pair(order, rng)
        ops.append(Op(f"mu {n}_{density}",
                      ["mu", "--poset", path, "--from", str(order.labels[a]),
                       "--to", str(order.labels[b])],
                      0, partial(oracles.check_mu, order, a=a, b=b)))
    return ops


# -- identity_suite ------------------------------------------------------

VERIFY_ALL_SEEDS = 20
TREE_SIZES = range(20, 61, 10)
# (vertices, edges) of the connected graphs for `chromatic`.  On 8 vertices
# the contraction lattice's size, and with it the peak memory of the run,
# varies by a third from seed to seed, so the graphs stop at 7 vertices.
GRAPH_SHAPES = ((4, 3), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (5, 7),
                (5, 8), (6, 6), (6, 7), (6, 8), (6, 9), (7, 7), (7, 8),
                (7, 9), (7, 10))
# cheap ops that bring the list to at least 100, so that at least ten lie
# beyond its p90.  `euler` lists every chain: a dense 16-element poset has
# tens of thousands, which moved the run's peak memory by a fifth.
EULER_POSETS = 56
EULER_MAX_N = 12


def _random_connected_graph(n, m, rng):
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges]
    return sorted(edges | set(rng.sample(pool, m - (n - 1))))


def identity_suite(cli, rng, workdir):
    ops = []
    base = rng.randrange(10 ** 6)
    for seed in range(base, base + VERIFY_ALL_SEEDS):
        ops.append(Op("verify-all", ["verify-all", "--seed", str(seed)], 0,
                      oracles.check_verify_all))
    for n in TREE_SIZES:
        perm = list(range(n))
        rng.shuffle(perm)
        parent = [None] * n
        for v in range(1, n):
            parent[perm[v]] = perm[rng.randrange(v)]
        path = os.path.join(workdir, f"tree{len(ops)}.json")
        _write_json(path, {"n": n, "root": perm[0], "parent": parent})
        ops.append(Op(f"tree {n}", ["tree", "--tree", path], 0,
                      partial(oracles.check_tree, n)))
    for k, (n, m) in enumerate(GRAPH_SHAPES):
        edges = _random_connected_graph(n, m, rng)
        path = os.path.join(workdir, f"graph{k}.txt")
        with open(path, "w") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        ops.append(Op(f"chromatic {n}v{m}e", ["chromatic", "--graph", path],
                      0, partial(oracles.check_chromatic, n, edges)))
    for k in range(EULER_POSETS):
        n, density = 4 + k % (EULER_MAX_N - 3), (0.15, 0.3, 0.45)[k % 3]
        order, arcs = _random_order(n, density, rng)
        path = os.path.join(workdir, f"euler{k}.json")
        _write_order(path, order, arcs)
        ops.append(Op(f"euler {n}", ["euler", "--poset", path], 0,
                      partial(oracles.check_euler, order)))
    for n in range(3, 7):
        path = os.path.join(workdir, f"B_{n}.json")
        elements = _gen(cli, path, ["--family", "boolean", "--n", str(n)],
                        oracles.boolean(n))
        fpath = os.path.join(workdir, f"signs{n}.json")
        _write_json(fpath, {lab: (-1) ** len(lab) for lab in elements})
        ops.append(Op(f"nulldesign B_{n}", ["nulldesign", "--poset", path,
                                            "--function", fpath],
                      0, partial(oracles.check_nulldesign, n)))
    return ops


WORKLOADS = {"lattice_check": lattice_check, "mobius_invert": mobius_invert,
             "identity_suite": identity_suite}


def build(name, cli, seed, workdir):
    """The workload's op list, in a fixed shuffled order that is the same
    for every seed.  Ops of one kind are spread over the pass, so a burst
    of load from elsewhere on the machine slows few of them."""
    ops = WORKLOADS[name](cli, random.Random(seed), workdir)
    random.Random(0).shuffle(ops)
    return ops
