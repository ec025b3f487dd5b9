"""Command-line front end: generate instances, compute Mobius data, and
run identity-verification suites with deterministic JSON output."""

import argparse
import json
import os
import random
import sys

from . import complexes, instances, inversion, lattices, matroid
from . import nulldesigns, treedist
from .lattices import Lattice, LatticeError
from .posets import (Poset, PosetError, _bits, poset_from_json,
                     poset_to_json)


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


def _load_poset(path):
    obj = _load_json(path)
    try:
        return poset_from_json(obj)
    except (PosetError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}")


def _load_graph(path):
    edges = []
    top = -1
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#")[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise InputError(f"{path}: line {lineno}: expected "
                                     "'u v'")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: vertices "
                                     "must be integers")
                edges.append((u, v))
                top = max(top, u, v)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}")
    try:
        return instances.Graph(top + 1, edges)
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def _load_tree(path):
    obj = _load_json(path)
    try:
        return treedist.RootedTree(obj["n"], obj["root"], obj["parent"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}")


def _load_function(P, path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a label -> integer object")
    by_str = {str(lab): i for i, lab in enumerate(P.labels)}
    values = [0] * P.n
    for key, v in obj.items():
        if key not in by_str:
            raise InputError(f"{path}: unknown label {key!r}")
        if not isinstance(v, int):
            raise InputError(f"{path}: value for {key!r} is not an integer")
        values[by_str[key]] = v
    return values


def _resolve(P, text):
    by_str = {str(lab): i for i, lab in enumerate(P.labels)}
    if text in by_str:
        return by_str[text]
    raise InputError(f"no element labeled {text!r}")


def _emit(obj, summary):
    print(json.dumps(obj))
    print(summary, file=sys.stderr)


def _emit_csv(rows, summary):
    for row in rows:
        print(",".join(str(x) for x in row))
    print(summary, file=sys.stderr)


def _as_lattice(P):
    try:
        return Lattice(P)
    except LatticeError as e:
        raise InputError(f"not a lattice: {e}")


# -- subcommands ---------------------------------------------------------

def cmd_gen(args):
    fam = args.family
    if fam == "boolean":
        out = instances.boolean_lattice(args.n).poset
    elif fam == "chain":
        out = instances.chain(args.n)
    elif fam == "divisor":
        out = instances.divisor_lattice(args.n).poset
    elif fam == "subspace":
        out = instances.subspace_lattice(args.q, args.n).poset
    elif fam == "partition":
        out = instances.partition_lattice(args.n).poset
    elif fam == "contraction":
        if args.graph is None:
            raise InputError("contraction needs --graph")
        out = instances.contraction_lattice(_load_graph(args.graph)).poset
    elif fam == "random-poset":
        out = instances.random_poset(args.n, args.density, args.seed)
    elif fam == "random-tree":
        g = instances.random_tree(args.n, args.seed)
        _emit_csv([(u, v) for u, v in g.edges],
                  f"random tree on {g.n} vertices")
        return 0
    elif fam == "random-graph":
        g = instances.random_graph(args.n, args.edges, args.seed)
        _emit_csv([(u, v) for u, v in g.edges],
                  f"random graph on {g.n} vertices, {len(g.edges)} edges")
        return 0
    else:
        raise InputError(f"unknown family {fam!r}")
    body = poset_to_json(out)
    _emit({"schema": 1, **body}, f"{fam}: {out.n} elements")
    return 0


def cmd_mu(args):
    P = _load_poset(args.poset)
    a = _resolve(P, getattr(args, "from"))
    b = _resolve(P, args.to)
    if not P.up[a] >> b & 1:
        raise InputError("elements are incomparable (or reversed)")
    value = P.mobius_idx(a, b)
    _emit({"schema": 1, "mu": value}, f"mu = {value}")
    return 0


def cmd_zeta(args):
    P = _load_poset(args.poset)
    Z = P.zeta_matrix()
    if args.csv:
        _emit_csv(Z, f"zeta matrix, {P.n} x {P.n}")
    else:
        _emit({"schema": 1, "elements": [str(x) for x in P.labels],
               "zeta": Z}, f"zeta matrix, {P.n} x {P.n}")
    return 0


def cmd_invert(args):
    P = _load_poset(args.poset)
    if args.function is None:
        M = P.mobius_matrix()
        if args.csv:
            _emit_csv(M, f"Mobius matrix, {P.n} x {P.n}")
        else:
            _emit({"schema": 1, "elements": [str(x) for x in P.labels],
                   "mobius": M}, f"Mobius matrix, {P.n} x {P.n}")
        return 0
    g = _load_function(P, args.function)
    if args.direction == "up":
        f = inversion.invert_up(P, g)
    else:
        f = inversion.invert_down(P, g)
    _emit({"schema": 1,
           "values": {str(lab): f[i] for i, lab in enumerate(P.labels)}},
          f"inverted {args.direction}-sums on {P.n} elements")
    return 0


def cmd_chains(args):
    P = _load_poset(args.poset)
    a = _resolve(P, getattr(args, "from"))
    b = _resolve(P, args.to)
    by_length = {}
    for c in P.chains_between(a, b):
        by_length[len(c) - 1] = by_length.get(len(c) - 1, 0) + 1
    chain_mu = sum((-1) ** l * k for l, k in by_length.items())
    matrix_mu = P.mobius_idx(a, b)
    ok = chain_mu == matrix_mu
    _emit({"schema": 1, "count": sum(by_length.values()),
           "by_length": {str(l): by_length[l] for l in sorted(by_length)},
           "mu_by_chains": chain_mu, "mu_matrix": matrix_mu, "pass": ok},
          f"chain sum {chain_mu}, matrix {matrix_mu}")
    return 0 if ok else 1


def cmd_euler(args):
    P = _load_poset(args.poset)
    chi = complexes.order_complex(P).euler_characteristic()
    mu = P.mobius_number()
    ok = chi == 1 + mu
    _emit({"schema": 1, "euler_characteristic": chi, "mobius_number": mu,
           "pass": ok}, f"chi = {chi}, mu = {mu}")
    return 0 if ok else 1


def cmd_lattice_check(args):
    P = _load_poset(args.poset)
    try:
        L = Lattice(P)
    except LatticeError as e:
        _emit({"schema": 1, "is_lattice": False, "witness": str(e),
               "pass": False}, f"not a lattice: {e}")
        return 1
    body = {"schema": 1, "is_lattice": True}
    try:
        L.rank
        body["ranked"] = True
        body["semimodular"] = lattices.is_semimodular(L)
        body["atomistic"] = lattices.is_atomistic(L)
        body["geometric"] = body["semimodular"] and body["atomistic"]
    except lattices.NotRankedError as e:
        body["ranked"] = False
        body["witness"] = str(e)
    body["modular"] = lattices.is_modular_lattice(L)
    body["pass"] = True
    _emit(body, f"lattice with {L.n} elements")
    return 0


def cmd_weisner(args):
    P = _load_poset(args.poset)
    L = _as_lattice(P)
    if args.element is not None:
        targets = [_resolve(P, args.element)]
    else:
        targets = [a for a in range(L.n) if a != L.zero]
    reports = [lattices.weisner_check(L, a) for a in targets]
    ok = all(r["pass"] for r in reports)
    _emit({"schema": 1, "checked": len(reports), "pass": ok,
           "reports": [{"a": str(P.labels[a]), "lhs": r["lhs"],
                        "rhs": r["rhs"], "pass": r["pass"]}
                       for a, r in zip(targets, reports)]},
          f"Weisner on {len(reports)} elements: "
          + ("all pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_cutset(args):
    P = _load_poset(args.poset)
    L = _as_lattice(P)
    if args.cutset is not None:
        cut = [_resolve(P, t) for t in args.cutset.split(",")]
    else:
        cut = L.atoms()
    try:
        value = lattices.cutset_mobius(L, cut)
    except LatticeError as e:
        raise InputError(str(e))
    matrix_mu = P.mobius_idx(L.zero, L.one)
    ok = value == matrix_mu
    _emit({"schema": 1, "cutset": [str(P.labels[c]) for c in cut],
           "mu": value, "mu_matrix": matrix_mu, "pass": ok},
          f"cutset sum {value}, matrix {matrix_mu}")
    return 0 if ok else 1


def cmd_chromatic(args):
    G = _load_graph(args.graph)
    poly = matroid.chromatic_polynomial(G)
    oracle = matroid.chromatic_oracle(G)
    ok = poly == oracle
    _emit({"schema": 1, "coefficients": poly, "oracle": oracle, "pass": ok},
          f"chromatic polynomial, degree {len(poly) - 1}")
    return 0 if ok else 1


def cmd_charpoly(args):
    P = _load_poset(args.poset)
    L = _as_lattice(P)
    poly = matroid.characteristic_polynomial(L)
    _emit({"schema": 1, "coefficients": poly},
          f"characteristic polynomial, degree {len(poly) - 1}")
    return 0


def cmd_whitney(args):
    P = _load_poset(args.poset)
    L = _as_lattice(P)
    W = lattices.whitney_numbers(L)
    w = lattices.whitney_rank_sums(L)
    if args.csv:
        rows = [("rank", "count", "rank_sum")]
        rows += [(k, W[k], w[k]) for k in range(len(W))]
        _emit_csv(rows, f"Whitney numbers, rank {L.height}")
    else:
        _emit({"schema": 1, "counts": W, "rank_sums": w},
              f"Whitney numbers, rank {L.height}")
    return 0


def cmd_tree(args):
    if args.tree is not None:
        T = _load_tree(args.tree)
    else:
        if args.n is None:
            raise InputError("need --tree or --n")
        g = instances.random_tree(args.n, args.seed)
        T = treedist.RootedTree.from_graph(g, 0)
    r = treedist.verify_tree(T)
    body = {"schema": 1, "n": T.n, "det": r["det"],
            "closed_form": r["closed_form"], "pass": r["pass"]}
    if T.n >= 2:
        body["inverse_verified"] = r["inverse_verified"]
    _emit(body, f"tree on {T.n} vertices, det {r['det']}")
    return 0 if body["pass"] else 1


def cmd_nulldesign(args):
    P = _load_poset(args.poset)
    f = _load_function(P, args.function)
    try:
        S = nulldesigns.MeetSemilattice(P)
        report = nulldesigns.verify_support_theorem(S, f)
    except PosetError as e:
        raise InputError(str(e))
    body = {"schema": 1, "strength": report.get("strength"),
            "support": report["lhs"], "bound": report["rhs"],
            "pass": report["pass"]}
    if "b" in report:
        body["b"] = str(report["b"])
    _emit(body, f"support {report['lhs']}, bound {report['rhs']}")
    return 0 if report["pass"] else 1


# -- verify-all ----------------------------------------------------------

def _suite(seed, full):
    rng = random.Random(seed)
    B = instances.boolean_lattice
    items = []

    def check_inversion():
        for _ in range(20):
            P = instances.random_poset(rng.randrange(1, 10), rng.random(),
                                       rng.randrange(2 ** 30))
            from .exactmat import identity, mat_mul
            if mat_mul(P.mobius_matrix(), P.zeta_matrix()) != identity(P.n):
                return False
            f = [rng.randrange(-5, 6) for _ in range(P.n)]
            if inversion.invert_up(P, inversion.forward_up(P, f)) != f:
                return False
        return True
    items.append(("mobius inversion round-trip", check_inversion))

    def check_boolean_mu():
        L = B(4)
        P = L.poset
        return all(P.mobius_idx(a, b) == (-1) ** (len(str(P.labels[b]))
                                                  - len(str(P.labels[a])))
                   for a in range(P.n) for b in _bits(P.up[a]))
    items.append(("subset-lattice mu values", check_boolean_mu))

    def check_chain_sum():
        for _ in range(10):
            P = instances.random_poset(rng.randrange(1, 8), rng.random(),
                                       rng.randrange(2 ** 30))
            for a in range(P.n):
                for b in _bits(P.up[a]):
                    if P.mobius_by_chains(a, b) != P.mobius_idx(a, b):
                        return False
        return True
    items.append(("Hall chain sum", check_chain_sum))

    def check_derangements():
        return all(inversion.derangements(n)
                   == inversion.derangements_bruteforce(n)
                   for n in range(7))
    items.append(("derangement inversion", check_derangements))

    def check_lindstrom_wilf():
        for _ in range(10):
            P = instances.random_poset(rng.randrange(1, 7), rng.random(),
                                       rng.randrange(2 ** 30))
            f = [rng.randrange(-3, 4) for _ in range(P.n)]
            _, det = inversion.lindstrom_wilf_det(P, f)
            prod = 1
            for v in f:
                prod *= v
            if det != prod:
                return False
        return True
    items.append(("Lindstrom-Wilf determinant", check_lindstrom_wilf))

    def check_trees():
        for n in range(2, 9):
            g = instances.random_tree(n, rng.randrange(2 ** 30))
            T = treedist.RootedTree.from_graph(g, 0)
            if not treedist.verify_tree(T)["pass"]:
                return False
        return True
    items.append(("tree distance identities", check_trees))

    def check_euler():
        for _ in range(20):
            P = instances.random_poset(rng.randrange(1, 9), rng.random(),
                                       rng.randrange(2 ** 30))
            chi = complexes.order_complex(P).euler_characteristic()
            if chi != 1 + P.mobius_number():
                return False
        return True
    items.append(("order-complex Euler characteristic", check_euler))

    def check_baclawski():
        for _ in range(10):
            P = instances.random_poset(rng.randrange(1, 8), rng.random(),
                                       rng.randrange(2 ** 30))
            Q = instances.random_poset(rng.randrange(1, 6), rng.random(),
                                       rng.randrange(2 ** 30))
            f = complexes.random_monotone_map(P, Q, rng.randrange(2 ** 30))
            if not complexes.verify_baclawski(f)["pass"]:
                return False
        return True
    items.append(("fibre decomposition", check_baclawski))

    def check_weisner():
        for L in (B(4), instances.subspace_lattice(2, 2),
                  instances.partition_lattice(4)):
            for a in range(L.n):
                if a == L.zero:
                    continue
                if not lattices.weisner_check(L, a)["pass"]:
                    return False
        return True
    items.append(("Weisner's lemma", check_weisner))

    def check_cutset():
        for L in (B(3), instances.subspace_lattice(2, 3)):
            if (lattices.cutset_mobius(L, L.atoms())
                    != L.poset.mobius_idx(L.zero, L.one)):
                return False
        return True
    items.append(("cutset alternating sum", check_cutset))

    def check_walker():
        L = B(3)
        return all(lattices.walker_complement_check(L, a)["pass"]
                   for a in range(L.n) if a not in (L.zero, L.one))
    items.append(("complement deletion", check_walker))

    def check_modular_factorization():
        L = instances.subspace_lattice(2, 3)
        a = L.atoms()[0]
        if not lattices.modular_factorization(L, a)["pass"]:
            return False
        if L.poset.mobius_idx(L.zero, L.one) != -8:
            return False
        P5 = instances.partition_lattice(5)
        return P5.poset.mobius_idx(P5.zero, P5.one) == 24
    items.append(("modular factorization", check_modular_factorization))

    def check_nbc():
        L = instances.partition_lattice(5)
        counts = matroid.nbc_counts(matroid.AtomMatroid(L))
        want = [matroid.stirling_first_unsigned(5, 5 - k)
                for k in range(len(counts))]
        return counts == want
    items.append(("broken-circuit counts", check_nbc))

    def check_chromatic():
        for g in (instances.complete_graph(4), instances.cycle_graph(4),
                  instances.random_connected_graph(5, 6,
                                                  rng.randrange(2 ** 30))):
            poly = matroid.chromatic_polynomial(g)
            if poly != matroid.chromatic_oracle(g):
                return False
            if any(matroid.poly_eval(poly, k) != matroid.coloring_count(g, k)
                   for k in range(4)):
                return False
        return True
    items.append(("chromatic polynomial", check_chromatic))

    def check_codes():
        r1 = matroid.codeword_weight_check([[1, 0], [0, 1]], 2, t=2)
        r2 = matroid.codeword_weight_check(
            [[1, 0, 1, 1], [0, 1, 1, 2], [0, 0, 1, 1]], 3)
        return r1["pass"] and r2["pass"]
    items.append(("codeword weights", check_codes))

    def check_dowling_wilson():
        for L in (B(4), instances.subspace_lattice(2, 2)):
            if not lattices.dowling_wilson_check(L)["pass"]:
                return False
            d = L.height
            for k in range(d // 2 + 1):
                if not lattices.top_heavy_check(L, k)["pass"]:
                    return False
            if not lattices.dowling_complement_check(L)["pass"]:
                return False
        return True
    items.append(("join-complement permutation", check_dowling_wilson))

    def check_basterfield_kelly():
        return (lattices.basterfield_kelly_check(B(4))["pass"]
                and lattices.basterfield_kelly_check(
                    instances.partition_lattice(4))["pass"])
    items.append(("points vs hyperplanes", check_basterfield_kelly))

    def check_kung():
        return (lattices.kung_check(B(4), 1)["pass"]
                and lattices.kung_check(instances.partition_lattice(4),
                                        1)["pass"])
    items.append(("rank-set incidence rank", check_kung))

    def check_deletion():
        for L in (B(3), instances.contraction_lattice(
                instances.complete_graph(3))):
            for p in L.atoms():
                if not lattices.point_deletion(L, p)[1]["pass"]:
                    return False
        return True
    items.append(("point deletion recursion", check_deletion))

    def check_nulldesign():
        L = B(3)
        P = L.poset
        f = [(-1) ** len(str(lab)) for lab in P.labels]
        S = nulldesigns.MeetSemilattice(P)
        if nulldesigns.strength(S, f) != 2:
            return False
        report = nulldesigns.verify_support_theorem(S, f)
        return report["pass"] and report["rhs"] == 2 ** 3
    items.append(("null design support bound", check_nulldesign))

    return items


def cmd_verify_all(args):
    items = _suite(args.seed, args.suite == "full")
    results = []
    ok = True
    for name, fn in items:
        passed = bool(fn())
        ok = ok and passed
        results.append({"name": name, "pass": passed})
        print(f"{name:<40s} {'pass' if passed else 'FAIL'}",
              file=sys.stderr)
    print(json.dumps({"schema": 1, "suite": args.suite,
                      "results": results, "pass": ok}))
    return 0 if ok else 1


# -- argument parsing ----------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="mobiuslab",
        description="Mobius functions of finite posets: computations and "
                    "identity checks")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("--family", required=True)
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--q", type=int, default=2)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--edges", type=int, default=0)
    g.add_argument("--graph")
    g.set_defaults(fn=cmd_gen)

    m = sub.add_parser("mu", help="Mobius function of a pair")
    m.add_argument("--poset", required=True)
    m.add_argument("--from", required=True)
    m.add_argument("--to", required=True)
    m.set_defaults(fn=cmd_mu)

    z = sub.add_parser("zeta", help="zeta matrix")
    z.add_argument("--poset", required=True)
    z.add_argument("--csv", action="store_true")
    z.set_defaults(fn=cmd_zeta)

    i = sub.add_parser("invert", help="Mobius matrix, or invert a "
                                      "function's order sums")
    i.add_argument("--poset", required=True)
    i.add_argument("--function")
    i.add_argument("--direction", choices=("up", "down"), default="up")
    i.add_argument("--csv", action="store_true")
    i.set_defaults(fn=cmd_invert)

    c = sub.add_parser("chains", help="chains between two elements")
    c.add_argument("--poset", required=True)
    c.add_argument("--from", required=True)
    c.add_argument("--to", required=True)
    c.set_defaults(fn=cmd_chains)

    e = sub.add_parser("euler", help="order-complex Euler characteristic")
    e.add_argument("--poset", required=True)
    e.set_defaults(fn=cmd_euler)

    lc = sub.add_parser("lattice-check", help="lattice recognition and "
                                              "classification")
    lc.add_argument("--poset", required=True)
    lc.set_defaults(fn=cmd_lattice_check)

    w = sub.add_parser("weisner", help="Weisner's lemma")
    w.add_argument("--poset", required=True)
    w.add_argument("--element")
    w.set_defaults(fn=cmd_weisner)

    cs = sub.add_parser("cutset", help="cutset alternating sum")
    cs.add_argument("--poset", required=True)
    cs.add_argument("--cutset", help="comma-separated labels "
                                     "(default: the atoms)")
    cs.set_defaults(fn=cmd_cutset)

    ch = sub.add_parser("chromatic", help="chromatic polynomial of a graph")
    ch.add_argument("--graph", required=True)
    ch.set_defaults(fn=cmd_chromatic)

    cp = sub.add_parser("charpoly", help="characteristic polynomial")
    cp.add_argument("--poset", required=True)
    cp.set_defaults(fn=cmd_charpoly)

    wh = sub.add_parser("whitney", help="Whitney numbers")
    wh.add_argument("--poset", required=True)
    wh.add_argument("--csv", action="store_true")
    wh.set_defaults(fn=cmd_whitney)

    t = sub.add_parser("tree", help="tree distance identities")
    t.add_argument("--tree")
    t.add_argument("--n", type=int)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--det", action="store_true")
    t.set_defaults(fn=cmd_tree)

    nd = sub.add_parser("nulldesign", help="support bound for a function")
    nd.add_argument("--poset", required=True)
    nd.add_argument("--function", required=True)
    nd.set_defaults(fn=cmd_nulldesign)

    va = sub.add_parser("verify-all", help="run the identity suites")
    va.add_argument("--suite", choices=("small", "full"), default="small")
    va.add_argument("--seed", type=int, default=0)
    va.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PosetError, LatticeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


# What a shell reports for a process ended by SIGPIPE (128 + 13).
EXIT_BROKEN_PIPE = 141


def console_entry():
    """Process entry point of the `mobiuslab` script and `python -m
    mobiuslab`. A reader that closes stdout early (`| head`) ends the run
    with EXIT_BROKEN_PIPE and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at shutdown; point it at devnull so
        # that flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
