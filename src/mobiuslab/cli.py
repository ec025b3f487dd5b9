"""Command-line front end: generate instances, compute Mobius data, and
run identity-verification suites with deterministic JSON output.

Every subcommand is one row of the table `_COMMANDS`, from which one
parser is built per import.  `main` parses the arguments with the named
subcommand's part of it, or with the whole when that part cannot take
them all, loads the input the row names, looks the row's handler up by
name in this module, calls it and writes what it returns: a JSON object,
or CSV rows."""

import argparse
import json
import math
import os
import random
import re
import sys

from . import complexes, instances, inversion, lattices, matroid
from . import nulldesigns, treedist
from .exactmat import identity, mat_mul
from .lattices import Lattice, LatticeError, MeetSemilattice
from .posets import Poset, _bits, poset_from_json, poset_to_json


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
        P = poset_from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}")
    # labels are printed and looked up by str, so two must not share one
    shown = {}
    for lab in P.labels:
        if shown.setdefault(str(lab), lab) is not lab:
            raise InputError(f"{path}: labels {shown[str(lab)]!r} and "
                             f"{lab!r} both print as {str(lab)!r}")
    return P


# int() would also take "+1", "2_0" and non-ASCII digits
_VERTEX = re.compile("-?[0-9]+")


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
                if not all(map(_VERTEX.fullmatch, parts)):
                    raise InputError(f"{path}: line {lineno}: vertices "
                                     "must be integers")
                u, v = int(parts[0]), int(parts[1])
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
    if type(obj) is not dict:
        raise InputError(f"{path}: tree JSON is not an object")
    for key in ("n", "root", "parent"):
        if key not in obj:
            raise InputError(f"{path}: missing {key!r}")
    n, root, parent = obj["n"], obj["root"], obj["parent"]
    if type(parent) is not list:
        raise InputError(f"{path}: 'parent' is not a list")
    # JSON true and false would pass as the integers 1 and 0
    fields = [("'n'", n), ("'root'", root)] + [
        (f"parent[{v}]", p) for v, p in enumerate(parent) if p is not None]
    for field, value in fields:
        if type(value) is not int:
            raise InputError(f"{path}: {field} is not an integer")
    try:
        return treedist.RootedTree(n, root, parent)
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def _load_function(P, path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a label -> integer object")
    by_str = _by_str(P)
    values = [0] * P.n
    for key, v in obj.items():
        if key not in by_str:
            raise InputError(f"{path}: unknown label {key!r}")
        if type(v) is not int:
            raise InputError(f"{path}: value for {key!r} is not an integer")
        values[by_str[key]] = v
    return values


def _by_str(P):
    """Each element's index, keyed by its printed label."""
    return {str(lab): i for i, lab in enumerate(P.labels)}


def _resolve(P, *texts):
    """The indices of the elements printed as `texts`, from one map."""
    by_str = _by_str(P)
    for text in texts:
        if text not in by_str:
            raise InputError(f"no element labeled {text!r}")
    return [by_str[text] for text in texts]


def _emit(obj, summary):
    print(json.dumps(obj))
    print(summary, file=sys.stderr)


def _emit_csv(rows, summary):
    for row in rows:
        print(",".join(str(x) for x in row))
    print(summary, file=sys.stderr)


# -- subcommands ---------------------------------------------------------
#
# A handler gets the parsed arguments and its row's input, and returns
# (body, summary): a dict for JSON or a list of CSV rows, and a line for
# stderr.


def _contraction(args):
    if args.graph is None:
        raise InputError("contraction needs --graph")
    return instances.contraction_lattice(_load_graph(args.graph))


# gen families: a builder giving a Poset (written as JSON) or a Graph
# (written as CSV edge rows)
_FAMILIES = {
    "boolean": lambda a: instances.boolean_lattice(a.n),
    "chain": lambda a: instances.chain(a.n),
    "divisor": lambda a: instances.divisor_lattice(a.n),
    "subspace": lambda a: instances.subspace_lattice(a.q, a.n),
    "partition": lambda a: instances.partition_lattice(a.n),
    "contraction": _contraction,
    "random-poset": lambda a: instances.random_poset(a.n, a.density, a.seed),
    "random-tree": lambda a: instances.random_tree(a.n, a.seed),
    "random-graph": lambda a: instances.random_graph(a.n, a.edges, a.seed),
}


def cmd_gen(args):
    fam = args.family
    if fam not in _FAMILIES:
        raise InputError(f"unknown family {fam!r}")
    out = _FAMILIES[fam](args)
    if isinstance(out, Poset):
        return poset_to_json(out), f"{fam}: {out.n} elements"
    summary = f"{fam.replace('-', ' ')} on {out.n} vertices"
    if fam == "random-graph":
        summary += f", {len(out.edges)} edges"
    return out.edges, summary


def cmd_mu(args, P):
    a, b = _resolve(P, getattr(args, "from"), args.to)
    if not P.up[a] >> b & 1:
        raise InputError("elements are incomparable (or reversed)")
    value = P.mobius_idx(a, b)
    return {"mu": value}, f"mu = {value}"


def _matrix(args, P, key, M, title):
    summary = f"{title}, {P.n} x {P.n}"
    if args.csv:
        return M, summary
    return {"elements": [str(x) for x in P.labels], key: M}, summary


def cmd_zeta(args, P):
    return _matrix(args, P, "zeta", P.zeta_matrix(), "zeta matrix")


def cmd_invert(args, P):
    if args.function is None:
        if args.direction is not None:
            raise InputError("--direction applies only with --function")
        return _matrix(args, P, "mobius", P.mobius_matrix(), "Mobius matrix")
    if args.csv:
        raise InputError("--csv does not apply with --function")
    g = _load_function(P, args.function)
    direction = args.direction or "up"
    if direction == "up":
        f = inversion.invert_up(P, g)
    else:
        f = inversion.invert_down(P, g)
    return ({"values": {str(lab): f[i] for i, lab in enumerate(P.labels)}},
            f"inverted {direction}-sums on {P.n} elements")


def cmd_chains(args, P):
    a, b = _resolve(P, getattr(args, "from"), args.to)
    by_length = complexes.chain_counts(P, a, b)
    chain_mu = sum((-1) ** l * k for l, k in by_length.items())
    matrix_mu = P.mobius_idx(a, b)
    return ({"count": sum(by_length.values()),
             "by_length": {str(l): by_length[l] for l in sorted(by_length)},
             "mu_by_chains": chain_mu, "mu_matrix": matrix_mu,
             "pass": chain_mu == matrix_mu},
            f"chain sum {chain_mu}, matrix {matrix_mu}")


def cmd_euler(args, P):
    chi = complexes.euler_characteristic(P)
    mu = P.mobius_number()
    return ({"euler_characteristic": chi, "mobius_number": mu,
             "pass": chi == 1 + mu}, f"chi = {chi}, mu = {mu}")


def cmd_lattice_check(args, P):
    try:
        L = Lattice(P)
    except LatticeError as e:
        return ({"is_lattice": False, "witness": str(e), "pass": False},
                f"not a lattice: {e}")
    body = {"is_lattice": True}
    try:
        L.rank
        body["ranked"] = True
        body["semimodular"] = lattices.is_semimodular(L)
        body["atomistic"] = lattices.is_atomistic(L)
        body["geometric"] = body["semimodular"] and body["atomistic"]
    except lattices.NotRankedError as e:
        body["ranked"] = False
        body["witness"] = str(e)
    # modular iff lower and upper semimodular; a finite upper
    # semimodular lattice is graded, so an unranked one is neither
    body["modular"] = (body.get("semimodular", False)
                       and lattices.is_lower_semimodular(L))
    body["pass"] = True
    return body, f"lattice with {L.n} elements"


def cmd_weisner(args, L):
    if args.element is not None:
        targets = _resolve(L, args.element)
    else:
        targets = [a for a in range(L.n) if a != L.zero]
    reports = lattices.weisner_check(L, targets)
    ok = all(r["pass"] for r in reports)
    return ({"checked": len(reports), "pass": ok,
             "reports": [{"a": str(L.labels[a]), "lhs": r["lhs"],
                          "rhs": r["rhs"], "pass": r["pass"]}
                         for a, r in zip(targets, reports)]},
            f"Weisner on {len(reports)} elements: "
            + ("all pass" if ok else "FAIL"))


def _check_crosscut(L, cut):
    """Rota's crosscut theorem, which the alternating sum checks, holds
    for antichains that avoid 0 and 1 and meet every maximal chain;
    refuse a set that is not such an antichain (`cutset_mobius` refuses
    one that misses a chain)."""
    labels = [str(lab) for lab in L.labels]
    cut = sorted(set(cut))
    for a in cut:
        if a in (L.zero, L.one):
            end = "bottom" if a == L.zero else "top"
            raise InputError(f"not a crosscut: {labels[a]!r} is the {end} "
                             "element")
        for b in cut:
            if a != b and L.up[a] >> b & 1:
                raise InputError(f"not a crosscut: {labels[a]!r} < "
                                 f"{labels[b]!r}")


def cmd_cutset(args, L):
    if args.cutset is not None:
        cut = _resolve(L, *args.cutset.split(","))
        _check_crosscut(L, cut)
    else:
        cut = L.atoms()
    value = lattices.cutset_mobius(L, cut)
    matrix_mu = L.mobius_idx(L.zero, L.one)
    return ({"cutset": [str(L.labels[c]) for c in cut], "mu": value,
             "mu_matrix": matrix_mu, "pass": value == matrix_mu},
            f"cutset sum {value}, matrix {matrix_mu}")


def cmd_chromatic(args, G):
    poly = matroid.chromatic_polynomial(G)
    oracle = matroid.chromatic_oracle(G)
    return ({"coefficients": poly, "oracle": oracle, "pass": poly == oracle},
            f"chromatic polynomial, degree {len(poly) - 1}")


def cmd_charpoly(args, L):
    poly = matroid.characteristic_polynomial(L)
    return ({"coefficients": poly},
            f"characteristic polynomial, degree {len(poly) - 1}")


def cmd_whitney(args, L):
    W = lattices.whitney_numbers(L)
    w = lattices.whitney_rank_sums(L)
    summary = f"Whitney numbers, rank {L.height}"
    if args.csv:
        return ([("rank", "count", "rank_sum")]
                + [(k, W[k], w[k]) for k in range(len(W))], summary)
    return {"counts": W, "rank_sums": w}, summary


def cmd_tree(args):
    if args.tree is not None:
        T = _load_tree(args.tree)
    else:
        if args.n is None:
            raise InputError("need --tree or --n")
        g = instances.random_tree(args.n, args.seed)
        T = treedist.RootedTree.from_graph(g, 0)
    r = treedist.verify_tree(T)
    body = {"n": T.n, "det": r["det"], "closed_form": r["closed_form"],
            "pass": r["pass"]}
    if T.n >= 2:
        body["inverse_verified"] = r["inverse_verified"]
    return body, f"tree on {T.n} vertices, det {r['det']}"


def cmd_nulldesign(args, P):
    f = _load_function(P, args.function)
    S = MeetSemilattice(P)
    report = nulldesigns.verify_support_theorem(S, f)
    body = {"strength": report.get("strength"), "support": report["lhs"],
            "bound": report["rhs"], "pass": report["pass"]}
    if "b" in report:
        body["b"] = str(report["b"])
    return body, f"support {report['lhs']}, bound {report['rhs']}"


# -- verify-all ----------------------------------------------------------

def _suite(seed):
    rng = random.Random(seed)
    # the fixed lattices, built once per call and shared by the checks
    B3, B4 = instances.boolean_lattice(3), instances.boolean_lattice(4)
    Pi4, Pi5 = instances.partition_lattice(4), instances.partition_lattice(5)
    L22 = instances.subspace_lattice(2, 2)
    L23 = instances.subspace_lattice(2, 3)
    items = []

    def random_poset(k):
        return instances.random_poset(rng.randrange(1, k), rng.random(),
                                      rng.randrange(2 ** 30))

    def check_inversion():
        for _ in range(20):
            P = random_poset(10)
            M = P.mobius_matrix()
            if mat_mul(M, P.zeta_matrix()) != identity(P.n):
                return False
            f = [rng.randrange(-5, 6) for _ in range(P.n)]
            g = inversion.forward_up(P, f)
            if inversion.invert_up(P, g) != f:
                return False
            if [sum(m * v for m, v in zip(row, g)) for row in M] != f:
                return False
        return True
    items.append(("mobius inversion round-trip", check_inversion))

    def check_boolean_mu():
        M = B4.mobius_matrix()
        return all(M[a][b] == (-1) ** (len(B4.labels[b]) - len(B4.labels[a]))
                   for a in range(B4.n) for b in _bits(B4.up[a]))
    items.append(("subset-lattice mu values", check_boolean_mu))

    def check_chain_sum():
        for _ in range(10):
            P = random_poset(8)
            M = P.mobius_matrix()
            if any(sum((-1) ** l * k for l, k
                       in complexes.chain_counts(P, a, b).items()) != M[a][b]
                   for a in range(P.n) for b in _bits(P.up[a])):
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
            P = random_poset(7)
            f = [rng.randrange(-3, 4) for _ in range(P.n)]
            if inversion.lindstrom_wilf_det(P, f)[1] != math.prod(f):
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
            P = random_poset(9)
            if complexes.euler_characteristic(P) != 1 + P.mobius_number():
                return False
        return True
    items.append(("order-complex Euler characteristic", check_euler))

    def check_baclawski():
        for _ in range(10):
            P = random_poset(8)
            Q = random_poset(6)
            f = complexes.random_monotone_map(P, Q, rng.randrange(2 ** 30))
            if not complexes.verify_baclawski(f)["pass"]:
                return False
        return True
    items.append(("fibre decomposition", check_baclawski))

    def check_weisner():
        return all(r["pass"]
                   for L in (B4, L22, Pi4)
                   for r in lattices.weisner_check(L, range(1, L.n)))
    items.append(("Weisner's lemma", check_weisner))

    def check_cutset():
        # the rank levels of a graded lattice, atoms to coatoms, are crosscuts
        for L in (B3, L23):
            r = L.rank
            if any(lattices.cutset_mobius(L, [x for x in range(L.n)
                                              if r[x] == k])
                   != L.mobius_idx(L.zero, L.one)
                   for k in range(1, L.height)):
                return False
        return True
    items.append(("cutset alternating sum", check_cutset))

    def check_walker():
        return all(lattices.walker_complement_check(B3, a)["pass"]
                   for a in range(B3.n) if a not in (B3.zero, B3.one))
    items.append(("complement deletion", check_walker))

    def check_modular_factorization():
        if not lattices.modular_factorization(L23, L23.atoms()[0])["pass"]:
            return False
        if L23.mobius_idx(L23.zero, L23.one) != -8:
            return False
        return Pi5.mobius_idx(Pi5.zero, Pi5.one) == 24
    items.append(("modular factorization", check_modular_factorization))

    def check_nbc():
        report = matroid.whitney_theorem_check(Pi5)
        want = [matroid.stirling_first_unsigned(5, 5 - k)
                for k in range(len(report["lhs"]))]
        return report["pass"] and report["lhs"] == want
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
        for L in (B4, L22):
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
        return (lattices.basterfield_kelly_check(B4)["pass"]
                and lattices.basterfield_kelly_check(Pi4)["pass"])
    items.append(("points vs hyperplanes", check_basterfield_kelly))

    def check_kung():
        return (lattices.kung_check(B4, 1)["pass"]
                and lattices.kung_check(Pi4, 1)["pass"])
    items.append(("rank-set incidence rank", check_kung))

    def check_deletion():
        return all(lattices.point_deletion(L, p)[1]["pass"]
                   for L in (B3, instances.contraction_lattice(
                       instances.complete_graph(3)))
                   for p in L.atoms())
    items.append(("point deletion recursion", check_deletion))

    def check_nulldesign():
        f = [(-1) ** len(str(lab)) for lab in B3.labels]
        S = MeetSemilattice(B3)
        if nulldesigns.strength(S, f) != 2:
            return False
        report = nulldesigns.verify_support_theorem(S, f)
        return report["pass"] and report["rhs"] == 2 ** 3
    items.append(("null design support bound", check_nulldesign))

    return items


def cmd_verify_all(args):
    results = [{"name": name, "pass": bool(check())}
               for name, check in _suite(args.seed)]
    lines = [f"{r['name']:<40s} {'pass' if r['pass'] else 'FAIL'}"
             for r in results]
    return ({"suite": "small", "results": results,
             "pass": all(r["pass"] for r in results)}, "\n".join(lines))


# -- the command table ---------------------------------------------------

_REQUIRED = {"required": True}
_CSV = {"action": "store_true"}
_SEED = {"type": int, "default": 0}


# (name, help, input, handler, options) for every subcommand.  The input
# "poset" or "lattice" adds a required --poset and "graph" a required
# --graph; options maps each further flag to its argparse keywords.  The
# parser keeps only each handler's name, and `main` looks that name up
# when it runs, so a rebinding of a cmd_* name in this module takes effect.
_COMMANDS = [
    ("gen", "generate an instance", None, cmd_gen,
     {"--family": _REQUIRED, "--n": {"type": int, "default": 3},
      "--q": {"type": int, "default": 2},
      "--density": {"type": float, "default": 0.5}, "--seed": _SEED,
      "--edges": {"type": int, "default": 0}, "--graph": {}}),
    ("mu", "Mobius function of a pair", "poset", cmd_mu,
     {"--from": _REQUIRED, "--to": _REQUIRED}),
    ("zeta", "zeta matrix", "poset", cmd_zeta, {"--csv": _CSV}),
    ("invert", "Mobius matrix, or invert a function's order sums",
     "poset", cmd_invert,
     {"--function": {},
      "--direction": {"choices": ("up", "down")},
      "--csv": _CSV}),
    ("chains", "chains between two elements", "poset", cmd_chains,
     {"--from": _REQUIRED, "--to": _REQUIRED}),
    ("euler", "order-complex Euler characteristic", "poset", cmd_euler,
     {}),
    ("lattice-check", "lattice recognition and classification",
     "poset", cmd_lattice_check, {}),
    ("weisner", "Weisner's lemma", "lattice", cmd_weisner,
     {"--element": {}}),
    ("cutset", "cutset alternating sum", "lattice", cmd_cutset,
     {"--cutset": {"help": "comma-separated labels (default: the "
                           "atoms)"}}),
    ("chromatic", "chromatic polynomial of a graph", "graph",
     cmd_chromatic, {}),
    ("charpoly", "characteristic polynomial", "lattice", cmd_charpoly,
     {}),
    ("whitney", "Whitney numbers", "lattice", cmd_whitney,
     {"--csv": _CSV}),
    ("tree", "tree distance identities", None, cmd_tree,
     {"--tree": {}, "--n": {"type": int}, "--seed": _SEED}),
    ("nulldesign", "support bound for a function", "poset",
     cmd_nulldesign, {"--function": _REQUIRED}),
    ("verify-all", "run the identity suites", None, cmd_verify_all,
     {"--seed": _SEED}),
]


def _build_parser():
    """The top-level parser, and each subcommand's parser by name."""
    ap = argparse.ArgumentParser(
        prog="mobiuslab",
        description="Mobius functions of finite posets: computations and "
                    "identity checks")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, text, kind, handler, options in _COMMANDS:
        p = parsers[name] = sub.add_parser(name, help=text)
        if kind is not None:
            p.add_argument("--graph" if kind == "graph" else "--poset",
                           required=True)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler.__name__, input=kind)
    return ap, parsers


_PARSER, _SUBPARSERS = _build_parser()


def _parse(argv):
    """The namespace `_PARSER.parse_args(argv)` gives.  When argv names a
    command first, that command's parser reads the rest, as `_PARSER`
    would hand it over; it prints and exits the same way on help or an
    error.  Only if it leaves arguments over, or argv names no command,
    does `_PARSER` parse argv, so each usage and error text is its own."""
    if argv and argv[0] in _SUBPARSERS:
        args, rest = _SUBPARSERS[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def _load_input(args):
    """The handler's input as an argument tuple: empty, or a Graph, a
    Poset or a Lattice."""
    if args.input is None:
        return ()
    if args.input == "graph":
        return (_load_graph(args.graph),)
    P = _load_poset(args.poset)
    if args.input == "poset":
        return (P,)
    try:
        return (Lattice(P),)
    except LatticeError as e:
        raise InputError(f"not a lattice: {e}")


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handler = globals()[args.handler]
    try:
        body, summary = handler(args, *_load_input(args))
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if isinstance(body, list):
        _emit_csv(body, summary)
        return 0
    _emit({"schema": 1, **body}, summary)
    return 1 if body.get("pass") is False else 0


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
