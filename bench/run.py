"""Layered benchmark for mobiuslab.

    python3 bench/run.py --workload lattice_check --seed 1 --seconds 35 \
        --trace 0

Runs one workload (see workloads.py) as a closed loop: one client, one
thread, each op issued after the previous one returns.  An op is one
in-process call of `mobiuslab.cli.main(argv)` with stdout and stderr
captured, checked afterwards (untimed) by an oracle that does not use
mobiuslab.

`--trace 0` repeats passes over the op list until `--seconds` have
elapsed, and reports the end-to-end metrics from each op's fastest time.
`--trace 1` alternates
untraced passes with traced passes, which have wrappers on every layer
(layertrace.py), and reports per-layer self times and counts per traced
pass.  It also checks that every traced op prints the same stdout bytes
as untraced.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  An op fails when it raises, exits with a wrong
code, or prints an output its oracle rejects; `failed / attempted` is
`fail_frac`.  Every failure is a wrong answer and makes `correct` false.
The ops marked as a known defect are not in the timed list: each runs
once after the timed passes, outside `attempted` and `failed`.  Its
verdict is printed on a `known_defect` line; an error exit (2) or an
exception there is the defect, and any other wrong output makes
`correct` false.  Earlier lines name every metric with its unit and
record provenance.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import layertrace
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "mobiuslab")
SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metrics of a traced pass: self times (s) of these layers ...
SELF_TIMES = ("posets.construct", "posets.mobius", "posets.chains",
              "posets.other", "lattices.construct", "lattices.modular",
              "lattices.semimodular", "lattices.checks", "lattices.other",
              "exactmat", "treedist", "inversion", "complexes", "matroid",
              "nulldesigns", "instances", "cli.json_in", "cli.emit", "cli")
# ... and of these layers during one traced set-up (without the import)
SETUP_SELF_TIMES = ("instances", "posets.construct", "lattices.construct",
                    "cli.emit")
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in SELF_TIMES]
    + [(f"setup.{layer}.self_s", "s") for layer in SETUP_SELF_TIMES]
    + [("posets.construct.calls", "count"),
       ("posets.construct.elements", "count"),
       ("posets.mobius.vectors", "count"),
       ("posets.mobius_idx.calls", "count"),
       ("posets.mobius.reuse", "ratio"),
       ("lattices.join_meet.calls", "count"),
       ("lattices.join_meet.eager_share", "ratio"),
       ("exactmat.calls", "count"),
       ("trace.spans", "count"),
       ("trace.overhead", "ratio")])


class Tally:
    """Per-op timings and the verdicts of every op run."""

    def __init__(self, n_ops):
        self.samples = [[] for _ in range(n_ops)]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = []

    def record(self, i, op, seconds, verdict, reason):
        self.samples[i].append(seconds)
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
            self.wrong += verdict == "wrong"
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.name}: {verdict}: {reason}")

    def fastest(self):
        return [min(s) for s in self.samples]

    def merge(self, other):
        for mine, theirs in zip(self.samples, other.samples):
            mine += theirs
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons = (self.reasons + other.reasons)[:5]


def judge(op, rc, out):
    """Return ('ok' | 'defect' | 'wrong', reason).  An error exit (2) or
    an exception where an answer was due is a wrong answer, except on the
    op marked `known_defect`, where it is a 'defect': failed, not wrong."""
    if rc is None or (rc == 2 and op.expect != 2):
        reason = "exception" if rc is None else "exit 2"
        return ("defect" if op.known_defect else "wrong"), reason
    if rc != op.expect:
        return "wrong", f"exit {rc}, want {op.expect}"
    try:
        reason = op.check(out)
    except Exception as e:  # an output of an unexpected shape
        reason = f"{type(e).__name__}: {e}"
    return ("wrong", reason) if reason else ("ok", None)


def run_op(cli, ops, i, tally, tracer=None, digests=None):
    """Run op `i` once and record it; returns its stdout digest.  With
    `digests` given, an op whose stdout differs from it is wrong."""
    op = ops[i]
    gc.collect()
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        rc, out, _ = workloads.invoke(cli, op.argv)
    except Exception:
        traceback.print_exc()
        rc, out = None, ""
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(out.encode()).hexdigest()
    verdict, reason = judge(op, rc, out)
    if digests is not None and digest != digests[i]:
        verdict, reason = "wrong", "traced stdout differs from untraced"
    tally.record(i, op, seconds, verdict, reason)
    return digest


def run_pass(cli, ops, tally, tracer=None, digests=None):
    """One pass over the op list; returns the stdout digest of each op."""
    return [run_op(cli, ops, i, tally, tracer, digests)
            for i in range(len(ops))]


def import_cli():
    """Import mobiuslab afresh from the checkout's src/."""
    for mod in layertrace.Tracer.modules():
        del sys.modules[mod.__name__]
    cli = importlib.import_module("mobiuslab.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise workloads.SetupError(f"mobiuslab imported from {cli.__file__}")
    return cli


def set_up(workload, seed, workdir):
    """Import mobiuslab afresh and write the workload's inputs.  Returns
    the module, the op list and the seconds taken."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = time.perf_counter()
    cli = import_cli()
    ops = workloads.build(workload, cli, seed, workdir)
    return cli, ops, time.perf_counter() - t0


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def end_to_end(cli, ops, seconds, tally, redo_setup):
    """Metrics over each op's fastest time.  Load from elsewhere on a
    shared machine changes its speed by up to half from one second to the
    next; the fastest of samples taken seconds apart leaves most of that
    out.  Passes over the op list repeat until `seconds` have elapsed; the
    last one stops there, so some ops may have one sample fewer.  Before
    each of the first passes after the first, `redo_setup()` runs once
    more, so that the set-ups too are seconds apart.  It returns a fresh
    module, which the passes after it use, and its seconds, which are
    returned with the metrics."""
    start = time.perf_counter()
    run_pass(cli, ops, tally)
    # after one pass, so that where the last pass stops cannot matter
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = []
    k = 0
    while time.perf_counter() - start < seconds:
        if k % len(ops) == 0 and len(setups) < SETUP_REPEATS - 1:
            cli, setup_s = redo_setup()
            setups.append(setup_s)
        run_op(cli, ops, k % len(ops), tally)
        k += 1
    per_op = tally.fastest()
    return setups, {
        "ops_per_s": len(ops) / sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p90_ms": 1000 * nearest_rank(per_op, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(cli, ops, workload, seed, workdir, seconds, tally):
    """Untraced and traced passes alternate, starting untraced, until
    `seconds` have elapsed; per-layer values are per traced pass."""
    start = time.perf_counter()
    traced = Tally(len(ops))
    digests = run_pass(cli, ops, tally)
    tracer = layertrace.Tracer()
    with tracer:
        workloads.build(workload, cli, seed, workdir)
    setup_counts = tracer.counts.copy()
    setup_spans = len(tracer.start)
    passes = 0
    while True:
        with tracer:
            run_pass(cli, ops, traced, tracer, digests)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
        run_pass(cli, ops, tally)
    overhead = sum(traced.fastest()) / sum(tally.fastest())
    tally.merge(traced)
    self_s = tracer.self_times()
    counts = tracer.counts - setup_counts
    vectors = counts["posets.mobius.vectors"]
    join_meet = counts["lattices.join_meet.calls"]
    metrics = {f"{layer}.self_s": self_s[False, layer] / passes
               for layer in SELF_TIMES}
    metrics.update({f"setup.{layer}.self_s": self_s[True, layer]
                    for layer in SETUP_SELF_TIMES})
    for key in ("posets.construct.calls", "posets.construct.elements",
                "posets.mobius.vectors", "posets.mobius_idx.calls",
                "lattices.join_meet.calls"):
        metrics[key] = counts[key] / passes
    metrics.update({
        "posets.mobius.reuse":
            counts["posets.mobius_idx.calls"] / vectors if vectors else 0.0,
        "lattices.join_meet.eager_share":
            counts["lattices.join_meet.eager"] / join_meet if join_meet
            else 0.0,
        "exactmat.calls": tracer.layer_calls("exactmat") / passes,
        "trace.spans": (len(tracer.start) - setup_spans) / passes,
        "trace.overhead": overhead,
    })
    tracer.write(os.path.join(WORK, f"spans-{workload}-{seed}.tsv"))
    return metrics


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mobiuslab", "cli.py")):
        print(f"error: no mobiuslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, args.workload)
    try:
        cli, ops, setup_s = set_up(args.workload, args.seed, workdir)
        setups = [setup_s]
    except (workloads.SetupError, ImportError, OSError) as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    # a known defect fails on every pass, so it would make `failed` depend
    # on how many passes fit in the run; it runs once, after them
    known = [op for op in ops if op.known_defect]
    ops = [op for op in ops if not op.known_defect]
    tally = Tally(len(ops))
    if args.trace:
        metrics = per_layer(cli, ops, args.workload, args.seed, workdir,
                            args.seconds, tally)
        units = dict(PER_LAYER)
    else:
        # a repeated set-up writes the same inputs, so its op list is not
        # needed
        more, metrics = end_to_end(
            cli, ops, args.seconds, tally,
            lambda: set_up(args.workload, args.seed, workdir)[::2])
        setups += more
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    defects = Tally(len(known))
    for i in range(len(known)):
        run_op(cli, known, i, defects)
    shutil.rmtree(workdir, ignore_errors=True)

    per_op = sorted(len(s) for s in tally.samples)
    fail_frac = tally.failed / tally.attempted
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "ops": len(ops),
        "timings": tally.attempted,
        "timings_per_op": {"min": per_op[0], "median": per_op[len(ops) // 2],
                           "max": per_op[-1]},
        "percentile_samples": len(ops),
        "samples_beyond_p90": len(ops) - math.ceil(0.9 * len(ops)),
        "setup_repeats": len(setups),
        "fail_frac": fail_frac, "failures": tally.reasons,
        "known_defects": {"ops": [op.name for op in known],
                          "failed": defects.failed},
    }
    print("provenance " + json.dumps(provenance))
    for reason in defects.reasons:
        print("known_defect " + reason)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(f"{'fail_frac':40s} {fail_frac:.6g} ratio")
    print(json.dumps({
        "correct": tally.wrong + defects.wrong == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
