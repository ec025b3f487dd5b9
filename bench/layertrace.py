"""Per-layer tracing of mobiuslab, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of each module
(plus `Poset._from_arcs` and the CLI's JSON load and emit helpers) and
rebinds every name that refers to them, in every mobiuslab module, so
`from .exactmat import mat_mul` bindings are traced too.  A span wrapper
records (op, name, start, end, parent) in flat arrays kept in memory; a
generator function gets one span per resume.  The hot tiny methods get
count-only wrappers.  Properties are not wrapped: their time counts
toward the calling span.  `uninstall()` restores every binding.

A layer's self time is the total duration of its spans minus the time
their child spans cover.
"""

import functools
import inspect
import sys
import time
import types
from array import array
from collections import Counter

PACKAGE = "mobiuslab"
MODULES = ("posets", "lattices", "inversion", "complexes", "matroid",
           "treedist", "nulldesigns", "exactmat", "instances", "cli")

_LAYERS = {
    "posets.construct": (
        "Poset.__init__", "Poset.from_covers", "Poset._from_arcs",
        "Poset.restrict", "Poset.dual", "Poset.product", "Poset.interval",
        "Poset.adjoin_bounds", "poset_from_json"),
    "posets.mobius": (
        "Poset.mobius_row", "Poset.mobius_col", "Poset.mobius_matrix",
        "Poset.mobius", "Poset.mobius_number", "mobius_number"),
    "posets.chains": (
        "Poset.chains_between", "Poset.all_chains", "Poset.mobius_by_chains"),
    "lattices.construct": ("Lattice.__init__",),
    "lattices.modular": ("is_modular_lattice", "is_modular_element"),
    "lattices.semimodular": ("is_semimodular",),
    "lattices.checks": (
        "whitney_numbers", "whitney_rank_sums", "weisner_check", "is_cutset",
        "cutset_mobius", "walker_complement_check", "modular_factorization",
        "dowling_wilson_check", "top_heavy_check", "dowling_complement_check",
        "basterfield_kelly_check", "join_irreducibles", "meet_irreducibles",
        "kung_check", "point_deletion"),
    "cli.json_in": ("_load_json", "_load_poset", "_load_graph", "_load_tree",
                    "_load_function"),
    "cli.emit": ("_emit", "_emit_csv"),
}
LAYER_OF = {(layer.split(".")[0], qual): layer
            for layer, quals in _LAYERS.items() for qual in quals}
PRIVATE = {key for key in LAYER_OF if key[1].split(".")[-1][0] == "_"}

# hot tiny methods: counted, not timed
COUNT_ONLY = {
    ("posets", "Poset.mobius_idx"): "posets.mobius_idx.calls",
    ("posets", "Poset.leq"): "posets.leq.calls",
    ("posets", "Poset.leq_labels"): "posets.leq.calls",
    ("posets", "Poset.idx"): "posets.idx.calls",
    ("lattices", "Lattice.join"): "lattices.join_meet.calls",
    ("lattices", "Lattice.meet"): "lattices.join_meet.calls",
    ("nulldesigns", "MeetSemilattice.meet"): "nulldesigns.meet.calls",
}

SETUP_OP = -1


def layer_of(module, qual):
    layer = LAYER_OF.get((module, qual))
    if layer is not None:
        return layer
    return module + ".other" if module in ("posets", "lattices") else module


def _wanted(module, qual):
    if (module, qual) in PRIVATE:
        return True
    last = qual.split(".")[-1]
    return last == "__init__" or not last.startswith("_")


class Tracer:
    """Spans and counters for one process.  Set `op` to the index of the op
    about to run (SETUP_OP during set-up) so each span carries it."""

    def __init__(self):
        self.op = SETUP_OP
        self.counts = Counter()
        self.names = []
        self.layers = []
        self.span_op = array("i")
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._lattice_depth = 0
        self._restore = []

    # -- wrappers --------------------------------------------------------

    def _span(self, module, qual, fn, hook=None):
        nid = len(self.names)
        self.names.append(f"{module}.{qual}")
        self.layers.append(layer_of(module, qual))
        stack, clock = self._stack, time.perf_counter
        span_op, span_name = self.span_op, self.span_name
        start, end, parent = self.start, self.end, self.parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_op.append(self.op)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            state = hook(args, None) if hook else None
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if hook:
                    hook(args, state)
        return wrapper

    def _generator(self, module, qual, fn):
        resume = self._span(module, qual, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                try:
                    while True:
                        try:
                            item = resume(inner)
                        except StopIteration:
                            return
                        yield item
                finally:
                    inner.close()
            return resumed()
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if self._lattice_depth and key == "lattices.join_meet.calls":
                counts["lattices.join_meet.eager"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # hooks run as hook(args, None) before the call, whose result comes
    # back as hook(args, state) after it

    def _built(self, args, state):
        if state is not None:
            self.counts["posets.construct.calls"] += 1
            self.counts["posets.construct.elements"] += args[0].n
        return True

    def _lattice(self, args, state):
        self._lattice_depth += -1 if state else 1
        return True

    def _vectors(self, args, state):
        P = args[0]
        cached = len(getattr(P, "_mu_rows", ())) + len(getattr(P, "_mu_cols",
                                                              ()))
        if state is not None:
            self.counts["posets.mobius.vectors"] += cached - state
        return cached

    def _wrap(self, module, qual, fn):
        key = COUNT_ONLY.get((module, qual))
        if key is not None:
            return self._counter(key, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator(module, qual, fn)
        hook = {"Poset.__init__": self._built,
                "Lattice.__init__": self._lattice,
                "Poset.mobius_row": self._vectors,
                "Poset.mobius_col": self._vectors}.get(qual)
        return self._span(module, qual, fn, hook)

    # -- installation ----------------------------------------------------

    @staticmethod
    def modules():
        """Every imported mobiuslab module, the package itself included."""
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self):
        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if _wanted(short, name):
                        wrapped[id(obj)] = self._wrap(short, name, obj)
                elif (isinstance(obj, type) and not name.startswith("_")
                      and not issubclass(obj, BaseException)):
                    self._install_class(short, obj)
        for mod in self.modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])
        return self

    def _install_class(self, short, cls):
        for attr, value in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if not _wanted(short, qual):
                continue
            if isinstance(value, types.FunctionType):
                new = self._wrap(short, qual, value)
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap(short, qual, value.__func__))
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def self_times(self):
        """{(is_setup, layer): self seconds} over all recorded spans."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = Counter()
        for i in range(n):
            key = (self.span_op[i] == SETUP_OP,
                   self.layers[self.span_name[i]])
            out[key] += dur[i] - child[i]
        return out

    def layer_calls(self, layer):
        per_name = Counter(self.span_name[i] for i in range(len(self.start))
                           if self.span_op[i] != SETUP_OP)
        return sum(c for nid, c in per_name.items()
                   if self.layers[nid] == layer)

    def write(self, path):
        """Spans as tab-separated op, name, start, end, parent (seconds
        from the first span), after a header line with the counters."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("# counts " + repr(dict(self.counts)) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.span_op[i]}\t{self.names[self.span_name[i]]}"
                         f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
                         f"\t{self.parent[i]}\n")
