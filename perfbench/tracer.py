"""Span recorder that wraps partfuse's public functions from outside the package.

Nothing inside `src/` is instrumented.  `Recorder.install` replaces each
function listed in LAYERS at every module attribute that holds it (for
example `fusion.solve_partial_ot` as well as `transport.solve_partial_ot`),
so calls are caught whichever module they go through.  Spans are kept per
thread in memory and written as JSONL when the benchmark ends.

A span is a dict: id, parent (same thread), name, op (the CLI command it
belongs to), t0/t1 (perf_counter seconds), cpu (thread CPU seconds) and,
for some layers, counts taken from the call's arguments or result.  A call
made while a span of the same name is open on the thread (a `solve_ot`
inside `solve_partial_ot`) records no span of its own, so it counts once.
"""

import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time

# span name -> (module, public functions recorded under that name)
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "analysis.sweep": ("analysis", ("tradeoff_sweep",)),
    "analysis.cell": ("analysis", ("run_cell",)),
    "analysis.count": ("analysis", ("count_params",)),
    "fusion.fuse": ("fusion", ("partial_fuse", "ot_fuse")),
    "fusion.align": ("fusion", ("fixed_point_align", "greedy_align")),
    "fusion.objective": ("fusion", ("alignment_objective",)),
    "fusion.features": ("fusion", ("features_activation", "features_weight")),
    "fusion.plan": ("fusion", ("build_match_plan",)),
    "fusion.assemble": ("fusion", ("assemble_partial_layer",)),
    "transport.solve": ("transport", ("solve_ot", "solve_partial_ot")),
    "transport.cost_matrix": ("transport", ("cost_matrix",)),
    "transport.kernels": ("transport", ("coupling_to_kernels", "restrict_normalize_partial")),
    "clustering.ward": ("clustering", ("stochastic_ward",)),
    "clustering.kernels": ("clustering", ("assignment_to_kernels",)),
    "genprune.cluster_prune": ("genprune", ("cluster_prune",)),
    "genprune.unstructured": ("genprune", ("unstructured_prune",)),
    "genprune.prune_post": ("genprune", ("prune_with_postprocess",)),
    "genprune.apply": ("genprune", ("apply_generalized_pruning",)),
    "netcore.activations": ("netcore", ("activations",)),
    "netcore.evaluate": ("netcore", ("evaluate_accuracy",)),
    "netcore.ensemble": ("netcore", ("make_ensemble",)),
    "netcore.io": ("netcore", ("load", "save")),
    "data.load_idx": ("data", ("load_idx",)),
    "train.train_mlp": ("train", ("train_mlp",)),
}


def _solve_counts(span, args, result):
    mu, nu, cost = args["mu"], args["nu"], args["cost"]
    span["rows"], span["cols"] = len(mu), len(nu)
    # kept in memory only (keys starting with "_" are not written); the
    # benchmark turns it into a digest and an oracle gap after the command
    span["_instance"] = (mu.masses, nu.masses, cost, args.get("alpha"), result.matrix)


def _plan_counts(span, args, result):
    span["splits"] = len(result[0].split_directives)


def _ward_counts(span, args, result):
    span["merges"] = args["restarts"] * (len(args["points"]) - args["m"])


def _io_counts(span, args, result):
    span["bytes"] = os.path.getsize(args["path"])


def _idx_counts(span, args, result):
    span["bytes"] = os.path.getsize(args["images_path"]) + os.path.getsize(args["labels_path"])


HOOKS = {
    "transport.solve": _solve_counts,
    "fusion.plan": _plan_counts,
    "clustering.ward": _ward_counts,
    "netcore.io": _io_counts,
    "data.load_idx": _idx_counts,
}


class Recorder:
    """Holds the spans of every thread; `op` tags spans with the current command."""

    def __init__(self):
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists = []
        self._restore = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (open-span stack, finished spans)
            with self._lock:
                self._lists.append(state[1])
        return state

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack, done = self._thread_state()
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = {
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "op": self.op,
                "tid": threading.get_ident(),
            }
            stack.append(span)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["t1"] = time.perf_counter()
                span["cpu"] = time.thread_time() - c0
                span["t0"] = t0
                stack.pop()
                done.append(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Wrap every LAYERS function at each partfuse module attribute holding it."""
        if self._restore:
            raise RuntimeError("recorder already installed")
        importlib.import_module("partfuse.cli")
        modules = [
            module for key, module in sorted(sys.modules.items())
            if key == "partfuse" or key.startswith("partfuse.")
        ]
        for name, (module_name, functions) in LAYERS.items():
            home = importlib.import_module(f"partfuse.{module_name}")
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def spans(self):
        with self._lock:
            return sorted((s for lst in self._lists for s in lst), key=lambda s: s["id"])

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans():
                public = {k: v for k, v in span.items() if not k.startswith("_")}
                fh.write(json.dumps(public, sort_keys=True) + "\n")


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def summarize(spans):
    """Per-layer metrics of the traced commands; see perfbench/README.md."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def busy(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    def self_time(name):
        return sum(
            dur(s) - sum(dur(c) for c in children.get(s["id"], ())) for s in by_name.get(name, ())
        )

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def p50_ms(name):
        values = [dur(s) for s in by_name.get(name, ())]
        return 1000.0 * statistics.median(values) if values else 0.0

    commands = by_name.get("cli.main", [])
    op_wall = sum(dur(s) for s in commands)
    uncovered = 0.0
    for cmd in commands:
        inner = [(s["t0"], s["t1"]) for s in spans if s["op"] == cmd["op"] and s is not cmd]
        uncovered += dur(cmd) - _union_length(inner)

    # shares use CPU time, so that time a `--jobs` thread spends waiting for
    # the GIL inside a span does not count as that layer's work
    command_cpu = sum(s["cpu"] for s in spans if s["parent"] is None)

    def share(name):
        layer_cpu = sum(s["cpu"] for s in by_name.get(name, ()))
        return layer_cpu / command_cpu if command_cpu else 0.0

    solves = by_name.get("transport.solve", [])
    sizes = [(s["rows"] + s["cols"]) / 2 for s in solves if "rows" in s]
    keyed = [s for s in solves if "key" in s]
    distinct = len({(s["op"], s["key"]) for s in keyed})
    gaps = [s["gap"] for s in solves if "gap" in s]
    ward_merges = total("clustering.ward", "merges")
    return {
        "transport.solve.calls": len(solves),
        "transport.solve.busy_s": busy("transport.solve"),
        "transport.solve.share": share("transport.solve"),
        "transport.solve.p50_ms": p50_ms("transport.solve"),
        "transport.solve.size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "transport.solve.distinct_ratio": distinct / len(keyed) if keyed else 0.0,
        "transport.solve.failures": sum(1 for s in solves if "error" in s),
        "transport.cost_matrix.busy_s": busy("transport.cost_matrix"),
        "transport.kernels.busy_s": busy("transport.kernels"),
        "transport.oracle.checked": len(gaps),
        "transport.oracle.max_gap": max(gaps, default=0.0),
        "fusion.align.calls": len(by_name.get("fusion.align", ())),
        "fusion.align.busy_s": busy("fusion.align"),
        "fusion.align.self_s": self_time("fusion.align"),
        "fusion.plan.busy_s": busy("fusion.plan"),
        "fusion.plan.splits": total("fusion.plan", "splits"),
        "fusion.assemble.busy_s": busy("fusion.assemble"),
        "clustering.ward.calls": len(by_name.get("clustering.ward", ())),
        "clustering.ward.busy_s": busy("clustering.ward"),
        "clustering.ward.share": share("clustering.ward"),
        "clustering.ward.merges": ward_merges,
        "clustering.ward.us_per_merge": (
            1e6 * busy("clustering.ward") / ward_merges if ward_merges else 0.0
        ),
        "genprune.cluster_prune.self_s": self_time("genprune.cluster_prune"),
        "genprune.apply.busy_s": busy("genprune.apply"),
        "genprune.prune_post.busy_s": busy("genprune.prune_post"),
        "netcore.activations.busy_s": busy("netcore.activations"),
        "netcore.evaluate.busy_s": busy("netcore.evaluate"),
        "netcore.io.busy_s": busy("netcore.io"),
        "netcore.io.bytes": total("netcore.io", "bytes"),
        "data.load_idx.busy_s": busy("data.load_idx"),
        "data.load_idx.bytes": total("data.load_idx", "bytes"),
        "analysis.sweep.busy_s": busy("analysis.sweep"),
        "analysis.sweep.wait_s": sum(dur(s) - s["cpu"] for s in by_name.get("analysis.sweep", ())),
        "analysis.cell.p50_ms": p50_ms("analysis.cell"),
        "analysis.cell.error_rows": sum(1 for s in by_name.get("analysis.cell", ()) if "error" in s),
        "cli.main.self_s": uncovered,
        "trace.coverage": 1.0 - uncovered / op_wall if op_wall else 0.0,
    }
