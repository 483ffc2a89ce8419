"""In-process half of the benchmark: set-up, the closed loop of CLI commands, checks.

`run.py` starts this file twice per run, with OpenBLAS pinned to one thread:
`setup` generates the seeded inputs and trains the pairs (timed, repeated),
then `ops` calls `partfuse.cli.main(argv)` in a closed loop with one client
until the time budget is spent, checks every command's outputs and reports
per-command wall times and, in untraced runs, the times of the reference
loop (`reference.py`) run around each command.  Each prints one JSON object
as its last line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from partfuse import cli, data as datamod, netcore
from partfuse.analysis import CSV_HEADER

import inputs
import oracle
import reference
from tracer import Recorder, summarize

# Trained pair families.  "paper" is the paper's 784-100-100-100-10 MLP;
# "small" is 784-32-32-10, where a sweep makes many small transport solves.
FAMILIES = {
    "paper": {"width": 100, "depth": 3, "pairs": 3, "epochs": 2},
    "small": {"width": 32, "depth": 2, "pairs": 2, "epochs": 2},
}
SPLIT_DIGIT = 4
SWEEP_ALPHAS = ("0", "0.4", "1")
SWEEP_LAMBDAS = ("0.5", "1")
SWEEP_METHODS = ("partial-ot", "prune", "prune-post")

# name -> (family, CLI flags of one command, expected hidden widths or None)
WORKLOADS = {
    "fuse-greedy": (
        "paper",
        ["fuse", "--method", "partial-ot", "--align", "greedy", "--features", "weights",
         "--alpha", "0.4", "--lambda", "0.5"],
        None,
    ),
    "prune-cluster": (
        "paper",
        ["fuse", "--method", "cluster", "--alpha", "0.4", "--lambda", "0.5",
         "--cluster-restarts", "20"],
        "140x140x140",
    ),
    "sweep-grid": (
        "small",
        ["sweep", "--jobs", "1", "--alphas", ";".join(SWEEP_ALPHAS),
         "--lambdas", ",".join(SWEEP_LAMBDAS), "--methods", ",".join(SWEEP_METHODS),
         "--align", "greedy"],
        None,
    ),
}
# Parts of the reference loop (reference.py) that make up each workload's
# ref.  prune-cluster spends 98% of its CPU time in Ward restarts, and the
# mix of all parts did not track its speed (ten seeds spread 0.15 in refs,
# 0.07 in wall time), so its ref is the Ward-shaped part alone.
REFERENCE_PARTS = {
    "fuse-greedy": tuple(reference.PARTS),
    "prune-cluster": ("pair_array",),
    "sweep-grid": tuple(reference.PARTS),
}
# reference loop time spent after each command, as a share of its wall time
REFERENCE_SHARE = 0.1
REFERENCE_FIRST_S = 0.3
CROSS_MANIFEST = "cross-manifest.txt"
PAIR_MANIFEST = "cross-pair{}.txt"
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def setup_once(directory: Path, family: str, seed: int) -> float:
    """Generate the inputs and train the family's pairs; returns seconds."""
    spec = FAMILIES[family]
    start = time.perf_counter()
    inputs.write_inputs(directory / "data", seed)
    argv = [
        "train", "--data-dir", str(directory / "data"), "--out", str(directory / "nets"),
        "--pairs", str(spec["pairs"]), "--split-digit", str(SPLIT_DIGIT),
        "--width", str(spec["width"]), "--depth", str(spec["depth"]),
        "--epochs", str(spec["epochs"]), "--seed-base", str(seed),
    ]
    code = _quiet_main(argv)
    if code != 0:
        raise RuntimeError(f"partfuse train exited with {code}")
    # every A net against every B net: pairs^2 distinct fusion inputs, in one
    # manifest (fuse --pair k) and in one manifest per cross pair (sweep)
    pairs = spec["pairs"]
    lines = []
    for i in range(pairs):
        for j in range(pairs):
            k = i * pairs + j
            pair_lines = [f"pair{i}_A.pfnn A{k}", f"pair{j}_B.pfnn B{k}"]
            (directory / "nets" / PAIR_MANIFEST.format(k)).write_text("\n".join(pair_lines) + "\n")
            lines += pair_lines
    (directory / "nets" / CROSS_MANIFEST).write_text("\n".join(lines) + "\n")
    return time.perf_counter() - start


def _tree_digests(directory: Path):
    return {str(p.relative_to(directory)): _sha256(p) for p in sorted(directory.rglob("*")) if p.is_file()}


def cmd_setup(args) -> dict:
    """Set up `repeats` times into rep0..; the copies must be byte-identical."""
    family = WORKLOADS[args.workload][0]
    recorder = Recorder() if args.trace else None
    if recorder:
        recorder.install()
    seconds, digests = [], []
    for rep in range(args.repeats):
        rep_dir = Path(args.dir) / f"rep{rep}"
        seconds.append(setup_once(rep_dir, family, args.seed))
        digests.append(_tree_digests(rep_dir))
    out = {"seconds": seconds, "reproducible": all(d == digests[0] for d in digests)}
    if recorder:
        recorder.uninstall()
        recorder.write_jsonl(args.spans)
        out["train_busy_s"] = sum(
            s["t1"] - s["t0"] for s in recorder.spans() if s["name"] == "train.train_mlp"
        )
    return out


# ---------------------------------------------------------------------------
# checks


def _csv_rows(path: Path):
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    return [line.split(",") for line in lines[1:]]


class Checker:
    """Output checks of one workload; `check` returns (networks built, problem)."""

    def __init__(self, workload: str, setup_dir: Path, seed: int):
        self.family, _, self.widths = WORKLOADS[workload]
        self.seen = {}
        self.reference = None
        if seed == REFERENCE_SEED and REFERENCE_FILE.exists():
            self.reference = json.loads(REFERENCE_FILE.read_text()).get(workload)
        self.expected_rows = 1
        self.expected_ensemble = {}
        self.parent_widths = None
        if workload == "sweep-grid":
            self.expected_rows = len(SWEEP_ALPHAS) * len(SWEEP_LAMBDAS) * len(SWEEP_METHODS)
            self._prepare_sweep(setup_dir)

    def _prepare_sweep(self, setup_dir: Path):
        paths = datamod.find_mnist(setup_dir / "data")
        test = datamod.load_idx(paths["test_images"], paths["test_labels"])
        pairs = FAMILIES[self.family]["pairs"]
        for k in range(pairs * pairs):
            net_a = netcore.load(setup_dir / "nets" / f"pair{k // pairs}_A.pfnn")
            net_b = netcore.load(setup_dir / "nets" / f"pair{k % pairs}_B.pfnn")
            self.parent_widths = "x".join(str(w) for w in net_a.hidden_dims)
            for lam in SWEEP_LAMBDAS:
                ensemble = netcore.make_ensemble(net_a, net_b, float(lam))
                acc = netcore.evaluate_accuracy(ensemble, test)
                self.expected_ensemble[(str(k), f"{float(lam):g}")] = f"{acc:.6f}"

    def _rows_problem(self, rows):
        for row in rows:
            method, alpha, lam, seed, acc, _, _, widths, _ = row
            if acc.startswith("error:") or not acc:
                return f"row {row} has no accuracy"
            if self.widths and widths != self.widths:
                return f"widths {widths}, expected {self.widths}"
            if alpha == "0" and self.parent_widths and widths != self.parent_widths:
                return f"alpha=0 row widths {widths} differ from parent {self.parent_widths}"
            if method == "partial-ot" and alpha == "1" and self.expected_ensemble:
                want = self.expected_ensemble[(seed, lam)]
                if acc != want:
                    return f"alpha=1 accuracy {acc} is not the ensemble's {want}"
        return None

    def check(self, key: str, code, outputs):
        if code != 0:
            return 0, f"exit {code}"
        rows = _csv_rows(outputs[-1])
        if len(rows) != self.expected_rows:
            return 0, f"{len(rows)} CSV rows, expected {self.expected_rows}"
        problem = self._rows_problem(rows)
        if problem:
            return 0, problem
        digests = [_sha256(p) for p in outputs]
        first = self.seen.setdefault(key, digests)
        if digests != first:
            return 0, f"outputs of {key} differ between repetitions"
        if self.reference is not None and self.reference.get(key) != digests:
            return 0, f"outputs of {key} differ from the reference digests"
        return len(rows), None


# ---------------------------------------------------------------------------
# the closed loop


def _command(workload: str, k: int, setup_dir: Path, out_dir: Path):
    """argv, output paths and repetition key of the k-th command on pair input `k`."""
    family, flags, _ = WORKLOADS[workload]
    pair = k % FAMILIES[family]["pairs"] ** 2
    data = ["--data-dir", str(setup_dir / "data")]
    if flags[0] == "sweep":
        csv = out_dir / "sweep.csv"
        manifest = setup_dir / "nets" / PAIR_MANIFEST.format(pair)
        return [*flags, "--manifest", str(manifest), *data, "--out", str(csv)], [csv], f"sweep{pair}"
    common = ["--manifest", str(setup_dir / "nets" / CROSS_MANIFEST), *data]
    pfnn, csv = out_dir / "fused.pfnn", out_dir / "records.csv"
    argv = [*flags, *common, "--pair", str(pair), "--out", str(pfnn), "--records", str(csv)]
    return argv, [pfnn, csv], f"pair{pair}"


def _finish_traced_op(recorder: Recorder, op: int):
    """Digest and oracle-check the op's transport instances, outside its timing."""
    for span in recorder.spans():
        instance = span.pop("_instance", None) if span["op"] == op else None
        if instance is None:
            continue
        mu, nu, cost, alpha, matrix = instance
        h = hashlib.blake2b(digest_size=16)
        for part in (cost, mu, nu):
            h.update(part.tobytes())
        h.update(repr(alpha).encode())
        span["key"] = h.hexdigest()
        if oracle.available():
            span["gap"] = oracle.relative_gap(mu, nu, cost, alpha, matrix)


def _reference_passes(workload: str, budget_s: float):
    """Passes of the workload's reference loop until `budget_s` seconds are spent; at least one."""
    passes, spent = [], 0.0
    while not passes or spent < budget_s:
        passes.append(reference.part_seconds(REFERENCE_PARTS[workload]))
        spent += sum(passes[-1].values())
    return passes


def cmd_ops(args) -> dict:
    setup_dir = Path(args.dir) / "rep0"
    out_dir = Path(args.dir) / "out"
    checker = Checker(args.workload, setup_dir, args.seed)
    recorder = Recorder() if args.trace else None
    op_seconds, traced, untraced, problems = [], [], [], []
    # untraced runs bracket every command with passes of the reference loop:
    # brackets i and i + 1 are measured just before and just after command i
    ref_brackets = [] if recorder else [_reference_passes(args.workload, REFERENCE_FIRST_S)]
    nets = failed = 0
    cycle = []
    start = time.perf_counter()
    op = 0
    while True:
        begin = time.perf_counter()
        # a traced run alternates untraced and traced commands on the same input
        is_traced = recorder is not None and op % 2 == 1
        argv, outputs, key = _command(args.workload, op // 2 if recorder else op, setup_dir, out_dir)
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        if is_traced:
            recorder.op = op
            recorder.install()
        t0 = time.perf_counter()
        try:
            code = _quiet_main(argv)
        except Exception as exc:  # noqa: BLE001 - an escaping exception is a failed op
            code = type(exc).__name__
        elapsed = time.perf_counter() - t0
        if is_traced:
            recorder.uninstall()
            _finish_traced_op(recorder, op)
        if not recorder:
            ref_brackets.append(_reference_passes(args.workload, REFERENCE_SHARE * elapsed))
        op_seconds.append(elapsed)
        (traced if is_traced else untraced).append(elapsed)
        try:
            built, problem = checker.check(key, code, outputs)
        except (OSError, ValueError) as exc:
            built, problem = 0, f"{type(exc).__name__}: {exc}"
        nets += built
        if problem:
            failed += 1
            problems.append(f"op {op} ({key}): {problem}")
        op += 1
        cycle.append(time.perf_counter() - begin)
        spent = time.perf_counter() - start
        # stop before a command (a traced run: an untraced/traced couple) that
        # would likely end after the budget
        step = 2 if recorder else 1
        if op % step == 0 and spent + step * statistics.median(cycle) > args.seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "attempted": op,
        "failed": failed,
        "problems": problems[:5],
        "op_seconds": op_seconds,
        "ref_brackets": ref_brackets,
        "nets": nets,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder:
        recorder.write_jsonl(args.spans)
        result["layers"] = summarize(recorder.spans())
        result["traced_s"], result["untraced_s"] = sum(traced), sum(untraced)
        result["oracle"] = oracle.available()
    return result


def cmd_reference(args) -> dict:
    """Record the output digests of every distinct command at REFERENCE_SEED."""
    table = {}
    for workload, (family, flags, _) in WORKLOADS.items():
        setup_dir = Path(args.dir) / family
        if not setup_dir.exists():
            setup_once(setup_dir, family, REFERENCE_SEED)
        out_dir = Path(args.dir) / "out"
        for k in range(FAMILIES[family]["pairs"] ** 2):
            out_dir.mkdir(parents=True, exist_ok=True)
            argv, outputs, key = _command(workload, k, setup_dir, out_dir)
            if _quiet_main(argv) != 0:
                raise RuntimeError(f"{workload} {key} failed")
            table.setdefault(workload, {})[key] = [_sha256(p) for p in outputs]
            shutil.rmtree(out_dir)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return {"recorded": sum(len(v) for v in table.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=["setup", "ops", "reference"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None, help="JSONL file for the recorded spans")
    args = parser.parse_args(argv)
    steps = {"setup": cmd_setup, "ops": cmd_ops, "reference": cmd_reference}
    print(json.dumps(steps[args.step](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
