"""partfuse benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fuse-greedy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The set-up step (seeded inputs, trained
pairs) and the closed loop of CLI commands each run in a child process
(`bench.py`) with BLAS pinned to one thread, so the loop's peak resident
memory excludes set-up.  `--trace 0` prints the end-to-end metrics;
`--trace 1` records spans around every layer and prints the per-layer
metrics.  BENCHMARK.json declares every metric and its unit; README.md
explains the workloads, the metrics and the predicted split.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fuse-greedy", "prune-cluster", "sweep-grid")
SETUP_REPEATS = 3
# child time limits (s); together they keep a run under 180 s
SETUP_TIMEOUT_S = 60
OPS_GRACE_S = 80


def _child(step, args, work, extra, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [
        sys.executable, str(HERE / "bench.py"), step,
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(work),
        "--trace", str(args.trace), *extra,
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"bench.py {step} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "partfuse" / "cli.py").is_file():
        print(f"partfuse sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    spans_dir = ROOT / ".perfbench_spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = _child(
            "setup", args, work,
            ["--repeats", str(1 if args.trace else SETUP_REPEATS),
             "--spans", str(spans_dir / f"{tag}-setup.jsonl")],
            SETUP_TIMEOUT_S,
        )
        ops = _child(
            "ops", args, work,
            ["--seconds", str(args.seconds), "--spans", str(spans_dir / f"{tag}-ops.jsonl")],
            args.seconds + OPS_GRACE_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = ops["attempted"], ops["failed"]
    for problem in ops["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not setup["reproducible"]:
        print("check failed: repeated set-up produced different bytes", file=sys.stderr)
    times = ops["op_seconds"]
    if args.trace:
        metrics = dict(ops["layers"])
        metrics["train.train_mlp.busy_s"] = setup["train_busy_s"]
        metrics["trace.overhead"] = ops["traced_s"] / ops["untraced_s"] - 1.0
        if not ops["oracle"]:
            print("transport.oracle: scipy is missing, instances were not checked", file=sys.stderr)
    else:
        # each command's time in refs: its wall time over the median time of
        # the reference loop passes run just before and just after it
        passes = [[sum(p.values()) for p in bracket] for bracket in ops["ref_brackets"]]
        in_refs = [t / statistics.median(passes[i] + passes[i + 1]) for i, t in enumerate(times)]
        metrics = {
            "setup_s": statistics.median(setup["seconds"]),
            "nets_per_kref": 1000.0 * ops["nets"] / sum(in_refs),
            "op_p50_ref": statistics.median(in_refs),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": ops["peak_rss_mb"],
        }
        print(
            f"{args.workload}: {attempted} commands, op_p50_ref over {len(times)} samples; "
            f"wall time per command p50 {statistics.median(times):.4f} s, "
            f"reference loop p50 {statistics.median(sum(passes, [])) * 1e3:.2f} ms",
            file=sys.stderr,
        )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": failed == 0 and setup["reproducible"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
