"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/test_perfbench.py"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from partfuse import transport  # noqa: E402
from tracer import Recorder, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _file_bytes(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_inputs_are_deterministic_per_seed(tmp_path):
    inputs.write_inputs(tmp_path / "a", 3)
    inputs.write_inputs(tmp_path / "b", 3)
    inputs.write_inputs(tmp_path / "c", 4)
    a, b, c = (_file_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    """One small trained pair, so every workload's command runs in seconds."""
    directory = tmp_path_factory.mktemp("setup")
    families = dict(bench.FAMILIES)
    bench.FAMILIES.update({k: {"width": 12, "depth": 2, "pairs": 1, "epochs": 1} for k in families})
    try:
        bench.setup_once(directory, "paper", 5)
        yield directory
    finally:
        bench.FAMILIES.update(families)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(tiny_setup, tmp_path, workload):
    outputs = {}
    for traced in (False, True):
        out_dir = tmp_path / str(traced)
        out_dir.mkdir()
        argv, paths, _ = bench._command(workload, 0, tiny_setup, out_dir)
        recorder = Recorder()
        if traced:
            recorder.install()
        try:
            assert bench._quiet_main(argv) == 0
        finally:
            recorder.uninstall()
        outputs[traced] = [p.read_bytes() for p in paths]
        if traced:
            names = {s["name"] for s in recorder.spans()}
            assert "cli.main" in names and "netcore.io" in names
    assert outputs[False] == outputs[True]


def test_nested_solve_counts_once():
    recorder = Recorder()
    recorder.install()
    try:
        mu = transport.DiscreteMeasure.uniform(4)
        cost = np.arange(16, dtype=float).reshape(4, 4) % 5
        transport.solve_partial_ot(mu, mu, cost, 0.0)  # calls solve_ot inside
    finally:
        recorder.uninstall()
    solves = [s for s in recorder.spans() if s["name"] == "transport.solve"]
    assert len(solves) == 1 and summarize(recorder.spans())["transport.solve.calls"] == 1


@pytest.mark.skipif(not oracle.available(), reason="scipy missing")
@pytest.mark.parametrize("shape,alpha", [((6, 6), 0.0), ((6, 4), 0.0), ((6, 6), 0.4)])
def test_oracle_agrees_with_the_solver(shape, alpha):
    rng = np.random.default_rng(0)
    cost = rng.normal(size=shape)
    mu = transport.DiscreteMeasure.uniform(shape[0])
    nu = transport.DiscreteMeasure.uniform(shape[1])
    plan = transport.solve_partial_ot(mu, nu, cost, alpha)
    assert oracle.relative_gap(mu.masses, nu.masses, cost, alpha, plan.matrix) < 1e-12


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_reference_passes_fill_their_budget(workload):
    (single,) = bench._reference_passes(workload, 0.0)
    assert set(single) == set(bench.REFERENCE_PARTS[workload])
    assert all(seconds > 0 for seconds in single.values())
    passes = bench._reference_passes(workload, 0.2)
    assert sum(sum(p.values()) for p in passes) >= 0.2


def test_printed_names_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace in (0, 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "prune-cluster",
             "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert all(NAME.fullmatch(name) for name in printed)
        assert printed == declared[trace]
