import contextlib
import errno
import gzip
import multiprocessing
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import partfuse as pf
from partfuse import analysis, cli, clustering, fusion, netcore, transport
from partfuse import train as trainmod
from partfuse import data as datamod
from partfuse.data import IDX_IMAGES_MAGIC, write_idx_images, write_idx_labels

from conftest import HUGE_IDX_DIMS, HUGE_PFNN_DIMS, ROUTES, idle_thread, pfnn_header, rand_net


@pytest.fixture(autouse=True)
def no_process_left():
    """No command leaves a worker process behind."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def data_dir(tmp_path):
    """Tiny MNIST-shaped IDX fixture: 6x6 images, 4 classes."""
    rng = np.random.default_rng(0)
    n_train, n_test, classes = 160, 60, 4
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        labels = (np.arange(n) % classes).astype(np.uint8)
        images = np.zeros((n, 6, 6), dtype=np.uint8)
        for i, c in enumerate(labels):
            images[i, c, :] = 200  # class-coded stripe plus noise
            images[i] += rng.integers(0, 30, size=(6, 6)).astype(np.uint8)
        write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte", images)
        write_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte", labels)
    return tmp_path


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def trained_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    code = run([
        "train", "--data-dir", data_dir, "--out", out, "--pairs", "2",
        "--width", "6", "--depth", "2", "--epochs", "3",
    ])
    assert code == 0
    return out


def overflowing_manifest(trained_dir):
    """A manifest pairing pair 0's B with an A whose first two weight matrices
    are scaled by 1e200: that A's layer-2 activations and logits overflow."""
    net = pf.load(trained_dir / "pair0_A.pfnn")
    weights = [w * 1e200 if k < 2 else w for k, w in enumerate(net.weights)]
    pf.save(pf.DenseNetwork(weights, net.biases, net.activation), trained_dir / "big_A.pfnn")
    manifest = trained_dir / "big_manifest.txt"
    manifest.write_text("big_A.pfnn A0\npair0_B.pfnn B0\n")
    return manifest


class TestTrain:
    def test_writes_checkpoints_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = run([
            "train", "--data-dir", data_dir, "--out", out, "--pairs", "2",
            "--width", "5", "--depth", "2", "--epochs", "1",
        ])
        assert code == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert len(manifest) == 4
        for line in manifest:
            path, role = line.split(" ")
            assert (out / path).exists()
            assert role in {"A0", "B0", "A1", "B1"}

    def test_split_digit_mode(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = run([
            "train", "--data-dir", data_dir, "--out", out, "--pairs", "1",
            "--width", "5", "--depth", "2", "--epochs", "1", "--split-digit", "2",
        ])
        assert code == 0

    def test_split_digit_trains_on_split_rows(self, data_dir, tmp_path, monkeypatch):
        # one CPU: every network trains in this process, where the recording is
        monkeypatch.setattr(netcore, "available_cpus", lambda: 1)
        seen, train_mlp = {}, trainmod.train_mlp

        def recording(dims, part, cfg, rows=None):
            seen[cfg.seed] = rows
            return train_mlp(dims, part, cfg, rows)

        monkeypatch.setattr(trainmod, "train_mlp", recording)
        assert run(["train", "--data-dir", data_dir, "--out", tmp_path / "run", "--pairs", "2", "--width", "3",
                    "--depth", "1", "--epochs", "0", "--split-digit", "2", "--seed-base", "5"]) == 0
        paths = datamod.find_mnist(data_dir)
        train = datamod.load_idx(paths["train_images"], paths["train_labels"])
        assert sorted(seen) == [5, 6, 7, 8]
        for k in range(2):
            rows_a, rows_b = pf.split_rows(train, 2, seed=5 + k)
            assert np.array_equal(seen[5 + 2 * k], rows_a)
            assert np.array_equal(seen[5 + 2 * k + 1], rows_b)

    def test_absent_split_digit_leaves_no_out(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run([
            "train", "--data-dir", data_dir, "--out", out, "--pairs", "1",
            "--width", "5", "--depth", "2", "--epochs", "1", "--split-digit", "11",
        ])
        assert code == 1
        assert "class not present" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_identical_checkpoints(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run([
                "train", "--data-dir", data_dir, "--out", out, "--pairs", "1",
                "--width", "5", "--depth", "2", "--epochs", "1",
            ]) == 0
        a = (out1 / "pair0_A.pfnn").read_bytes()
        b = (out2 / "pair0_A.pfnn").read_bytes()
        assert a == b

    def test_missing_data_dir_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PARTFUSE_DATA_DIR", raising=False)
        code = run(["train", "--data-dir", tmp_path / "nope", "--out", tmp_path / "o"])
        assert code == 2

    @pytest.mark.parametrize("split", [[], ["--split-digit", "2"]], ids=["whole", "split-digit"])
    def test_every_route_writes_the_same_bytes(self, data_dir, tmp_path, monkeypatch, capsys, started, split):
        # route: (context, CPUs, BLAS threads, workers started beside the caller);
        # 3 CPUs deal the 6 networks to 3 workers; with BLAS on 2 threads,
        # 4 CPUs take 2 workers and 2 CPUs one
        routes = {
            "fork": (contextlib.nullcontext, 3, 1, {"fork": 2}),
            "threads": (idle_thread, 3, 1, {"threads": 2}),
            "serial": (contextlib.nullcontext, 1, 1, {}),
            "fork-blas2": (contextlib.nullcontext, 4, 2, {"fork": 1}),
            "serial-blas2": (contextlib.nullcontext, 2, 2, {}),
        }
        trees = {}
        for route, (context, cpus, blas, helpers) in routes.items():
            monkeypatch.setattr(netcore, "available_cpus", lambda cpus=cpus: cpus)
            monkeypatch.setattr(netcore, "blas_threads", lambda blas=blas: blas)
            started.clear()
            out = tmp_path / route
            with context():
                assert run(["train", "--data-dir", data_dir, "--out", out, "--pairs", "3", "--width", "5",
                            "--depth", "2", "--epochs", "2", *split]) == 0
            assert started == helpers
            wrote = capsys.readouterr().out.replace(str(out), "<out>")
            trees[route] = wrote, {p.name: p.read_bytes() for p in out.iterdir()}
        assert all(tree == trees["serial"] for tree in trees.values())
        assert len(trees["serial"][1]) == 7

    @pytest.mark.one_cpu
    def test_forks_one_child_per_extra_cpu(self, data_dir, tmp_path, started):
        # the real affinity lookup: pinned to one CPU, nothing is forked
        assert run(["train", "--data-dir", data_dir, "--out", tmp_path / "run", "--pairs", "2", "--width", "3",
                    "--depth", "1", "--epochs", "1"]) == 0
        helpers = min(4, netcore.available_cpus() // netcore.blas_threads()) - 1
        assert started == ({"fork": helpers} if helpers > 0 else {})

    def test_networks_go_largest_first_to_the_least_loaded_worker(self):
        # split-digit rows: the B nets are about 4x the A nets, and dealing
        # network t to worker t mod 2 would give one worker all three
        assert cli._balanced_shares([1140, 4860] * 3, 2) == [[1, 5], [3, 0, 2, 4]]
        assert cli._balanced_shares([7] * 4, 3) == [[0, 3], [1], [2]]


class TestFuse:
    def test_alpha_zero_partial_ot(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "fused.pfnn"
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--pair", "0", "--alpha", "0", "--lambda", "0.5", "--out", out,
            "--records", tmp_path / "records.csv",
        ])
        assert code == 0
        fused = pf.load(out)
        assert fused.hidden_dims == (6, 6)
        records = (tmp_path / "records.csv").read_text().splitlines()
        assert records[0] == cli.CSV_HEADER
        assert len(records) == 2

    def test_records_into_empty_file_start_with_header(self, data_dir, trained_dir, tmp_path):
        records = tmp_path / "records.csv"
        records.touch()
        for _ in range(2):
            code = run([
                "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                "--align", "greedy", "--alpha", "0.4", "--out", tmp_path / "fused.pfnn",
                "--records", records,
            ])
            assert code == 0
        lines = records.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 3 and lines[1] == lines[2]

    def test_default_fuse_never_evaluates_the_objective(self, data_dir, trained_dir, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fixed-point alignment evaluated its objective")

        monkeypatch.setattr(fusion, "alignment_objective", fail)
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--out", tmp_path / "fused.pfnn",
        ])
        assert code == 0

    def test_alpha_one_is_ensemble_sized(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "fused.pfnn"
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--pair", "0", "--alpha", "1", "--out", out,
        ])
        assert code == 0
        assert pf.load(out).hidden_dims == (12, 12)

    def test_per_layer_alpha_list(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "fused.pfnn"
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--pair", "0", "--alpha", "1,0", "--out", out,
        ])
        assert code == 0
        assert pf.load(out).hidden_dims == (12, 6)

    def test_overflowing_alignment_costs_exit_3(self, data_dir, trained_dir, tmp_path, capsys):
        net = pf.load(trained_dir / "pair0_B.pfnn")
        weights = [w * 1e160 if k == 1 else w for k, w in enumerate(net.weights)]
        pf.save(
            pf.DenseNetwork(weights, net.biases, net.activation),
            trained_dir / "big_B.pfnn",
        )
        manifest = trained_dir / "big_manifest.txt"
        manifest.write_text("pair0_A.pfnn A0\nbig_B.pfnn B0\n")
        out = tmp_path / "x.pfnn"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "fuse", "--data-dir", data_dir, "--manifest", manifest, "--pair", "0",
                "--method", "partial-ot", "--align", "greedy", "--features", "weights",
                "--out", out,
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "alignment costs are not finite" in err
        assert not out.exists()

    def test_non_finite_logits_exit_3(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "x.pfnn"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "fuse", "--data-dir", data_dir, "--manifest", overflowing_manifest(trained_dir),
                "--method", "prune", "--alpha", "0.5", "--out", out,
            ])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: logits are not finite")
        assert not out.exists()

    def test_unknown_pair_exit_1(self, data_dir, trained_dir, tmp_path):
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--pair", "7", "--out", tmp_path / "x.pfnn",
        ])
        assert code == 1

    @pytest.mark.parametrize("bad_line", ["pair0_A.pfnn", "pair0_A.pfnn Ax", "pair0_A\0.pfnn A0"])
    def test_malformed_manifest_line_exit_2(self, trained_dir, tmp_path, capsys, bad_line):
        manifest = trained_dir / "bad_manifest.txt"
        manifest.write_text(f"pair0_B.pfnn B0\n\n{bad_line}\n")
        code = run(["fuse", "--manifest", manifest, "--pair", "0", "--out", tmp_path / "x.pfnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "line 3" in err

    @pytest.mark.parametrize("present", ["A", "B"])
    def test_half_manifest_pair_exit_2(self, trained_dir, tmp_path, capsys, present):
        manifest = trained_dir / "half_manifest.txt"
        manifest.write_text(f"pair0_{present}.pfnn {present}0\n")
        code = run(["fuse", "--manifest", manifest, "--pair", "0", "--out", tmp_path / "x.pfnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(manifest) in err and "pair 0" in err

    def test_duplicate_manifest_role_exit_2(self, trained_dir, tmp_path, capsys):
        manifest = trained_dir / "dup_manifest.txt"
        manifest.write_text("pair0_A.pfnn A0\npair1_A.pfnn A0\npair0_B.pfnn B0\n")
        code = run(["fuse", "--manifest", manifest, "--pair", "0", "--out", tmp_path / "x.pfnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(manifest) in err
        assert "lines 1 and 2" in err and not (tmp_path / "x.pfnn").exists()

    def test_non_utf8_manifest_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"\xff\xfe bad A0\n")
        code = run(["fuse", "--manifest", manifest, "--out", tmp_path / "x.pfnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {manifest}: not UTF-8")

    def test_alpha_within_1e_9_of_zero_is_alpha_zero(self, data_dir, trained_dir, tmp_path):
        outs = []
        for alpha in ("0", "1e-12"):
            outs.append(tmp_path / f"alpha{alpha}.pfnn")
            assert run([
                "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                "--alpha", alpha, "--align", "greedy", "--out", outs[-1],
            ]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_env_data_dir_without_mnist_cannot_feed_features(
        self, trained_dir, tmp_path, monkeypatch, capsys
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setenv(datamod.DATA_DIR_ENV, str(empty))
        code = run([
            "fuse", "--manifest", trained_dir / "manifest.txt", "--method", "cluster",
            "--out", tmp_path / "x.pfnn",
        ])
        assert code == 1
        assert "needs data for features" in capsys.readouterr().err
        assert not (tmp_path / "x.pfnn").exists()

    def test_directory_as_manifest_exit_2(self, tmp_path, capsys):
        code = run(["fuse", "--manifest", tmp_path, "--out", tmp_path / "x.pfnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_explicit_data_dir_without_mnist_exit_2(self, trained_dir, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run([
            "fuse", "--data-dir", empty, "--manifest", trained_dir / "manifest.txt",
            "--pair", "0", "--out", tmp_path / "x.pfnn",
        ])
        assert code == 2
        assert not (tmp_path / "x.pfnn").exists()

    def test_export_couplings_usage_error_before_any_work(self, data_dir, trained_dir, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fused before rejecting the flags")

        monkeypatch.setattr(analysis, "run_cell", fail)
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--pair", "0", "--method", "cluster", "--out", tmp_path / "x.pfnn",
            "--export-couplings", tmp_path / "c.csv",
        ])
        assert code == 1


    @pytest.mark.parametrize("flag", ["--records", "--export-couplings"])
    def test_one_file_named_twice_exit_1_before_any_read(self, data_dir, trained_dir, tmp_path, capsys,
                                                          monkeypatch, flag):
        argv = ["fuse", "--manifest", "{manifest}", "--out", "{tmp}/x.pfnn", flag, "{tmp}/./x.pfnn"]
        assert _splits_read(monkeypatch, fill(argv, tmp_path, trained_dir, data_dir), code=1) == {}
        assert "--out, --export-couplings and --records must name different files" in capsys.readouterr().err
        assert not (tmp_path / "x.pfnn").exists()


class TestPrune:
    def test_factor_prune(self, trained_dir, tmp_path):
        out = tmp_path / "pruned.pfnn"
        code = run([
            "prune", "--net", trained_dir / "pair0_A.pfnn", "--method", "prune",
            "--factor", "0.5", "--out", out,
        ])
        assert code == 0
        assert pf.load(out).hidden_dims == (3, 3)

    def test_explicit_widths_postprocess(self, trained_dir, tmp_path):
        out = tmp_path / "pruned.pfnn"
        code = run([
            "prune", "--net", trained_dir / "pair0_A.pfnn", "--method", "prune-post",
            "--widths", "4,3", "--out", out,
        ])
        assert code == 0
        assert pf.load(out).hidden_dims == (4, 3)

    def test_corrupt_checkpoint_exit_2(self, tmp_path):
        bad = tmp_path / "bad.pfnn"
        bad.write_bytes(b"NOPE" + b"\x00" * 40)
        code = run(["prune", "--net", bad, "--out", tmp_path / "o.pfnn"])
        assert code == 2

    @pytest.mark.parametrize("header, message", [
        pytest.param(pfnn_header(HUGE_PFNN_DIMS), "truncated payload while reading weights[0]",
                     id="weights-above-2**63-bytes"),
        pytest.param(pfnn_header((3, 4, 2), version=2), "unsupported version 2", id="version"),
        pytest.param(pfnn_header((3, 2), layers=0), "hidden layer count 0", id="no-hidden-layer"),
        pytest.param(pfnn_header((3, 0, 2)), "non-positive entry in dims", id="zero-dim"),
    ])
    def test_corrupt_header_exit_2_naming_the_file(self, tmp_path, capsys, header, message):
        bad = tmp_path / "bad.pfnn"
        bad.write_bytes(header + bytes(64))
        code = run(["prune", "--net", bad, "--out", tmp_path / "o.pfnn"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}: {message}")

    def test_directory_as_net_exit_2(self, tmp_path, capsys):
        code = run(["prune", "--net", tmp_path, "--out", tmp_path / "x.pfnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_non_finite_checkpoint_exit_2(self, trained_dir, tmp_path, capsys):
        raw = bytearray((trained_dir / "pair0_A.pfnn").read_bytes())
        raw[-8:] = struct.pack("<d", float("nan"))  # last output bias
        bad = tmp_path / "nan.pfnn"
        bad.write_bytes(bytes(raw))
        code = run(["prune", "--net", bad, "--out", tmp_path / "o.pfnn"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_overflowing_activations_exit_3(self, data_dir, trained_dir, tmp_path, capsys):
        net = pf.load(trained_dir / "pair0_A.pfnn")
        weights = [w * 1e200 if k < 2 else w for k, w in enumerate(net.weights)]
        big = tmp_path / "big.pfnn"
        pf.save(pf.DenseNetwork(weights, net.biases, net.activation), big)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "prune", "--data-dir", data_dir, "--net", big, "--method", "cluster",
                "--factor", "0.5", "--cluster-restarts", "2", "--out", tmp_path / "o.pfnn",
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "not finite" in err

    def test_overflowing_merge_costs_exit_3(self, data_dir, trained_dir, tmp_path, capsys):
        # the activations stay finite; their squared distances do not
        net = pf.load(trained_dir / "pair0_A.pfnn")
        weights = [w * 1e200 if k == 0 else w for k, w in enumerate(net.weights)]
        big = tmp_path / "big.pfnn"
        pf.save(pf.DenseNetwork(weights, net.biases, net.activation), big)
        out = tmp_path / "o.pfnn"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "prune", "--data-dir", data_dir, "--net", big, "--method", "cluster",
                "--factor", "0.5", "--cluster-restarts", "2", "--out", out,
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "merge costs are not finite" in err
        assert not out.exists()


class TestSweep:
    def test_deterministic_bytes_and_row_count(self, data_dir, trained_dir, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            code = run([
                "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                "--alphas", "0;1", "--lambdas", "0.3,0.7", "--methods", "partial-ot,prune",
                "--out", out,
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == cli.CSV_HEADER
        # 2 methods x 2 alphas x 2 lambdas x 2 pairs
        assert len(lines) == 1 + 16

    def test_jobs_flag_gives_identical_output(self, data_dir, trained_dir, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep{jobs}.csv"
            code = run([
                "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                "--alphas", "0;0.5", "--lambdas", "0.5", "--methods", "partial-ot",
                "--jobs", jobs, "--out", out,
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.one_cpu
    @pytest.mark.parametrize("cpus", [None, 1, 3], ids=["affinity", "one-cpu", "three-cpus"])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_jobs_deal_pairs_to_worker_map(self, data_dir, trained_dir, tmp_path, monkeypatch, started, route, cpus):
        # None keeps the real affinity lookup, which reads 1 under `taskset -c 0`.
        # With BLAS on one thread --jobs 3 takes min(3, 2 pairs, CPUs) workers;
        # besides them, each pair swept in this process starts its own
        # evaluation thread where there are 2 or more CPUs (a forked child's
        # thread is not counted here)
        if cpus is not None:
            monkeypatch.setattr(netcore, "available_cpus", lambda: cpus)
        monkeypatch.setattr(netcore, "blas_threads", lambda: 1)
        many = netcore.available_cpus() > 1
        want = {  # on 2 or more CPUs
            "1": {"threads": 2},  # no helper: the two pairs' evaluation threads
            "3": {"fork": 1, "threads": 1} if route == "fork" else {"threads": 1 + 2},  # one helper
        }
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"sweep{jobs}.csv"
            started.clear()
            with ROUTES[route]():
                code = run([
                    "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                    "--alphas", "0;0.5", "--lambdas", "0.5", "--methods", "partial-ot,cluster",
                    "--cluster-restarts", "2", "--jobs", jobs, "--out", out,
                ])
            assert code == 0
            assert started == (want[jobs] if many else {})
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"error" not in outputs[0]

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_jobs_with_a_corrupt_pair_exit_2(self, data_dir, trained_dir, tmp_path, monkeypatch, capsys, route):
        # pair 1 goes to the helper, whose error is raised again in the caller
        monkeypatch.setattr(netcore, "available_cpus", lambda: 2)
        monkeypatch.setattr(netcore, "blas_threads", lambda: 1)
        corrupt = trained_dir / "pair1_A.pfnn"
        corrupt.write_bytes(corrupt.read_bytes()[:-3])
        out = tmp_path / "sweep.csv"
        with ROUTES[route]():
            code = run([
                "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                "--alphas", "0", "--lambdas", "0.5", "--jobs", "2", "--out", out,
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "pair1_A.pfnn" in err
        assert not out.exists()

    @pytest.mark.one_cpu
    def test_output_independent_of_cpu_count(self, data_dir, trained_dir, tmp_path, monkeypatch):
        # None keeps the real affinity lookup; 1 CPU evaluates serially, 2 and 3 with a pool thread
        outputs = []
        real = netcore.available_cpus
        for cpus in (None, 1, 2, 3):
            monkeypatch.setattr(netcore, "available_cpus", real if cpus is None else lambda: cpus)
            out = tmp_path / f"sweep{cpus}.csv"
            code = run([
                "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                "--alphas", "0;0.4;1", "--lambdas", "0.25,0.5,1",
                "--methods", "partial-ot,prune,prune-post", "--align", "greedy", "--out", out,
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 3
        assert b"error" not in outputs[0]

    def test_default_alpha_grid_parses(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "default.csv"
        code = run([
            "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--lambdas", "0.5", "--methods", "partial-ot", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 7 * 1 * 1 * 2  # default 7-point alpha grid
        assert not any("error" in line for line in lines)

    def test_empty_grid_is_a_usage_error(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        code = run([
            "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--alphas", "", "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err == "usage error: --alphas has a blank entry in ''\n"
        assert not out.exists()


    @pytest.mark.parametrize("grid", [
        ["--methods", "bogus"],
        ["--methods", "partial-ot,bogus"],
        ["--alphas", "1.5"],
        ["--alphas", "nan"],
        ["--alphas", "0;0.5,-0.1"],
        ["--alphas", "0;1e-8"],  # no fraction of denominator <= 10**6 within 1e-9
        ["--alphas", "0.3333333"],
        ["--alphas", "0.4,1e-8"],
        ["--lambdas", "2"],
        ["--lambdas", "0.5,nan"],
        ["--methods", "prune,partial-ot", "--features", "activations", "--align", "fixed-point"],
    ], ids=lambda g: " ".join(g))
    def test_bad_grid_exit_1_before_any_cell(self, data_dir, trained_dir, tmp_path, capsys, grid):
        out = tmp_path / "bad.csv"
        code = run([
            "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--alphas", "0.5", "--lambdas", "0.5", "--methods", "partial-ot", *grid,
            "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_stdout_is_the_out_file(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--alphas", "0;0.5", "--lambdas", "0.5", "--methods", "partial-ot,prune",
        ]
        assert run([*argv, "--out", out]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert run(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_activations_with_fixed_point_allowed_without_partial_ot(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "prune.csv"
        code = run([
            "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--alphas", "0.5", "--lambdas", "0.5", "--methods", "prune",
            "--features", "activations", "--align", "fixed-point", "--out", out,
        ])
        assert code == 0
        assert "error" not in out.read_text()

    def test_alpha_list_of_wrong_depth_is_an_error_row(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "depth.csv"
        code = run([
            "sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--alphas", "0.2,0.4,0.6", "--lambdas", "0.5", "--methods", "partial-ot,prune",
            "--out", out,
        ])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4 and all(r.split(",")[4] == "error:ValueError" for r in rows)

    def test_non_finite_logits_are_an_error_row(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "overflow.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "sweep", "--data-dir", data_dir, "--manifest", overflowing_manifest(trained_dir),
                "--alphas", "0.5", "--lambdas", "0.5", "--methods", "prune", "--out", out,
            ])
        assert code == 0
        assert out.read_text().splitlines()[1:] == ["prune,0.5,0.5,0,error:NumericalFailure,,,,0"]


class TestStats:
    def test_same_checkpoint_twice_zero_cross(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "stats.csv"
        code = run([
            "stats", "--data-dir", data_dir, "--net-a", trained_dir / "pair0_A.pfnn",
            "--net-b", trained_dir / "pair0_A.pfnn", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "block,layer,network,statistic,neuron,value"
        rows = [line.split(",") for line in lines[1:]]
        cross_nn = [float(r[5]) for r in rows if r[0] == "all" and r[3] == "nn_cross"]
        assert cross_nn and all(v == 0.0 for v in cross_nn)
        # per-neuron rows: 2 nets x 4 stats x (6 + 6) neurons
        all_rows = [r for r in rows if r[0] == "all"]
        assert len(all_rows) == 8 * 12
        diff = [float(r[5]) for r in rows if r[0] == "difference"]
        assert all(v >= -1e-12 for v in diff)

    def test_stdout_is_the_out_file_in_report_order(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        argv = [
            "stats", "--data-dir", data_dir, "--net-a", trained_dir / "pair0_A.pfnn",
            "--net-b", trained_dir / "pair0_B.pfnn", "--sample-count", "50",
        ]
        assert run([*argv, "--out", out]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert text == out.read_text()
        stats = [
            f"{network},{stat}"
            for stat in ("nn_within", "nn_cross", "mean_within", "mean_cross")
            for network in ("A", "B")
        ]
        rows = [line.split(",") for line in text.splitlines()[1:]]
        for block in ("all", "conditional80", "difference"):
            for layer in ("1", "2"):
                names = [f"{r[2]},{r[3]}" for r in rows if r[0] == block and r[1] == layer]
                assert list(dict.fromkeys(names)) == stats
                assert len(names) == (8 * 6 if block == "all" else 8)

    def test_distinct_checkpoints(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "stats.csv"
        code = run([
            "stats", "--data-dir", data_dir, "--net-a", trained_dir / "pair0_A.pfnn",
            "--net-b", trained_dir / "pair0_B.pfnn", "--out", out,
        ])
        assert code == 0

    @pytest.mark.parametrize("dims, shape", [
        ((36, 6, 6, 6, 4), "(36, 3)"),  # one hidden layer more
        ((20, 6, 6, 4), "(20, 2)"),  # another input width
    ], ids=["depth", "input-width"])
    def test_mismatched_networks_exit_1_before_any_read(self, data_dir, trained_dir, tmp_path, capsys,
                                                        monkeypatch, dims, shape):
        pf.save(rand_net(dims), tmp_path / "other.pfnn")
        argv = ["stats", "--net-a", tmp_path / "other.pfnn", "--net-b", "{ckpt}", "--out", "{tmp}/s.csv"]
        assert _splits_read(monkeypatch, fill(map(str, argv), tmp_path, trained_dir, data_dir), code=1) == {}
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and f"{shape} and (36, 2)" in err
        assert not (tmp_path / "s.csv").exists()

    def test_non_finite_activations_exit_3(self, data_dir, trained_dir, tmp_path, capsys):
        overflowing_manifest(trained_dir)
        out = tmp_path / "stats.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "stats", "--data-dir", data_dir, "--net-a", trained_dir / "big_A.pfnn",
                "--net-b", trained_dir / "pair0_B.pfnn", "--out", out,
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: layer 2 activations are not finite")
        assert not out.exists()


    def test_overflowing_distances_exit_3(self, data_dir, trained_dir, tmp_path, capsys):
        # layer-1 activations near 1e200 are finite, but their squared
        # differences overflow
        net = pf.load(trained_dir / "pair0_A.pfnn")
        weights = (net.weights[0] * 1e200, *net.weights[1:])
        pf.save(pf.DenseNetwork(weights, net.biases, net.activation), tmp_path / "wide_A.pfnn")
        out = tmp_path / "stats.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "stats", "--data-dir", data_dir, "--net-a", tmp_path / "wide_A.pfnn",
                "--net-b", trained_dir / "pair0_B.pfnn", "--out", out,
            ])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: layer 1 neuron distances are not finite")
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run(["fuse", "--no-such-flag"]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("train", "--timing"), ("prune", "--timing"), ("stats", "--timing"),
        ("train", "--cluster-restarts=5"), ("stats", "--cluster-restarts=5"),
    ])
    def test_flag_only_where_it_is_read(self, command, flag, capsys):
        required = {
            "train": ["--out", "x"],
            "prune": ["--net", "x", "--out", "y"],
            "stats": ["--net-a", "x", "--net-b", "y"],
        }
        assert run([command, *required[command], flag]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_numerical_failure_is_3(self, monkeypatch):
        from partfuse.train import NumericalFailure

        def boom(args):
            raise NumericalFailure("loss diverged")

        monkeypatch.setitem(cli._HANDLERS, "train", boom)
        assert run(["train", "--out", "x"]) == 3


def _dies_in_a_child(monkeypatch, module, name):
    """module.name ends any process but this one with os._exit(137), as a worker killed for memory does."""
    caller, real = os.getpid(), getattr(module, name)

    def dying(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(137)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, dying)


class TestCouldNotFinish:
    """A worker process that dies, or memory that runs out, exits 3 and publishes nothing."""

    def test_a_dead_training_worker_exit_3(self, data_dir, tmp_path, monkeypatch, capsys, started):
        _dies_in_a_child(monkeypatch, trainmod, "train_mlp")
        monkeypatch.setattr(netcore, "available_cpus", lambda: 2)
        monkeypatch.setattr(netcore, "blas_threads", lambda: 1)
        out = tmp_path / "run"
        assert run(["train", "--data-dir", data_dir, "--out", out, "--pairs", "1", "--width", "3",
                    "--depth", "1", "--epochs", "0"]) == 3
        assert started == {"fork": 1}
        assert capsys.readouterr().err == "could not finish: a worker process exited with code 137\n"
        assert not out.exists()

    def test_a_dead_sweep_worker_exit_3(self, data_dir, trained_dir, tmp_path, monkeypatch, capsys, started):
        _dies_in_a_child(monkeypatch, analysis, "tradeoff_sweep")
        monkeypatch.setattr(netcore, "available_cpus", lambda: 2)
        monkeypatch.setattr(netcore, "blas_threads", lambda: 1)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                    "--alphas", "0", "--lambdas", "0.5", "--jobs", "2", "--out", out]) == 3
        assert started["fork"] == 1
        assert "could not finish: a worker process exited with code 137" in capsys.readouterr().err
        assert not out.exists()

    def test_a_dead_ward_restart_worker_exit_3(self, data_dir, trained_dir, tmp_path, monkeypatch, capsys,
                                               started):
        _dies_in_a_child(monkeypatch, clustering, "_agglomerate")
        monkeypatch.setattr(clustering, "_PARALLEL_MIN_WORK", 0)  # fork for the fixture's small layers
        monkeypatch.setattr(netcore, "available_cpus", lambda: 2)
        out = tmp_path / "o.pfnn"
        assert run(["prune", "--data-dir", data_dir, "--net", trained_dir / "pair0_A.pfnn", "--method", "cluster",
                    "--cluster-restarts", "2", "--out", out]) == 3
        assert started == {"fork": 1}
        assert "could not finish: a worker process exited with code 137" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_in_the_caller_exit_3(self, data_dir, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(trainmod, "train_mlp", exhausted)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 1)
        out = tmp_path / "run"
        assert run(["train", "--data-dir", data_dir, "--out", out, "--pairs", "1", "--width", "3",
                    "--depth", "1", "--epochs", "0"]) == 3
        assert capsys.readouterr().err == "could not finish: out of memory\n"
        assert not out.exists()


class TestFuseCouplingExport:
    def test_export_couplings_csv(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "fused.pfnn"
        couplings = tmp_path / "couplings.csv"
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--pair", "0", "--alpha", "0.5", "--out", out,
            "--export-couplings", couplings,
        ])
        assert code == 0
        lines = couplings.read_text().splitlines()
        assert lines[0] == "layer,row,col,mass"
        masses = {}
        for line in lines[1:]:
            layer, i, j, mass = line.split(",")
            masses.setdefault(int(layer), 0.0)
            masses[int(layer)] += float(mass)
        # partial couplings transport mass 1 - alpha per layer
        for layer, total in masses.items():
            assert abs(total - 0.5) <= 1e-9

    def test_exports_the_alignment_it_fused_with(self, data_dir, trained_dir, tmp_path, monkeypatch):
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        solve = transport.solve_partial_ot
        monkeypatch.setattr(transport, "solve_partial_ot", counting)
        couplings = tmp_path / "couplings.csv"
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--pair", "0", "--alpha", "0.5", "--align", "greedy", "--out", tmp_path / "f.pfnn",
            "--export-couplings", couplings,
        ])
        assert code == 0
        net_a = pf.load(trained_dir / "pair0_A.pfnn")
        net_b = pf.load(trained_dir / "pair0_B.pfnn")
        assert len(solves) == net_a.num_hidden  # one solve per layer: aligned once

        cfg = pf.FusionConfig(lam=0.5, alpha=0.5, align=pf.AlignMethod.GREEDY)
        want = ["layer,row,col,mass"]
        for layer, coupling in enumerate(fusion.align(net_a, net_b, cfg).couplings, start=1):
            for i, j in zip(*np.nonzero(coupling.matrix)):
                want.append(f"{layer},{i},{j},{coupling.matrix[i, j]:.17g}")
        assert couplings.read_text().splitlines() == want

    def test_failing_out_leaves_no_couplings(self, data_dir, trained_dir, tmp_path):
        couplings = tmp_path / "c.csv"
        code = run([
            "fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
            "--align", "greedy", "--alpha", "0.4", "--export-couplings", couplings,
            "--out", tmp_path / "missing" / "x.pfnn",
        ])
        assert code == 2
        assert list(tmp_path.glob("c.csv*")) == []  # nor a temporary file


def _fail_after_two_bytes(path):
    Path(path).write_bytes(b"PF")
    raise OSError(errno.ENOSPC, "No space left on device")


class TestPublish:
    """A command publishes its files only once all are written: a failure keeps every old target."""

    # command: (argv, the target that exists before, the writer that fails)
    FAILING_WRITES = {
        "train": (["train", "--out", "{tmp}/run", "--pairs", "1", "--width", "3", "--depth", "1",
                   "--epochs", "0"], "run/pair0_A.pfnn", "save"),
        "fuse": (["fuse", "--manifest", "{manifest}", "--records", "{tmp}/records.csv", "--out", "{tmp}/x.pfnn"],
                 "x.pfnn", "save"),
        "prune": (["prune", "--net", "{ckpt}", "--out", "{tmp}/x.pfnn"], "x.pfnn", "save"),
        "sweep": (["sweep", "--manifest", "{manifest}", "--alphas", "0.5", "--lambdas", "0.5", "--out",
                   "{tmp}/x.csv"], "x.csv", "write_text"),
        "stats": (["stats", "--net-a", "{ckpt}", "--net-b", "{ckpt}", "--out", "{tmp}/x.csv"], "x.csv", "write_text"),
    }

    @pytest.mark.parametrize("command", list(FAILING_WRITES))
    def test_a_failing_write_keeps_the_old_target(self, data_dir, trained_dir, tmp_path, monkeypatch, command):
        argv, target, writer = self.FAILING_WRITES[command]
        target = tmp_path / target
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(b"precious")
        records = tmp_path / "records.csv"
        records.write_bytes(b"old rows\n")
        if writer == "save":
            monkeypatch.setattr(netcore, "save", lambda net, path: _fail_after_two_bytes(path))
        else:
            monkeypatch.setattr(Path, "write_text", lambda path, text: _fail_after_two_bytes(path))
        assert run(fill(argv, tmp_path, trained_dir, data_dir)) == 2
        assert target.read_bytes() == b"precious"
        assert records.read_bytes() == b"old rows\n"
        assert list(target.parent.glob("*.tmp")) == []
        assert not (target.parent / "manifest.txt").exists()

    def test_train_failing_in_its_second_pair_leaves_no_out(self, data_dir, tmp_path, monkeypatch):
        train_mlp = trainmod.train_mlp

        def diverging(dims, part, cfg, rows=None):
            if cfg.seed >= 2:  # pair 1
                raise netcore.NumericalFailure("loss diverged")
            return train_mlp(dims, part, cfg, rows)

        monkeypatch.setattr(trainmod, "train_mlp", diverging)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 2)
        monkeypatch.setattr(netcore, "blas_threads", lambda: 1)
        out = tmp_path / "run"
        for route in ROUTES.values():
            with route():
                assert run(["train", "--data-dir", data_dir, "--out", out, "--pairs", "2", "--width", "3",
                            "--depth", "1", "--epochs", "0"]) == 3
            assert not out.exists()

    def test_a_failed_publish_removes_the_out_it_created(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(netcore, "save", lambda net, path: _fail_after_two_bytes(path))
        assert run(["train", "--data-dir", data_dir, "--out", tmp_path / "new" / "run", "--pairs", "1",
                    "--width", "3", "--depth", "1", "--epochs", "0"]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub", "dangling"])
    def test_train_out_under_a_file_exit_2_before_training(self, data_dir, tmp_path, monkeypatch, capsys, out):
        calls = []
        monkeypatch.setattr(trainmod, "train_mlp", lambda *args: calls.append(args))
        taken = tmp_path / "taken"
        taken.write_bytes(b"precious")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")  # a link to nothing is no directory
        assert run(["train", "--data-dir", data_dir, "--out", tmp_path / out, "--pairs", "2", "--width", "3",
                    "--depth", "1", "--epochs", "0"]) == 2
        assert calls == []
        assert f"{tmp_path / out.split('/')[0]} is not a directory" in capsys.readouterr().err
        assert taken.read_bytes() == b"precious"
        assert (tmp_path / "dangling").is_symlink() and not (tmp_path / "nowhere").exists()

    def test_a_failed_fuse_removes_the_records_file_it_created(self, data_dir, trained_dir, tmp_path):
        records = tmp_path / "new.csv"
        assert run(["fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                    "--records", records, "--out", tmp_path / "missing" / "x.pfnn"]) == 2
        assert not records.exists()

    def test_records_directory_exit_2_leaves_no_checkpoint(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "x.pfnn"
        assert run(["fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                    "--records", tmp_path, "--out", out]) == 2
        assert not out.exists()

    def test_a_directory_target_publishes_nothing(self, data_dir, trained_dir, tmp_path, capsys):
        couplings = tmp_path / "c.csv"
        (tmp_path / "x.pfnn").mkdir()
        assert run(["fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                    "--export-couplings", couplings, "--out", tmp_path / "x.pfnn"]) == 2
        assert "x.pfnn is a directory" in capsys.readouterr().err
        assert not couplings.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_a_symlinked_target_is_replaced_not_written_through(self, trained_dir, tmp_path):
        kept = tmp_path / "kept.pfnn"
        kept.write_bytes(b"precious")
        link = tmp_path / "link.pfnn"
        link.symlink_to(kept)
        assert run(["prune", "--net", trained_dir / "pair0_A.pfnn", "--out", link]) == 0
        assert not link.is_symlink() and pf.load(link).hidden_dims == (3, 3)
        assert kept.read_bytes() == b"precious"

    def test_a_symlink_loop_target_is_replaced(self, data_dir, trained_dir, tmp_path):
        loop = tmp_path / "loop.pfnn"
        loop.symlink_to(loop)
        assert run(["fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt",
                    "--records", tmp_path / "records.csv", "--out", loop]) == 0
        assert pf.load(loop).hidden_dims == (6, 6)


class TestTrainEpochsZero:
    def test_epochs_zero_writes_initialization(self, data_dir, tmp_path):
        from partfuse.train import init_network

        out = tmp_path / "run"
        code = run([
            "train", "--data-dir", data_dir, "--out", out, "--pairs", "1",
            "--width", "5", "--depth", "2", "--epochs", "0",
        ])
        assert code == 0
        net = pf.load(out / "pair0_A.pfnn")
        assert net.equals(init_network([36, 5, 5, 4], seed=0))


REQUIRED_FLAGS = {
    "train": ["--out", "{tmp}/o"],
    "stats": ["--net-a", "{ckpt}", "--net-b", "{ckpt}", "--out", "{tmp}/o"],
    "prune": ["--net", "{ckpt}", "--method", "cluster", "--out", "{tmp}/o"],
    "fuse": ["--manifest", "{manifest}", "--method", "cluster", "--out", "{tmp}/o"],
    "sweep": ["--manifest", "{manifest}", "--methods", "cluster", "--alphas", "0.5",
              "--lambdas", "0.5", "--out", "{tmp}/o"],
}


def fill(argv, tmp_path, trained_dir, data_dir):
    """argv with its {tmp}, {ckpt} and {manifest} fields filled in, reading data_dir."""
    paths = {"tmp": tmp_path, "ckpt": trained_dir / "pair0_A.pfnn", "manifest": trained_dir / "manifest.txt"}
    return [a.format(**paths) for a in argv] + ["--data-dir", str(data_dir)]


class TestCountFlags:
    @pytest.mark.parametrize("command, flags", [
        ("train", "--width 0 --depth 2"),
        ("train", "--depth 0"),
        ("train", "--pairs 0"),
        ("train", "--epochs -3"),
        ("stats", "--sample-count -5"),
        ("prune", "--factor -0.5"),
        ("prune", "--factor 0"),
        ("prune", "--factor 1.5"),
        ("prune", "--factor nan"),
        ("prune", "--cluster-restarts 0"),
        ("fuse", "--cluster-restarts 0"),
        ("sweep", "--cluster-restarts 0"),
        ("prune", "--seed -1"),
        ("train", "--seed-base -5"),
        ("train", "--split-digit -1"),
        ("sweep", "--jobs 0"),
        ("sweep", "--jobs -4"),
        ("fuse", "--method prune --lambda 1.5"),
        ("fuse", "--method prune-post --lambda nan"),
        ("fuse", "--method prune --alpha 1.5"),
        ("fuse", "--method cluster --lambda 1.5"),
        ("fuse", "--method cluster --alpha nan"),
        ("fuse", "--method partial-ot --alpha 0.4,0.4,0.4"),
        ("fuse", "--method partial-ot --alpha 1e-8"),  # not exact: see transport.exact_alpha
        ("fuse", "--method partial-ot --alpha 0.4,1e-8"),
        ("fuse", "--method prune --alpha 0.3333333"),
        ("fuse", "--method prune-post --alpha 0.4,0.4,0.4"),
        ("prune", "--widths 5,5000"),  # wider than the 6-neuron layer
        ("prune", "--widths 5"),  # one width for two hidden layers
        ("prune", "--widths 5,5,5"),
        ("prune", "--widths="),  # an empty list, not the --factor default
        ("sweep", "--alphas=;"),
        ("sweep", "--lambdas=,"),
        ("sweep", "--methods=,"),
        ("sweep", "--alphas 0;;1 --lambdas 0.5,,1 --methods prune"),
        ("sweep", "--alphas 0;1; --methods prune,"),
        ("sweep", "--alphas 0;0.4,,0.4"),
        ("fuse", "--alpha 0.4,,0.4"),
        ("prune", "--widths 5,,5"),
    ])
    def test_out_of_range_exit_1_at_parse(self, data_dir, trained_dir, tmp_path, capsys, monkeypatch,
                                          command, flags):
        argv = fill([command, *REQUIRED_FLAGS[command], *flags.split()], tmp_path, trained_dir, data_dir)
        read = []
        monkeypatch.setattr(datamod, "load_idx", lambda *paths: read.extend(paths))
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert read == []  # rejected before any data is loaded
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flags", [
        ("fuse", "--alpha 0.4,,0.4"),
        ("prune", "--widths 5,"),
        ("sweep", "--alphas 0;0.4,,0.4"),
        ("sweep", "--lambdas 0.5,,1"),
        ("sweep", "--methods prune,"),
    ])
    def test_blank_entry_names_its_flag(self, data_dir, trained_dir, tmp_path, capsys, command, flags):
        argv = fill([command, *REQUIRED_FLAGS[command], *flags.split()], tmp_path, trained_dir, data_dir)
        assert run(argv) == 1
        flag = flags.split()[0]
        assert capsys.readouterr().err.startswith(f"usage error: {flag} has a blank entry")


def _splits_read(monkeypatch, argv, code=0):
    """{split: rows asked for} of the MNIST splits one CLI call, exiting `code`, opens; None asks for every row."""
    read = {}
    load_idx = datamod.load_idx

    def recording(images_path, labels_path, rows=None):
        (split,) = {"train" if Path(p).name.startswith("train") else "test" for p in (images_path, labels_path)}
        assert read.setdefault(split, rows) == rows
        return load_idx(images_path, labels_path, rows)

    monkeypatch.setattr(datamod, "load_idx", recording)
    assert run(argv) == code
    return read


FEATURES = fusion.ACTIVATION_SAMPLES


class TestSplitsRead:
    """Each command opens only the MNIST split it reads, and converts only the rows it uses."""

    SWEEP = ["sweep", "--manifest", "{manifest}", "--alphas", "0.5", "--lambdas", "0.5",
             "--cluster-restarts", "2", "--out", "{tmp}/s.csv"]
    FUSE = ["fuse", "--manifest", "{manifest}", "--out", "{tmp}/f.pfnn", "--cluster-restarts", "2"]

    @pytest.mark.parametrize("argv, splits", [
        pytest.param(["train", "--out", "{tmp}/run", "--pairs", "1", "--width", "3", "--depth", "1",
                      "--epochs", "0"], {"train": None}, id="train"),
        pytest.param(["prune", "--net", "{ckpt}", "--method", "cluster", "--cluster-restarts", "2",
                      "--out", "{tmp}/p.pfnn"], {"train": FEATURES}, id="prune-cluster"),
        pytest.param(["stats", "--net-a", "{ckpt}", "--net-b", "{ckpt}", "--out", "{tmp}/s.csv"],
                     {"train": 1000}, id="stats"),
        pytest.param(["stats", "--net-a", "{ckpt}", "--net-b", "{ckpt}", "--sample-count", "50",
                      "--out", "{tmp}/s.csv"], {"train": 50}, id="stats-sample-count"),
        pytest.param(["prune", "--net", "{ckpt}", "--out", "{tmp}/p.pfnn"], {}, id="prune-prune"),
        pytest.param([*FUSE, "--method", "partial-ot"], {"test": None}, id="fuse-partial-ot-weights"),
        pytest.param([*FUSE, "--method", "prune"], {"test": None}, id="fuse-prune"),
        pytest.param([*FUSE, "--method", "prune-post"], {"test": None}, id="fuse-prune-post"),
        pytest.param([*SWEEP, "--methods", "partial-ot,prune,prune-post"], {"test": None}, id="sweep-weights"),
        pytest.param([*FUSE, "--method", "cluster"], {"train": FEATURES, "test": None}, id="fuse-cluster"),
        pytest.param([*FUSE, "--features", "activations", "--align", "greedy"],
                     {"train": FEATURES, "test": None}, id="fuse-partial-ot-activations"),
        pytest.param([*SWEEP, "--methods", "partial-ot,cluster"], {"train": FEATURES, "test": None},
                     id="sweep-cluster"),
        pytest.param([*SWEEP, "--features", "activations", "--align", "greedy"],
                     {"train": FEATURES, "test": None}, id="sweep-partial-ot-activations"),
    ])
    def test_command_reads_only_its_splits(self, data_dir, trained_dir, tmp_path, monkeypatch, argv, splits):
        assert _splits_read(monkeypatch, fill(argv, tmp_path, trained_dir, data_dir)) == splits

    def test_feature_read_keeps_the_rows_the_library_slices_to(self, data_dir, trained_dir, tmp_path, monkeypatch):
        # fewer samples than the 160 training rows, so the read stops short of the file's end
        monkeypatch.setattr(fusion, "ACTIVATION_SAMPLES", 50)
        net = pf.load(trained_dir / "pair0_A.pfnn")
        train = datamod.load_idx(data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte")
        spec = pf.PruneSpec((3, 3), pf.PruneMethod.CLUSTER)
        pf.save(pf.cluster_prune(net, spec, train.inputs, restarts=2), tmp_path / "lib.pfnn")
        assert run(["prune", "--data-dir", data_dir, "--net", trained_dir / "pair0_A.pfnn", "--method",
                    "cluster", "--widths", "3,3", "--cluster-restarts", "2", "--out", tmp_path / "cli.pfnn"]) == 0
        assert (tmp_path / "cli.pfnn").read_bytes() == (tmp_path / "lib.pfnn").read_bytes()

    def test_corrupt_training_file_fails_only_commands_that_read_it(self, data_dir, trained_dir, tmp_path, capsys):
        (data_dir / "train-images-idx3-ubyte").write_bytes(b"\x00\x00")
        fuse = ["fuse", "--data-dir", data_dir, "--manifest", trained_dir / "manifest.txt"]
        assert run([*fuse, "--out", tmp_path / "w.pfnn"]) == 0
        assert run([*fuse, "--method", "cluster", "--cluster-restarts", "2", "--out", tmp_path / "c.pfnn"]) == 2
        assert "truncated payload while reading images magic" in capsys.readouterr().err

    @pytest.mark.parametrize("gzipped", [False, True], ids=["raw", "gzip"])
    def test_oversized_idx_header_exits_2_naming_the_file(self, data_dir, tmp_path, capsys, gzipped):
        images = data_dir / "train-images-idx3-ubyte"
        blob = struct.pack(">4I", IDX_IMAGES_MAGIC, *HUGE_IDX_DIMS) + bytes(100)
        if gzipped:
            images.unlink()
            images = data_dir / "train-images-idx3-ubyte.gz"
        images.write_bytes(gzip.compress(blob) if gzipped else blob)
        argv = ["train", "--data-dir", data_dir, "--out", tmp_path / "run", "--pairs", "1",
                "--width", "3", "--depth", "1", "--epochs", "0"]
        assert run(argv) == 2
        assert f"data error: {images}: truncated payload" in capsys.readouterr().err

    def test_truncated_gzip_exits_2_naming_the_file(self, data_dir, tmp_path, capsys):
        plain = data_dir / "train-images-idx3-ubyte"
        gz = data_dir / "train-images-idx3-ubyte.gz"
        blob = gzip.compress(plain.read_bytes())
        gz.write_bytes(blob[: len(blob) // 2])
        plain.unlink()
        argv = ["train", "--data-dir", data_dir, "--out", tmp_path / "run", "--pairs", "1",
                "--width", "3", "--depth", "1", "--epochs", "0"]
        assert run(argv) == 2
        assert f"data error: {gz}: " in capsys.readouterr().err
