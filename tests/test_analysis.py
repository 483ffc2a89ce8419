import hashlib
import sys
import threading

import numpy as np
import pytest

import partfuse as pf
from partfuse import analysis, fusion, netcore, transport
from partfuse.netcore import ShapeError

from conftest import rand_net
from oracles import theoretical_counts


class TestCountParams:
    def test_dense_layer_counts_literal_nonzeros(self):
        w0 = np.array([[1.0, 0.0], [2.0, 3.0], [0.0, 0.0]])
        net = pf.DenseNetwork(
            (w0, np.ones((2, 3))), (np.zeros(3), np.zeros(2)),
            pf.ActivationKind.RELU,
        )
        report = pf.count_params(net)
        assert report.per_layer[0] == (6, 3)
        assert report.per_layer[1] == (6, 6)
        assert report.total_nonzero == 9

    def test_ensemble_hidden_layer_is_block_diagonal(self):
        a, b = rand_net((4, 10, 10, 3), seed=1), rand_net((4, 10, 10, 3), seed=2)
        ens = pf.make_ensemble(a, b, 0.5)
        report = pf.count_params(ens)
        assert report.per_layer[1] == (400, 200)  # 2 * 10 * 10 nonzero

    def test_partial_fusion_factor(self):
        a, b = rand_net((6, 8, 8, 4), seed=3), rand_net((6, 8, 8, 4), seed=4)
        fused = pf.partial_fuse(a, b, pf.FusionConfig(lam=0.5, alpha=0.5))
        report = pf.count_params(fused)
        want = theoretical_counts(0.5, 8, 8, "partial-fusion")[0]
        assert report.per_layer[1][1] == int(want)


class TestTheoreticalCounts:
    def test_alpha_half_reference_values(self):
        nm = 100 * 100
        assert theoretical_counts(0.5, 100, 100, "pruning") == (1.125 * nm, 1.25 * nm)
        assert theoretical_counts(0.5, 100, 100, "clustering") == (1.125 * nm, 1.75 * nm)
        assert theoretical_counts(0.5, 100, 100, "partial-fusion") == (1.75 * nm, 1.75 * nm)

    def test_alpha_zero(self):
        nm = 50 * 40
        best, worst = theoretical_counts(0.0, 50, 40, "pruning")
        assert best == pytest.approx(0.5 * nm)  # half the single model
        assert worst == pytest.approx(1.0 * nm)
        pfu = theoretical_counts(0.0, 50, 40, "partial-fusion")
        assert pfu == (nm, nm)

    def test_alpha_one_everything_doubles(self):
        nm = 30 * 20
        for method in ("pruning", "clustering", "partial-fusion"):
            best, worst = theoretical_counts(1.0, 30, 20, method)
            assert best == pytest.approx(2 * nm)
            assert worst == pytest.approx(2 * nm)

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            theoretical_counts(0.5, 10, 10, "magic")


class TestBracketing:
    # the balanced best-case formulas are scenario counts, not lower bounds:
    # at tiny widths, anti-correlated per-layer splits undercut them by a few
    # entries.  This test asserts the provable envelope; the scenario-level
    # bracket runs at realistic width on trained parents in the acceptance
    # suite, where the balance assumption holds.
    def test_counts_inside_provable_envelope(self, rng):
        alpha, n = 0.5, 8
        true_min_prune = 2 * alpha * n * n  # one model fully kept below, fully cut above
        for seed in range(10):
            a = rand_net((5, 8, 8, 3), seed=300 + seed)
            b = rand_net((5, 8, 8, 3), seed=400 + seed)
            ens = pf.make_ensemble(a, b, 0.5)
            widths = (12, 12)
            pruned = pf.unstructured_prune(
                ens, pf.PruneSpec(widths, pf.PruneMethod.UNSTRUCTURED, lam=0.5)
            )
            data = np.random.default_rng(seed).normal(size=(40, 5))
            clustered = pf.cluster_prune(
                ens, pf.PruneSpec(widths, pf.PruneMethod.CLUSTER, lam=0.5), data, restarts=20
            )
            _, worst = theoretical_counts(alpha, n, n, "pruning")
            count = pf.count_params(pruned).per_layer[1][1]
            assert true_min_prune - 1e-9 <= count <= worst + 1e-9
            _, worst_c = theoretical_counts(alpha, n, n, "clustering")
            count_c = pf.count_params(clustered).per_layer[1][1]
            assert count_c <= worst_c + 1e-9


class TestSimilarityStats:
    def test_identical_nets_cross_nn_zero(self, rng):
        net = rand_net((4, 6, 3), seed=6)
        data = rng.normal(size=(50, 4))
        rep = pf.similarity_stats(net, net, data)[0]
        np.testing.assert_allclose(rep.values["nn_cross_ab"], 0.0, atol=1e-12)
        np.testing.assert_allclose(rep.values["nn_cross_ba"], 0.0, atol=1e-12)

    def test_hand_computed_one_dimensional_case(self):
        # three neurons whose activation traces are the scalars 0, 3, 10
        w0 = np.array([[0.0], [0.0], [0.0]])
        b0 = np.array([0.0, 3.0, 10.0])
        net = pf.DenseNetwork(
            (w0, np.ones((2, 3))), (b0, np.zeros(2)), pf.ActivationKind.IDENTITY
        )
        rep = pf.similarity_stats(net, net, np.zeros((1, 1)))[0]
        np.testing.assert_allclose(rep.values["nn_within_a"], [3.0, 3.0, 7.0])
        np.testing.assert_allclose(rep.values["mean_within_a"], [6.5, 5.0, 8.5])

    def test_nn_below_mean_and_difference_nonnegative(self, rng):
        a, b = rand_net((5, 7, 3), seed=7), rand_net((5, 7, 3), seed=8)
        rep = pf.similarity_stats(a, b, rng.normal(size=(60, 5)))[0]
        for which in ("within_a", "within_b", "cross_ab", "cross_ba"):
            assert np.all(rep.values[f"nn_{which}"] <= rep.values[f"mean_{which}"] + 1e-12)
        for key, diff in rep.difference.items():
            assert diff >= -1e-12

    def test_one_neuron_layer_rejected(self, rng):
        a, b = rand_net((5, 1, 3), seed=11), rand_net((5, 4, 3), seed=12)
        with pytest.raises(ShapeError, match="at least two neurons"):
            pf.similarity_stats(a, b, rng.normal(size=(10, 5)))

    def test_cross_stats_are_transposes(self, rng):
        a, b = rand_net((5, 7, 3), seed=9), rand_net((5, 6, 3), seed=10)
        data = rng.normal(size=(50, 5))
        rep = pf.similarity_stats(a, b, data)[0]
        fa = pf.features_activation(a, data)[0]
        fb = pf.features_activation(b, data)[0]
        d = np.sqrt(pf.cost_matrix(fa, fb))
        np.testing.assert_allclose(rep.values["nn_cross_ab"], d.min(axis=1), atol=1e-12)
        np.testing.assert_allclose(rep.values["nn_cross_ba"], d.T.min(axis=1), atol=1e-12)


class TestTradeoffSweep:
    def _pair(self):
        return rand_net((5, 6, 6, 3), seed=11), rand_net((5, 6, 6, 3), seed=12)

    def _eval_data(self, rng):
        return pf.LabeledDataset(rng.normal(size=(40, 5)), rng.integers(0, 3, size=40))

    def test_alpha_one_matches_ensemble_accuracy(self, rng):
        a, b = self._pair()
        data = self._eval_data(rng)
        records = pf.tradeoff_sweep(a, b, [1.0], [0.5], ["partial-ot"], data)
        ens_acc = pf.evaluate_accuracy(pf.make_ensemble(a, b, 0.5), data)
        assert records[0].accuracy == ens_acc

    def test_widths_ascend_with_alpha(self, rng):
        a, b = self._pair()
        data = self._eval_data(rng)
        records = pf.tradeoff_sweep(a, b, [0.0, 0.5, 1.0], [0.5], ["partial-ot"], data)
        widths = [r.widths for r in records]
        for lo, hi in zip(widths, widths[1:]):
            assert all(h >= l for l, h in zip(lo, hi))

    def test_grid_order_and_row_count(self, rng):
        a, b = self._pair()
        data = self._eval_data(rng)
        feature_data = rng.normal(size=(40, 5))
        alphas = [0.0, 0.5, 1.0]
        lams = [0.25, 0.75]
        records = pf.tradeoff_sweep(
            a, b, alphas, lams, ["partial-ot", "prune"], data,
            feature_data=feature_data, cluster_restarts=10,
        )
        assert len(records) == 2 * 3 * 2
        assert [r.method for r in records[:6]] == ["partial-ot"] * 6
        assert [r.lam for r in records[:2]] == [0.25, 0.75]

    def test_error_rows_keep_schema(self, rng):
        a, b = self._pair()
        data = self._eval_data(rng)
        records = pf.tradeoff_sweep(a, b, [0.5], [0.5], ["cluster"], data, feature_data=None)
        assert len(records) == 1
        assert records[0].error == "ValueError"
        assert records[0].accuracy is None
        row = records[0].csv_row()
        assert row.count(",") == 8

    def test_aligns_once_per_alpha(self, rng, monkeypatch):
        a, b = self._pair()
        data = self._eval_data(rng)
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        solve = transport.solve_partial_ot
        monkeypatch.setattr(transport, "solve_partial_ot", counting)
        cfg = pf.FusionConfig(align=pf.AlignMethod.GREEDY)
        records = pf.tradeoff_sweep(
            a, b, [0.5], [0.0, 0.5, 1.0], ["partial-ot"], data, cfg_base=cfg
        )
        assert [r.error for r in records] == [None] * 3
        assert len(solves) == a.num_hidden  # not 3 * num_hidden

    def test_builds_plans_once_per_alpha(self, rng, monkeypatch):
        a, b = self._pair()
        data = self._eval_data(rng)
        alphas, lams = [0.0, 0.5, [1.0, 0.25]], [0.0, 0.3, 0.7, 1.0]
        # every cell matched and fused from scratch
        want = []
        for alpha in alphas:
            alignment = fusion.align(a, b, pf.FusionConfig(alpha=alpha))
            for lam in lams:
                net = fusion.match_pair(a, b, alignment).fuse(lam)
                want.append(analysis.cell_record(net, "partial-ot", alpha, lam, 0, data).csv_row())
        couplings = []
        build = fusion.build_match_plan

        def counting(pt):
            couplings.append(pt)
            return build(pt)

        monkeypatch.setattr(fusion, "build_match_plan", counting)
        records = pf.tradeoff_sweep(a, b, alphas, lams, ["partial-ot"], data)
        # each layer once per alpha, not once per lambda
        assert [c.alpha for c in couplings] == [0.0, 0.0, 0.5, 0.5, 1.0, 0.25]
        assert [r.csv_row() for r in records] == want

    def test_alignment_error_fills_every_lambda_row(self, rng, monkeypatch):
        a, b = self._pair()
        data = self._eval_data(rng)

        def broken(*args, **kwargs):
            raise FloatingPointError("solver blew up")

        monkeypatch.setattr(transport, "solve_partial_ot", broken)
        records = pf.tradeoff_sweep(a, b, [0.5, 1.0], [0.2, 0.8], ["partial-ot"], data)
        assert [r.error for r in records] == ["FloatingPointError"] * 4
        assert [r.csv_row().split(",")[4] for r in records] == ["error:FloatingPointError"] * 4

    def test_overflowing_alignment_costs_are_numerical_failures(self, rng):
        a, b = self._pair()
        big = pf.DenseNetwork(
            [w * 1e160 if k == 1 else w for k, w in enumerate(b.weights)], b.biases, b.activation
        )
        cfg = pf.FusionConfig(align=pf.AlignMethod.GREEDY)
        with np.errstate(over="ignore", invalid="ignore"):
            records = pf.tradeoff_sweep(
                a, big, [0.5], [0.5], ["partial-ot", "prune-post"], self._eval_data(rng),
                cfg_base=cfg,
            )
        assert [r.error for r in records] == ["NumericalFailure"] * 2

    def test_partial_ot_cell_needs_an_alignment(self):
        a, b = self._pair()
        with pytest.raises(ValueError, match="alignment"):
            analysis.run_cell(a, b, "partial-ot", 0.5, 0.5)

    def test_per_layer_alpha_cell(self, rng):
        a, b = self._pair()
        data = self._eval_data(rng)
        records = pf.tradeoff_sweep(a, b, [[1.0, 0.0]], [0.5], ["partial-ot"], data)
        assert records[0].widths == (12, 6)
        assert records[0].alpha == "1|0"

    def test_alpha_one_evaluates_once_per_lambda(self, rng, monkeypatch):
        # partial-ot, prune and prune-post all rebuild the ensemble at alpha = 1
        a, b = self._pair()
        data = self._eval_data(rng)
        methods, lams = ["partial-ot", "prune", "prune-post"], [0.0, 0.4, 1.0]
        alignment = fusion.match_pair(a, b, fusion.align(a, b, pf.FusionConfig(alpha=1.0)))
        want = []
        for method in methods:
            for lam in lams:
                net = analysis.run_cell(a, b, method, 1.0, lam, alignment=alignment)
                want.append(analysis.cell_record(net, method, 1.0, lam, 0, data).csv_row())
        evaluated = []
        evaluate = netcore.evaluate_accuracy

        def counting(net, dataset):
            evaluated.append(net)
            return evaluate(net, dataset)

        monkeypatch.setattr(netcore, "evaluate_accuracy", counting)
        records = pf.tradeoff_sweep(a, b, [1.0], lams, methods, data)
        assert len(evaluated) == len(lams)
        assert [r.csv_row() for r in records] == want

    def test_only_ensemble_wide_networks_are_digested(self, rng, monkeypatch):
        # alpha = 0 networks are narrower than the ensemble and never repeat
        a, b = self._pair()
        data = self._eval_data(rng)
        digested, evaluated = [], []
        sha256, evaluate = hashlib.sha256, netcore.evaluate_accuracy

        def counting_sha256(*args):
            digested.append(args)
            return sha256(*args)

        def counting(net, dataset):
            evaluated.append(net)
            return evaluate(net, dataset)

        monkeypatch.setattr(analysis.hashlib, "sha256", counting_sha256)
        monkeypatch.setattr(netcore, "evaluate_accuracy", counting)
        records = pf.tradeoff_sweep(a, b, [0.0, 1.0], [0.5, 1.0], ["prune", "prune-post"], data)
        assert all(r.error is None for r in records)
        assert len(digested) == 4  # the alpha = 1 cells
        assert len(evaluated) == 4 + 2  # every alpha = 0 cell, the ensemble once per lambda

    def _serial_rows(self, a, b, alphas, lams, methods, data):
        """Each cell built and evaluated alone, in grid order (as CSV rows)."""
        rows = []
        for method in methods:
            for alpha in alphas:
                alignment = None
                if method == "partial-ot":
                    alignment = fusion.match_pair(a, b, fusion.align(a, b, pf.FusionConfig(alpha=alpha)))
                for lam in lams:
                    net = analysis.run_cell(a, b, method, alpha, lam, alignment=alignment)
                    rows.append(analysis.cell_record(net, method, alpha, lam, 0, data).csv_row())
        return rows

    @pytest.mark.one_cpu
    def test_evaluation_threads_capped(self, rng, monkeypatch):
        # eight CPUs, and the pool thread held up by its first network until
        # the caller takes one: the caller takes networks only past the
        # backlog budget or at the end, every other network goes to the one
        # pool thread, and the waiting networks' weights pass the budget only
        # while the network just added waits alone
        a, b = self._pair()
        data = self._eval_data(rng)
        alphas, lams = [0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]
        want = self._serial_rows(a, b, alphas, lams, ["prune"], data)
        widest = sum(w.nbytes for w in pf.make_ensemble(a, b, 0.5).weights)
        monkeypatch.setattr(analysis, "_BACKLOG_BYTES", 2 * widest)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 8)
        pooled, stolen = threading.Event(), threading.Event()
        on_thread, waiting = [], []
        build, evaluate, add = analysis.run_cell, netcore.evaluate_accuracy, analysis._Evaluations.add

        def recording_build(*args, **kwargs):
            if on_thread or waiting:  # from the second cell on
                assert pooled.wait(timeout=30)
            return build(*args, **kwargs)

        def recording_evaluate(net, dataset):
            thread = threading.current_thread()
            if thread is threading.main_thread():
                stolen.set()
            elif not pooled.is_set():
                pooled.set()
                assert stolen.wait(timeout=30)
            on_thread.append(thread)
            return evaluate(net, dataset)

        def recording_add(self, key, net):
            add(self, key, net)
            waiting.append((self._bytes, len(self._waiting)))

        monkeypatch.setattr(analysis, "run_cell", recording_build)
        monkeypatch.setattr(netcore, "evaluate_accuracy", recording_evaluate)
        monkeypatch.setattr(analysis._Evaluations, "add", recording_add)
        records = pf.tradeoff_sweep(a, b, alphas, lams, ["prune"], data)
        assert [r.csv_row() for r in records] == want
        pool = {t for t in on_thread if t is not threading.main_thread()}
        assert len(pool) == 1 and threading.main_thread() in on_thread
        assert len(on_thread) == len(want)  # each network evaluated once
        assert len(waiting) == len(want)
        assert all(size <= 2 * widest or count == 1 for size, count in waiting)

    @pytest.mark.one_cpu
    def test_queue_under_rapid_thread_switches(self, monkeypatch):
        # thousands of adds race the pool thread for the oldest network (a
        # one-byte budget) while the interpreter switches threads every
        # microsecond: every network is evaluated exactly once
        net = rand_net((3, 2, 2), seed=1)
        monkeypatch.setattr(analysis, "_BACKLOG_BYTES", 1)
        evaluated = []
        monkeypatch.setattr(analysis, "_evaluate", lambda n, d: evaluated.append(n) or (1.0, None, 0.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with netcore.thread_pool(1) as pool:
                evaluations = analysis._Evaluations(pool, None)
                for key in range(5000):
                    evaluations.add(key, net)
                results = evaluations.finish()
        finally:
            sys.setswitchinterval(interval)
        assert len(evaluated) == 5000 and sorted(results) == list(range(5000))
        assert all(results[key] == (1.0, None, 0.0) for key in results)

    @pytest.mark.one_cpu
    def test_one_cpu_evaluates_each_network_as_it_is_built(self, rng, monkeypatch):
        a, b = self._pair()
        data = self._eval_data(rng)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 1)
        events = []
        build, evaluate = analysis.run_cell, netcore.evaluate_accuracy

        def recording_build(*args, **kwargs):
            events.append("build")
            return build(*args, **kwargs)

        def recording_evaluate(net, dataset):
            events.append(threading.current_thread() is threading.main_thread())
            return evaluate(net, dataset)

        monkeypatch.setattr(analysis, "run_cell", recording_build)
        monkeypatch.setattr(netcore, "evaluate_accuracy", recording_evaluate)
        records = pf.tradeoff_sweep(a, b, [0.0, 0.5], [0.25, 0.75], ["prune", "prune-post"], data)
        assert all(r.error is None for r in records)
        assert events == ["build", True] * 8

    @pytest.mark.one_cpu
    def test_timed_records_match_serial_rows(self, rng, monkeypatch):
        # --timing: each cell's wall_ms is its build, plus its network's
        # evaluation (5 s here) in the first cell of that network only;
        # every other field is the serial row's
        a, b = self._pair()
        data = self._eval_data(rng)
        methods, alphas, lams = ["partial-ot", "prune", "prune-post"], [0.0, 1.0], [0.0, 0.5, 1.0]
        want = self._serial_rows(a, b, alphas, lams, methods, data)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 2)
        evaluate = analysis._evaluate
        monkeypatch.setattr(analysis, "_evaluate", lambda net, d: (*evaluate(net, d)[:2], 5.0))
        records = pf.tradeoff_sweep(a, b, alphas, lams, methods, data, measure_time=True)
        assert [analysis.replace(r, wall_ms=0.0).csv_row() for r in records] == want
        # prune and prune-post reuse the alpha = 1 ensembles that partial-ot evaluated
        first = [True] * 9 + [False] * 3 + [True] * 3 + [False] * 3
        assert [r.wall_ms >= 5000.0 for r in records] == first
        assert all(0.0 < r.wall_ms - 5000.0 * f < 5000.0 for r, f in zip(records, first))

    @pytest.mark.one_cpu
    @pytest.mark.parametrize("policy, error", [
        ("ignore", "NumericalFailure"),
        ("raise", "FloatingPointError"),  # the pool thread takes the caller's policy
    ])
    def test_pooled_evaluation_error_keeps_its_cell(self, rng, monkeypatch, policy, error):
        # A's logits overflow wherever lambda gives them weight: its last
        # hidden layer sits near 10 and its output weights are 1e308.  The
        # pool thread takes the lambda = 0.5 network and fails on it only
        # after the caller, at the end, has evaluated the lambda = 0 one.
        a, b = self._pair()
        biases = a.biases[:-2] + (np.full(6, 10.0), a.biases[-1])
        a = pf.DenseNetwork(a.weights[:-1] + (np.full((3, 6), 1e308),), biases, a.activation)
        data = self._eval_data(rng)
        pooled, finished = threading.Event(), threading.Event()
        failed_on, ok_on = [], []
        build, evaluate = analysis.run_cell, netcore.evaluate_accuracy

        def recording_build(*args, **kwargs):
            if args[4] == 0.0:  # lambda 0 waits until the pool thread has the first network
                assert pooled.wait(timeout=30)
            return build(*args, **kwargs)

        def recording(net, dataset):
            if threading.current_thread() is not threading.main_thread():
                pooled.set()
                assert finished.wait(timeout=30)
            try:
                acc = evaluate(net, dataset)
            except (netcore.NumericalFailure, FloatingPointError):
                failed_on.append(threading.current_thread())
                raise
            ok_on.append(threading.current_thread())
            finished.set()
            return acc

        monkeypatch.setattr(analysis, "run_cell", recording_build)
        monkeypatch.setattr(netcore, "evaluate_accuracy", recording)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 2)
        with np.errstate(all=policy):
            records = pf.tradeoff_sweep(a, b, [1.0], [0.5, 0.0], ["prune"], data)
        assert records[0].csv_row() == f"prune,1,0.5,0,error:{error},,,,0"
        assert records[1].error is None and records[1].accuracy is not None
        assert ok_on == [threading.main_thread()]
        assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()
