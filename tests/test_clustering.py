import collections
import contextlib
import multiprocessing
import os
import threading
import time
import warnings

import numpy as np
import pytest

import partfuse as pf
from partfuse import clustering, netcore
from partfuse.clustering import _labels_to_assignment

from oracles import brute_force_clustering, clustering_objective, dense_agglomerate, greedy_ward


def uniform(n):
    return pf.DiscreteMeasure.uniform(n)


class TestObjective:
    def test_every_point_its_own_center(self, rng):
        pts = rng.normal(size=(5, 2))
        a = _labels_to_assignment(pts, uniform(5).masses, np.arange(5))
        assert clustering_objective(pts, uniform(5), a) == 0.0

    def test_coincident_points_single_center(self):
        pts = np.ones((2, 3))
        a = _labels_to_assignment(pts, uniform(2).masses, np.zeros(2, dtype=int))
        assert clustering_objective(pts, uniform(2), a) == 0.0

    def test_hand_computed_pairings(self):
        # four points 0, 0, 10, 10 with masses 1/4 each
        pts = np.array([[0.0], [0.0], [10.0], [10.0]])
        mu = uniform(4)
        paired = _labels_to_assignment(pts, mu.masses, np.array([0, 0, 1, 1]))
        assert clustering_objective(pts, mu, paired) == 0.0
        crossed = _labels_to_assignment(pts, mu.masses, np.array([0, 1, 0, 1]))
        assert clustering_objective(pts, mu, crossed) == pytest.approx(25.0)


class TestGreedyWard:
    def test_two_points_merge_value(self):
        pts = np.array([[0.0], [2.0]])
        masses = pf.DiscreteMeasure(np.array([0.3, 0.7]))
        a = greedy_ward(pts, masses, 1)
        want = (0.3 * 0.7 / 1.0) * 4.0
        assert clustering_objective(pts, masses, a) == pytest.approx(want)

    def test_singletons_zero(self, rng):
        pts = rng.normal(size=(5, 3))
        a = greedy_ward(pts, uniform(5), 5)
        assert clustering_objective(pts, uniform(5), a) == 0.0

    def test_three_tight_pairs(self, rng):
        anchors = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        pts = np.vstack([a + 0.01 * rng.normal(size=(2, 2)) for a in anchors])
        mu = uniform(6)
        a = greedy_ward(pts, mu, 3)
        assert clustering_objective(pts, mu, a) == pytest.approx(
            brute_force_clustering(pts, mu, 3), abs=1e-12
        )
        assert a.assign[0] == a.assign[1]
        assert a.assign[2] == a.assign[3]
        assert a.assign[4] == a.assign[5]

    def test_never_beats_brute_force(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            m = int(rng.integers(1, n))
            pts = rng.normal(size=(n, 2))
            mu = uniform(n)
            greedy = clustering_objective(pts, mu, greedy_ward(pts, mu, m))
            assert greedy >= brute_force_clustering(pts, mu, m) - 1e-12


class TestStochasticWard:
    def test_best_of_restarts_non_increasing(self, rng):
        pts = rng.normal(size=(10, 2))
        mu = uniform(10)
        objs = [
            clustering_objective(
                pts, mu, pf.stochastic_ward(pts, mu, 3, restarts=r, seed=7)
            )
            for r in (1, 5, 20, 50)
        ]
        assert all(objs[i + 1] <= objs[i] + 1e-15 for i in range(len(objs) - 1))

    def test_near_optimal_on_small_instances(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(8, 2))
            mu = uniform(8)
            opt = brute_force_clustering(pts, mu, 3)
            obj = clustering_objective(
                pts, mu, pf.stochastic_ward(pts, mu, 3, restarts=300, seed=seed)
            )
            hits += obj <= 1.01 * opt + 1e-12
        assert hits >= 19

    def test_deterministic(self, rng):
        pts = rng.normal(size=(8, 2))
        mu = uniform(8)
        a = pf.stochastic_ward(pts, mu, 3, restarts=20, seed=5)
        b = pf.stochastic_ward(pts, mu, 3, restarts=20, seed=5)
        np.testing.assert_array_equal(a.assign, b.assign)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_full_width_merges_nothing(self, rng, monkeypatch):
        def no_merges(*args, **kwargs):
            raise AssertionError("agglomeration reached at m == n")

        monkeypatch.setattr(pf.clustering, "_agglomerate", no_merges)
        a = pf.stochastic_ward(rng.normal(size=(6, 3)), uniform(6), 6, restarts=3)
        np.testing.assert_array_equal(a.assign, np.arange(6))

    def test_invalid_parameters(self, rng):
        pts = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            pf.stochastic_ward(pts, uniform(4), 2, restarts=0)

    def test_negative_seed_rejected_before_any_work(self, rng, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("pair state built for a negative seed")

        monkeypatch.setattr(clustering, "_ward_pairs", no_work)
        for m in (3, 8):  # m == n returns before the pair state too
            with pytest.raises(ValueError, match="seed"):
                pf.stochastic_ward(rng.normal(size=(8, 2)), uniform(8), m, restarts=2, seed=-1)

    def test_pair_state_built_once_per_call(self, rng, monkeypatch):
        calls = []
        real = clustering._ward_delta_matrix

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(clustering, "_ward_delta_matrix", counted)
        pts = rng.normal(size=(7, 3))
        for restarts in (1, 4, 9):
            calls.clear()
            pf.stochastic_ward(pts, uniform(7), 3, restarts=restarts)
            assert len(calls) == 1
        calls.clear()
        pf.stochastic_ward(pts, uniform(7), 7, restarts=4)
        assert calls == []


class TestCondensedPairState:
    def test_labels_match_dense_reference(self):
        for case in range(40):
            rng = np.random.default_rng(500 + case)
            n = int(rng.integers(2, 61))
            pts = rng.normal(size=(n, int(rng.integers(1, 9))))
            if case % 3 == 0:  # duplicated points: exact ties in delta
                pts = pts[rng.integers(0, max(1, n // 3), size=n)]
            elif case % 3 == 1:  # coarse grid: more exact ties
                pts = np.round(2 * pts)
            w = pf.DiscreteMeasure(rng.random(n) + 0.05).masses if case % 2 else uniform(n).masses
            m = int(rng.integers(1, n))
            pairs = clustering._ward_pairs(pts, w)
            for seed, r in ((case, 0), (case, 1), (7, case)):
                got = clustering._agglomerate(pts, w, m, np.random.default_rng((seed, r)), pairs)
                want = dense_agglomerate(
                    pts, w, m, np.random.default_rng((seed, r)), clustering.TEMPERATURE
                )
                np.testing.assert_array_equal(got, want)


def _whole_array_cluster_centers(points, masses, labels, m):
    """The centroid helper before row blocking: one n x d temporary of rows."""
    mass = np.bincount(labels, weights=masses, minlength=m)
    rows = (masses / mass[labels])[:, None] * points
    centers = np.zeros((m, points.shape[1]))
    for k, c in enumerate(labels.tolist()):
        centers[c] += rows[k]
    return centers, mass


def _whole_array_objective(points, masses, labels):
    """The restart objective before row blocking: one n x d difference."""
    centers, _ = _whole_array_cluster_centers(points, masses, labels, points.shape[0])
    diff = centers[labels]
    np.subtract(points, diff, out=diff)
    return float(np.sum(masses * np.einsum("ij,ij->i", diff, diff)))


class TestRowBlocks:
    """Per-restart temporaries built 64 rows at a time give bitwise the
    whole-array values, below, at and past one block."""

    @pytest.mark.parametrize("n", [5, 63, 64, 65, 200])
    def test_centers_and_objective_match_whole_array(self, n):
        rng = np.random.default_rng(n)
        for d in (1, 3, 130):
            pts = rng.normal(size=(n, d))
            pts[::3, 0] = -0.0  # the sign of zero sums must match too
            masses = rng.random(n) + 0.1
            # slot ids as _agglomerate leaves them: not consecutive
            slots = np.sort(rng.choice(n, size=max(1, n // 3), replace=False))
            labels = slots[rng.integers(0, slots.size, size=n)]
            centers, mass = clustering._cluster_centers(pts, masses, labels, n)
            want_centers, want_mass = _whole_array_cluster_centers(pts, masses, labels, n)
            assert centers.tobytes() == want_centers.tobytes()
            assert mass.tobytes() == want_mass.tobytes()
            assert clustering._objective_for_labels(pts, masses, labels) == _whole_array_objective(
                pts, masses, labels
            )

    @pytest.mark.parametrize("n", [5, 63, 64, 65, 200])
    def test_merge_rows_match_whole_array(self, n):
        # dense_agglomerate computes each merged row over the whole n x d array
        rng = np.random.default_rng(100 + n)
        grid = np.round(2 * rng.normal(size=(n, 2)))  # exact ties: any changed bit re-breaks them
        for pts, w in (
            (grid, uniform(n).masses),
            (rng.normal(size=(n, 70)), pf.DiscreteMeasure(rng.random(n) + 0.05).masses),
        ):
            m = max(1, n // 4)
            pairs = clustering._ward_pairs(pts, w)
            d = pts.shape[1]
            got = clustering._agglomerate(pts, w, m, np.random.default_rng((n, d)), pairs)
            want = dense_agglomerate(pts, w, m, np.random.default_rng((n, d)), clustering.TEMPERATURE)
            np.testing.assert_array_equal(got, want)


def _restart_results(points, masses, m, restarts, seed):
    """(objective, labels) of each restart, one after another on this thread."""
    w = masses.masses
    pairs = clustering._ward_pairs(points, w)
    results = []
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        labels = clustering._agglomerate(points, w, m, rng=rng, pairs=pairs)
        results.append((_whole_array_objective(points, w, labels), labels))
    return results


def _serial_stochastic_ward(points, masses, m, restarts, seed):
    """The restart loop before threads: the strict < keeps the earliest best."""
    best = None
    for obj, labels in _restart_results(points, masses, m, restarts, seed):
        if best is None or obj < best[0]:
            best = (obj, labels)
    return _labels_to_assignment(points, masses.masses, best[1])


def _square_corners(copies, d):
    """Four corners of a square, each repeated: pairing them across either
    side gives two partitions of exactly equal objective."""
    corners = np.zeros((4, d))
    corners[[1, 3], 0] = corners[[2, 3], 1] = 1e5
    return np.repeat(corners, copies, axis=0)


def _overflowing_picks():
    """80 x 1000 points, 70 of them identical: the median merge cost is 0."""
    pts = np.zeros((80, 1000))
    pts[70:, :2] = 1e5 * np.random.default_rng(4).normal(size=(10, 2))
    return pts, uniform(80)


def _parallel_instances():
    rng = np.random.default_rng(77)
    relu = np.maximum(rng.normal(size=(90, 800)), 0.0)
    return {
        # (points, masses, m, restarts, seed)
        "below-threshold": (rng.normal(size=(40, 30)), uniform(40), 25, 12, 3),
        "above-threshold": (relu, pf.DiscreteMeasure(rng.random(90) + 0.05), 60, 7, 5),
        # 64 x 1024 points, just above the threshold; masses 1/64 keep
        # every center and objective exact, so the two pairings tie bitwise
        "duplicated-rows": (_square_corners(16, 1024), uniform(64), 2, 9, 0),
    }


@contextlib.contextmanager
def _idle_thread():
    """A second thread stays alive, so stochastic_ward may not fork."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# route -> a context in which stochastic_ward takes it
_ROUTES = {"fork": contextlib.nullcontext, "threads": _idle_thread}


class TestParallelRestarts:
    """stochastic_ward equals the serial restart loop bitwise on either route,
    for any CPU count, and leaves no process behind."""

    @pytest.fixture(autouse=True)
    def no_process_left(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(_parallel_instances()))
    def test_matches_serial_loop(self, monkeypatch, case, workers):
        points, masses, m, restarts, seed = _parallel_instances()[case]
        monkeypatch.setattr(netcore, "available_cpus", lambda: workers)
        want = _serial_stochastic_ward(points, masses, m, restarts, seed)
        for route in _ROUTES.values():
            with route():
                got = pf.stochastic_ward(points, masses, m, restarts=restarts, seed=seed)
            assert got.assign.tobytes() == want.assign.tobytes()
            assert got.centers.tobytes() == want.centers.tobytes()

    def test_duplicated_rows_tie_across_restarts(self):
        # the premise of the duplicated-rows case: a later restart reaches the
        # best objective with another partition, so only the earliest may win
        points, masses, m, restarts, seed = _parallel_instances()["duplicated-rows"]
        results = _restart_results(points, masses, m, restarts, seed)
        best = min(obj for obj, _ in results)
        partitions = {
            _labels_to_assignment(points, masses.masses, labels).assign.tobytes()
            for obj, labels in results
            if obj == best
        }
        assert len(partitions) >= 2

    @pytest.mark.parametrize(
        "objectives",
        [
            [np.nan, 1.0, 0.0, 1.0, 0.5, 2.0, 0.0],  # the loop keeps restart 0's NaN
            [3.0, np.nan, 2.0, 1.0, 1.0, np.nan, 5.0],  # and skips a later one
            [2.0, 1.0, np.nan, 1.0, np.nan, 0.5, np.nan],
            [5.0, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan],
            [2.0, 0.5, 1.0, 0.5, 1.0, 1.0, 1.0],  # worker 0's tie is the later restart
            [1.0] * 7,
        ],
    )
    def test_picks_what_the_strict_loop_picks(self, monkeypatch, objectives):
        # restart r puts point 0 into point r + 1's cluster and scores objectives[r]
        first_draw = {int(np.random.default_rng((0, r)).integers(1 << 62)): r for r in range(7)}

        def agglomerate(points, w, m, rng, pairs):
            labels = np.arange(len(w))
            labels[0] = first_draw[int(rng.integers(1 << 62))] + 1
            return labels

        monkeypatch.setattr(clustering, "_agglomerate", agglomerate)
        monkeypatch.setattr(clustering, "_objective_for_labels", lambda p, w, labels: objectives[labels[0] - 1])
        monkeypatch.setattr(netcore, "available_cpus", lambda: 3)
        best = 0
        for r, objective in enumerate(objectives):
            if objective < objectives[best]:
                best = r
        points, masses = np.zeros((64, 800)), uniform(64)
        want = agglomerate(points, masses.masses, 63, np.random.default_rng((0, best)), None)
        want = _labels_to_assignment(points, masses.masses, want).assign.tobytes()
        for route in _ROUTES.values():
            with route():
                got = pf.stochastic_ward(points, masses, 63, restarts=7)
            assert got.assign.tobytes() == want

    @pytest.fixture
    def started(self, monkeypatch):
        """Workers stochastic_ward starts beside the caller, by route."""
        started = collections.Counter()

        class RecordingPool(netcore.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started["threads"] += max_workers
                super().__init__(max_workers, **kwargs)

        fork = multiprocessing.context.ForkProcess.start

        def recording_fork(process):
            started["fork"] += 1
            fork(process)

        monkeypatch.setattr(netcore, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording_fork)
        return started

    @pytest.mark.parametrize("case, helpers", [("below-threshold", 0), ("above-threshold", 2)])
    def test_pool_only_above_threshold(self, monkeypatch, started, case, helpers):
        points, masses, m, restarts, seed = _parallel_instances()[case]
        monkeypatch.setattr(netcore, "available_cpus", lambda: 3)
        for route, context in _ROUTES.items():
            started.clear()
            with context():
                pf.stochastic_ward(points, masses, m, restarts=restarts, seed=seed)
            # the caller runs a share of the restarts itself
            assert started == ({route: helpers} if helpers else {})

    @pytest.mark.parametrize("n, d, helpers", [(200, 100, 1), (100, 300, 0)])
    def test_threshold_counts_pair_work(self, monkeypatch, started, n, d, helpers):
        # 200 x 100 has fewer coordinates than 100 x 300 but more pair work;
        # two restarts need one helper
        points = np.random.default_rng(n).normal(size=(n, d))
        monkeypatch.setattr(netcore, "available_cpus", lambda: 3)
        for route, context in _ROUTES.items():
            started.clear()
            with context():
                pf.stochastic_ward(points, uniform(n), n - 5, restarts=2)
            assert started == ({route: helpers} if helpers else {})

    @pytest.mark.one_cpu
    def test_forks_one_child_per_extra_cpu(self, started):
        # the real affinity lookup: pinned to one CPU, nothing is forked
        points, masses, m, restarts, seed = _parallel_instances()["above-threshold"]
        got = pf.stochastic_ward(points, masses, m, restarts=restarts, seed=seed)
        assert started["fork"] == min(restarts, netcore.available_cpus()) - 1
        want = _serial_stochastic_ward(points, masses, m, restarts, seed)
        assert got.assign.tobytes() == want.assign.tobytes()

    def test_workers_take_the_callers_error_policy(self, monkeypatch):
        # mostly identical rows: the median delta is 0, so the pick weights
        # overflow to -inf before exp
        pts, mu = _overflowing_picks()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _serial_stochastic_ward(pts, mu, 5, 4, 0)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 3)
        for route in _ROUTES.values():
            with route(), np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                got = pf.stochastic_ward(pts, mu, 5, restarts=4)
                want = _serial_stochastic_ward(pts, mu, 5, 4, 0)
            assert got.assign.tobytes() == want.assign.tobytes()

    @pytest.mark.parametrize("where", ["everywhere", "helpers"])
    def test_a_raising_restart_reaches_the_caller(self, monkeypatch, where):
        pts, mu = _overflowing_picks()
        caller = os.getpid(), threading.get_ident()
        agglomerate = clustering._agglomerate

        def raising(*args):
            if where == "everywhere" or (os.getpid(), threading.get_ident()) != caller:
                with np.errstate(over="raise"):
                    return agglomerate(*args)
            return agglomerate(*args)

        monkeypatch.setattr(clustering, "_agglomerate", raising)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 3)
        for route in _ROUTES.values():
            with route(), np.errstate(over="ignore"), pytest.raises(FloatingPointError):
                pf.stochastic_ward(pts, mu, 5, restarts=4)
            assert multiprocessing.active_children() == []

    def test_a_raising_caller_stops_its_children(self, monkeypatch):
        pts, mu = _overflowing_picks()
        caller, agglomerate = os.getpid(), clustering._agglomerate

        def stalling(*args):
            if os.getpid() != caller:
                time.sleep(60)  # the call returns at once only if it stops them
            with np.errstate(over="raise"):
                return agglomerate(*args)

        monkeypatch.setattr(clustering, "_agglomerate", stalling)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 3)
        start = time.perf_counter()
        with pytest.raises(FloatingPointError):
            pf.stochastic_ward(pts, mu, 5, restarts=4)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        pts, mu = _overflowing_picks()
        caller, agglomerate = os.getpid(), clustering._agglomerate

        def dying(*args):
            if os.getpid() != caller:
                os._exit(7)
            return agglomerate(*args)

        monkeypatch.setattr(clustering, "_agglomerate", dying)
        monkeypatch.setattr(netcore, "available_cpus", lambda: 3)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="exited with code 7"):
            pf.stochastic_ward(pts, mu, 5, restarts=4)


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_everywhere(self, rng, bad):
        pts = rng.normal(size=(8, 3))
        pts[5, 1] = bad
        mu = uniform(8)
        with pytest.raises(ValueError, match="points must be finite"):
            greedy_ward(pts, mu, 3)
        with pytest.raises(ValueError, match="points must be finite"):
            pf.stochastic_ward(pts, mu, 3, restarts=2)
        with pytest.raises(ValueError, match="points must be finite"):
            brute_force_clustering(pts, mu, 3)
        a = _labels_to_assignment(pts, mu.masses, np.arange(8) % 3)
        with pytest.raises(ValueError, match="points must be finite"):
            clustering_objective(pts, mu, a)

    def test_overflowing_merge_costs_rejected(self, rng):
        # finite points whose squared distances overflow
        pts = rng.normal(size=(8, 3)) * 1e160
        mu = uniform(8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(clustering.MergeCostOverflow):
                greedy_ward(pts, mu, 3)
            with pytest.raises(clustering.MergeCostOverflow):
                pf.stochastic_ward(pts, mu, 3, restarts=2)


class TestTranslationInvariance:
    def test_assignments_unchanged_by_shift(self):
        shift = np.array([7.5, -3.25])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(9, 2))
            mu = uniform(9)
            base = pf.stochastic_ward(pts, mu, 3, restarts=50, seed=seed)
            moved = pf.stochastic_ward(pts + shift, mu, 3, restarts=50, seed=seed)
            np.testing.assert_array_equal(base.assign, moved.assign)
            gw_base = greedy_ward(pts, mu, 4)
            gw_moved = greedy_ward(pts + shift, mu, 4)
            np.testing.assert_array_equal(gw_base.assign, gw_moved.assign)


class TestAssignmentKernels:
    def test_identity_assignment(self, rng):
        pts = rng.normal(size=(4, 2))
        a = _labels_to_assignment(pts, uniform(4).masses, np.arange(4))
        kp = pf.assignment_to_kernels(a, uniform(4))
        np.testing.assert_allclose(kp.k_ab, np.eye(4))
        np.testing.assert_allclose(kp.k_ba, np.eye(4))

    def test_uniform_pairs(self, rng):
        pts = rng.normal(size=(4, 2))
        a = _labels_to_assignment(pts, uniform(4).masses, np.array([0, 0, 1, 1]))
        kp = pf.assignment_to_kernels(a, uniform(4))
        np.testing.assert_allclose(kp.k_ba[:, 0], [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(kp.k_ba[:, 1], [0.0, 0.0, 0.5, 0.5])

    def test_columns_stochastic(self, rng):
        pts = rng.normal(size=(7, 2))
        masses = pf.DiscreteMeasure(rng.random(7) + 0.1)
        labels = rng.integers(0, 3, size=7)
        labels[:3] = [0, 1, 2]  # no empty cluster
        a = _labels_to_assignment(pts, masses.masses, labels)
        kp = pf.assignment_to_kernels(a, masses)
        np.testing.assert_allclose(kp.k_ab.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(kp.k_ba.sum(axis=0), 1.0, atol=1e-12)

    def test_measure_inconsistent_with_center_masses_rejected(self, rng):
        pts = rng.normal(size=(4, 2))
        a = _labels_to_assignment(pts, uniform(4).masses, np.array([0, 0, 1, 1]))
        skewed = pf.DiscreteMeasure(np.array([0.1, 0.1, 0.4, 0.4]))
        with pytest.raises(ValueError, match="column sums"):
            pf.assignment_to_kernels(a, skewed)


class TestBruteForceClustering:
    def test_all_singletons(self, rng):
        pts = rng.normal(size=(3, 2))
        assert brute_force_clustering(pts, uniform(3), 3) == 0.0

    def test_two_points_one_cluster(self):
        pts = np.array([[0.0], [2.0]])
        masses = pf.DiscreteMeasure(np.array([0.3, 0.7]))
        want = (0.3 * 0.7 / 1.0) * 4.0
        assert brute_force_clustering(pts, masses, 1) == pytest.approx(want)

    def test_pairs_case(self, rng):
        anchors = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        pts = np.vstack([a + 0.01 * rng.normal(size=(2, 2)) for a in anchors])
        mu = uniform(6)
        opt = brute_force_clustering(pts, mu, 3)
        a = _labels_to_assignment(pts, mu.masses, np.array([0, 0, 1, 1, 2, 2]))
        assert opt == pytest.approx(clustering_objective(pts, mu, a), abs=1e-12)

    def test_too_large_rejected(self, rng):
        with pytest.raises(ValueError):
            brute_force_clustering(rng.normal(size=(11, 2)), uniform(11), 3)


class TestInvariants:
    def test_centers_match_add_at_reference(self, rng):
        for n, d in ((1, 7), (5, 7), (12, 30)):
            pts = rng.normal(size=(n, d))
            pts[::2, 0] = -0.0  # the sign of zero sums must match too
            masses = rng.random(n) + 0.1
            labels = rng.integers(0, max(1, n // 3), size=n) * 3  # not consecutive
            uniq, inverse = np.unique(labels, return_inverse=True)
            mass = np.zeros(len(uniq))
            np.add.at(mass, inverse, masses)
            centers = np.zeros((len(uniq), d))
            np.add.at(centers, inverse, (masses / mass[inverse])[:, None] * pts)
            a = _labels_to_assignment(pts, masses, labels)
            np.testing.assert_array_equal(a.assign, inverse)
            assert a.centers.tobytes() == centers.tobytes()
            assert a.center_mass.tobytes() == mass.tobytes()
            diff = pts - centers[inverse]
            want = float(np.sum(masses * np.einsum("ij,ij->i", diff, diff)))
            assert clustering._objective_for_labels(pts, masses, labels) == want

    def test_center_mass_consistency(self, rng):
        pts = rng.normal(size=(8, 3))
        masses = pf.DiscreteMeasure(rng.random(8) + 0.2)
        a = greedy_ward(pts, masses, 3)
        for k in range(a.num_clusters):
            members = a.assign == k
            assert a.center_mass[k] == pytest.approx(masses.masses[members].sum(), abs=1e-12)
            np.testing.assert_allclose(
                a.centers[k],
                np.average(pts[members], axis=0, weights=masses.masses[members]),
                atol=1e-9,
            )
