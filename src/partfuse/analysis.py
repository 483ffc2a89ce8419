"""Parameter accounting, neuron-similarity statistics, and tradeoff sweeps."""

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fusion as fus
from . import genprune as gp
from . import netcore
from .netcore import DenseNetwork, LabeledDataset, ShapeError


@dataclass(frozen=True)
class ParamReport:
    """Per-layer (total, nonzero) weight-entry counts.

    Zero detection is exact equality: zero blocks are constructed, never
    computed, so no tolerance is involved.  Biases are not counted.
    """

    per_layer: Tuple[Tuple[int, int], ...]
    total_nonzero: int
    total_entries: int


def count_params(net: DenseNetwork) -> ParamReport:
    per_layer = []
    for w in net.weights:
        per_layer.append((int(w.size), int(np.count_nonzero(w))))
    total_nz = sum(nz for _, nz in per_layer)
    total = sum(t for t, _ in per_layer)
    return ParamReport(tuple(per_layer), total_nz, total)


@dataclass(frozen=True, eq=False)
class SimilarityReport:
    """Neuron distance statistics for one hidden layer of two networks.

    values holds, per statistic, one entry per neuron: the distance to the
    most similar other neuron (nn_*) and the average distance to all others
    (mean_*), measured within each network and across the two.
    conditional80 averages only the smallest ceil(0.8 n) values of each
    statistic; difference = full mean - conditional mean, nonnegative.
    A distance that overflows reads inf in every mean it enters (the CLI's
    `stats` exits 3 on it).
    """

    layer: int
    values: Dict[str, np.ndarray]
    conditional80: Dict[str, float]
    difference: Dict[str, float]


def _conditional_mean(v: np.ndarray) -> float:
    k = int(np.ceil(0.8 * v.size))
    return float(np.mean(np.sort(v)[:k]))


def _pairwise_distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distances by direct differencing.

    The norm-expansion shortcut leaves ~1e-7 dust after the square root for
    coincident rows; differencing keeps identical neurons at exactly zero.
    """
    out = np.empty((xa.shape[0], xb.shape[0]))
    for i in range(xa.shape[0]):
        out[i] = np.linalg.norm(xa[i] - xb, axis=1)
    return out


def _within(d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per neuron, the nearest and the mean distance to the other neurons of its network."""
    n = d.shape[0]
    mean = d.sum(axis=1) / (n - 1)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1), mean


def similarity_stats(net_a: DenseNetwork, net_b: DenseNetwork, data: np.ndarray) -> tuple:
    """Per hidden layer, nearest-neighbor and mean activation distances, within and across nets."""
    feats = zip(fus.features_activation(net_a, data), fus.features_activation(net_b, data), strict=True)
    return tuple(_layer_stats(l, fa, fb) for l, (fa, fb) in enumerate(feats, start=1))


def _layer_stats(layer: int, fa: np.ndarray, fb: np.ndarray) -> SimilarityReport:
    if fa.shape[0] < 2 or fb.shape[0] < 2:
        raise ShapeError("within-network statistics need at least two neurons")
    nn_a, mean_a = _within(_pairwise_distances(fa, fa))
    nn_b, mean_b = _within(_pairwise_distances(fb, fb))
    d_ab = _pairwise_distances(fa, fb)
    values = {
        "nn_within_a": nn_a,
        "nn_within_b": nn_b,
        "nn_cross_ab": d_ab.min(axis=1),
        "nn_cross_ba": d_ab.min(axis=0),
        "mean_within_a": mean_a,
        "mean_within_b": mean_b,
        "mean_cross_ab": d_ab.mean(axis=1),
        "mean_cross_ba": d_ab.mean(axis=0),
    }
    cond = {k: _conditional_mean(v) for k, v in values.items()}
    diff = {k: float(np.mean(v)) - cond[k] for k, v in values.items()}
    return SimilarityReport(layer, values, cond, diff)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class RunRecord:
    """One sweep cell: what was built and how it measured (nothing, for an error row)."""

    method: str
    alpha: str
    lam: float
    seed: int
    accuracy: Optional[float] = None
    nonzero_params: Optional[int] = None
    total_params: Optional[int] = None
    widths: Tuple[int, ...] = ()
    wall_ms: float = 0.0
    error: Optional[str] = None

    def csv_row(self) -> str:
        acc = "" if self.accuracy is None else f"{self.accuracy:.6f}"
        nz = "" if self.nonzero_params is None else str(self.nonzero_params)
        tot = "" if self.total_params is None else str(self.total_params)
        widths = "x".join(str(w) for w in self.widths)
        err = self.error or ""
        cells = [
            self.method,
            self.alpha,
            f"{self.lam:g}",
            str(self.seed),
            acc if not err else f"error:{err}",
            nz,
            tot,
            widths,
            f"{self.wall_ms:.0f}",
        ]
        return ",".join(cells)


CSV_HEADER = "method,alpha,lambda,seed,accuracy,nonzero_params,total_params,widths,wall_ms"


def _format_alpha(alpha) -> str:
    # per-layer lists join on "|" so the value stays a single CSV cell
    return "|".join(f"{float(a):g}" for a in np.atleast_1d(alpha))


def _target_widths(net_a: DenseNetwork, net_b: DenseNetwork, alphas: Sequence[float]):
    widths = []
    for na, nb, a in zip(net_a.hidden_dims, net_b.hidden_dims, alphas):
        parent = (na + nb) / 2.0
        widths.append(int(np.clip(round((1.0 + a) * parent), 1, na + nb)))
    return tuple(widths)


def run_cell(
    net_a: DenseNetwork,
    net_b: DenseNetwork,
    method: str,
    alpha,
    lam: float,
    feature_data: Optional[np.ndarray] = None,
    seed: int = 0,
    cluster_restarts: int = 1000,
    alignment: Optional[fus.MatchedPair] = None,
) -> DenseNetwork:
    """Build the fused or pruned network of one sweep cell.

    A partial-ot cell assembles `alignment`, the pair matched to its
    alignment at this alpha (`fusion.match_pair`; no lambda changes it).
    Every other method names a PruneMethod and prunes the lam-weighted
    ensemble to (1 + alpha) times the parent widths.
    """
    if method == "partial-ot":
        if alignment is None:
            raise ValueError("a partial-ot cell needs the pair's alignment")
        return alignment.fuse(lam)
    alphas = fus.FusionConfig(alpha=alpha).alphas(net_a.num_hidden)
    spec = gp.PruneSpec(_target_widths(net_a, net_b, alphas), gp.PruneMethod(method), lam=lam)
    ensemble = netcore.make_ensemble(net_a, net_b, lam)
    return gp.prune(ensemble, spec, feature_data, restarts=cluster_restarts, seed=seed)


def cell_record(
    net: DenseNetwork,
    method: str,
    alpha,
    lam: float,
    seed: int,
    eval_data: Optional[LabeledDataset] = None,
    start: Optional[float] = None,
) -> RunRecord:
    """The record of a built network: parameter counts, plus accuracy when eval_data is given.

    wall_ms is the time since `start` (a time.perf_counter() reading), so it
    includes this evaluation; it is 0 when start is None.
    """
    report = count_params(net)
    acc = None if eval_data is None else netcore.evaluate_accuracy(net, eval_data)
    wall = 0.0 if start is None else (time.perf_counter() - start) * 1000.0
    return RunRecord(
        method=method,
        alpha=_format_alpha(alpha),
        lam=float(lam),
        seed=seed,
        accuracy=acc,
        nonzero_params=report.total_nonzero,
        total_params=report.total_entries,
        widths=net.hidden_dims,
        wall_ms=wall,
    )


# Weight bytes of the built networks that may wait for the evaluation
# thread (784-32-32-10 sweep networks hold 0.2-0.44 MB, 784-100x3-10 ones
# 0.7-2.3 MB).  Past it the calling thread evaluates the oldest itself, so
# cells that build faster than they evaluate hold at most this much plus
# the network just built.
_BACKLOG_BYTES = 1 << 20


def _reuse_key(net: DenseNetwork, ensemble_widths: Tuple[int, ...]):
    """The key under which a sweep shares `net`'s accuracy.

    The networks a sweep rebuilds are as wide as the pair's ensemble (at
    alpha = 1, partial-ot, prune and prune-post all rebuild the ensemble),
    so only such a network pays for a SHA-256 digest of all that evaluation
    reads: activation, dims, weights and biases.  Any other network gets a
    key equal to no other.
    """
    if net.hidden_dims != ensemble_widths:
        return object()
    h = hashlib.sha256(f"{net.activation.name}{net.dims}".encode())
    for array in net.weights + net.biases:
        h.update(array)  # C-contiguous, as DenseNetwork stores them
    return h.digest()


def _evaluate(net: DenseNetwork, eval_data: LabeledDataset):
    """(accuracy, error type name, seconds) of one evaluation; an exception gives its name."""
    t0 = time.perf_counter()
    try:
        acc, error = netcore.evaluate_accuracy(net, eval_data), None
    except Exception as exc:  # noqa: BLE001 - error rows by contract
        acc, error = None, type(exc).__name__
    return acc, error, time.perf_counter() - t0


class _Evaluations:
    """A sweep's evaluations, run on one pool thread while the caller builds.

    Networks wait in the order they were added, and each evaluation takes
    the oldest.  The pool thread gets one turn per network; the calling
    thread takes the oldest itself while the waiting networks' weights
    exceed _BACKLOG_BYTES (never the one it just added, which would gain
    nothing), and takes every network still waiting in `finish`.  Only the
    queue refers to a waiting network, so a network is dropped once its
    evaluation has started.  Without a pool thread each network is
    evaluated as it is added.  A key added before adds nothing.
    """

    def __init__(self, pool: netcore.CallerPool, eval_data: LabeledDataset):
        self._pool = pool if pool.workers > 1 else None
        self._eval_data = eval_data
        self._lock = threading.Lock()
        self._waiting = deque()  # (key, network, weight bytes), oldest first
        self._bytes = 0  # weight bytes waiting
        self._turns = []  # the pool thread's futures
        self._results = {}  # reuse key -> (accuracy, error, seconds)

    def add(self, key, net: DenseNetwork) -> None:
        if key in self._results:
            return
        self._results[key] = None  # until its evaluation ends
        size = sum(w.nbytes for w in net.weights)
        with self._lock:
            self._waiting.append((key, net, size))
            self._bytes += size
        if self._pool is None:
            self._evaluate_oldest()
            return
        self._turns.append(self._pool.submit(self._evaluate_oldest))
        while self._bytes > _BACKLOG_BYTES and len(self._waiting) > 1:
            self._evaluate_oldest()

    def _evaluate_oldest(self) -> None:
        """Evaluate the oldest waiting network, if one still waits."""
        with self._lock:
            if not self._waiting:
                return  # the calling thread took it
            key, net, size = self._waiting.popleft()
            self._bytes -= size
        self._results[key] = _evaluate(net, self._eval_data)

    def finish(self) -> dict:
        """Every added network's result, by reuse key, once all have run."""
        while self._waiting:
            self._evaluate_oldest()
        for turn in self._turns:
            turn.result()
        return self._results


def tradeoff_sweep(
    net_a: DenseNetwork,
    net_b: DenseNetwork,
    alpha_grid: Sequence,
    lambda_grid: Sequence[float],
    methods: Sequence[str],
    eval_data: LabeledDataset,
    feature_data: Optional[np.ndarray] = None,
    seed: int = 0,
    cfg_base: Optional[fus.FusionConfig] = None,
    cluster_restarts: int = 1000,
    measure_time: bool = False,
) -> List[RunRecord]:
    """Evaluate every (method, alpha, lambda) cell in deterministic grid order.

    A partial-ot alpha is aligned and matched once, in its first lambda's
    cell, and every lambda fuses that matched pair (a failed alignment is
    retried, so its error fills each of the alpha's rows).  Cells are built
    in grid order on the calling thread, and each network goes to a pool
    thread for evaluation as soon as it is built, while the next cell
    builds (`_Evaluations`).  An ensemble-wide network whose SHA-256
    digest matches an earlier one, such as the alpha = 1 ensemble every
    method rebuilds, reuses its accuracy.  Results are read in cell order.
    A cell that raises becomes an error row: the exception's type name in
    the accuracy column.
    """
    base = cfg_base or fus.FusionConfig()
    cells = []  # (record, reuse key) in grid order: key None for an error row
    ensemble_widths = tuple(wa + wb for wa, wb in zip(net_a.hidden_dims, net_b.hidden_dims))
    with netcore.CallerPool(2) as pool:
        evaluations = _Evaluations(pool, eval_data)
        for method in methods:
            for alpha in alpha_grid:
                alignment = None
                for lam in lambda_grid:
                    start = time.perf_counter() if measure_time else None
                    try:
                        if method == "partial-ot" and alignment is None:
                            cfg = replace(base, alpha=alpha)
                            aligned = fus.align(net_a, net_b, cfg, data=feature_data)
                            alignment = fus.match_pair(net_a, net_b, aligned)
                        net = run_cell(
                            net_a,
                            net_b,
                            method,
                            alpha,
                            lam,
                            feature_data=feature_data,
                            seed=seed,
                            cluster_restarts=cluster_restarts,
                            alignment=alignment,
                        )
                        key = _reuse_key(net, ensemble_widths)
                        cells.append((cell_record(net, method, alpha, lam, seed, start=start), key))
                        evaluations.add(key, net)
                        del net  # the evaluation holds it until it starts
                    except Exception as exc:  # noqa: BLE001 - error rows by contract
                        cell = (method, _format_alpha(alpha), float(lam), seed)
                        cells.append((RunRecord(*cell, error=type(exc).__name__), None))
        results = evaluations.finish()
    eval_ms = {key: 1000.0 * seconds for key, (_, _, seconds) in results.items()}
    records = []
    for record, key in cells:
        if key is not None:
            acc, error, _ = results[key]
            if error is None:
                # a reused accuracy adds no evaluation time
                wall = record.wall_ms + eval_ms.pop(key, 0.0) if measure_time else 0.0
                record = replace(record, accuracy=acc, wall_ms=wall)
            else:
                cell = (record.method, record.alpha, record.lam, record.seed)
                record = RunRecord(*cell, error=error)
        records.append(record)
    return records
