"""Parameter accounting, neuron-similarity statistics, and tradeoff sweeps."""

import time
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
    ratio_vs_single: Optional[float] = None


def count_params(net: DenseNetwork, reference_nonzero: Optional[int] = None) -> ParamReport:
    per_layer = []
    for w in net.weights:
        per_layer.append((int(w.size), int(np.count_nonzero(w))))
    total_nz = sum(nz for _, nz in per_layer)
    total = sum(t for t, _ in per_layer)
    ratio = None if reference_nonzero is None else total_nz / reference_nonzero
    return ParamReport(tuple(per_layer), total_nz, total, ratio)


def theoretical_counts(alpha: float, n: int, m: int, method: str) -> Tuple[float, float]:
    """Closed-form (best, worst) nonzero counts of one pruned-ensemble layer.

    n and m are the parent layer widths below and above the weight matrix;
    the compressed layer keeps (1 + alpha) times the parent neurons.
    Partial fusion has a single deterministic count.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if n < 1 or m < 1:
        raise ValueError("layer widths must be positive")
    nm = n * m
    if method == "pruning":
        return 2.0 * ((1.0 + alpha) / 2.0) ** 2 * nm, (1.0 + alpha**2) * nm
    if method == "clustering":
        return 2.0 * ((1.0 + alpha) / 2.0) ** 2 * nm, (1.0 - alpha**2 + 2.0 * alpha) * nm
    if method == "partial-fusion":
        value = (1.0 - alpha**2 + 2.0 * alpha) * nm
        return value, value
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SimilarityReport:
    """Neuron distance statistics for one hidden layer of two networks.

    values holds, per statistic, one entry per neuron: the distance to the
    most similar other neuron (nn_*) and the average distance to all others
    (mean_*), measured within each network and across the two.
    conditional80 averages only the smallest ceil(0.8 n) values of each
    statistic; difference = full mean - conditional mean, nonnegative.
    """

    layer: int
    values: Dict[str, np.ndarray]
    full_mean: Dict[str, float]
    conditional80: Dict[str, float]
    difference: Dict[str, float]


def _conditional_mean(v: np.ndarray, keep_fraction: float = 0.8) -> float:
    k = int(np.ceil(keep_fraction * v.size))
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


def similarity_stats(
    net_a: DenseNetwork, net_b: DenseNetwork, data: np.ndarray, layer: int
) -> SimilarityReport:
    """Nearest-neighbor and mean activation distances, within and across nets."""
    fa, _ = fus.features_activation(net_a, data, layer)
    fb, _ = fus.features_activation(net_b, data, layer)
    if fa.shape[0] < 2 or fb.shape[0] < 2:
        raise ShapeError("within-network statistics need at least two neurons")
    d_aa = _pairwise_distances(fa, fa)
    d_bb = _pairwise_distances(fb, fb)
    d_ab = _pairwise_distances(fa, fb)
    np.fill_diagonal(d_aa, np.inf)
    np.fill_diagonal(d_bb, np.inf)
    n_a, n_b = fa.shape[0], fb.shape[0]
    values = {
        "nn_within_a": d_aa.min(axis=1),
        "nn_within_b": d_bb.min(axis=1),
        "nn_cross_ab": d_ab.min(axis=1),
        "nn_cross_ba": d_ab.min(axis=0),
        "mean_within_a": np.where(np.isinf(d_aa), 0.0, d_aa).sum(axis=1) / (n_a - 1),
        "mean_within_b": np.where(np.isinf(d_bb), 0.0, d_bb).sum(axis=1) / (n_b - 1),
        "mean_cross_ab": d_ab.mean(axis=1),
        "mean_cross_ba": d_ab.mean(axis=0),
    }
    full = {k: float(np.mean(v)) for k, v in values.items()}
    cond = {k: _conditional_mean(v) for k, v in values.items()}
    diff = {k: full[k] - cond[k] for k in values}
    return SimilarityReport(layer, values, full, cond, diff)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class RunRecord:
    """One sweep cell: what was built and how it measured."""

    method: str
    alpha: str
    lam: float
    seed: int
    accuracy: Optional[float]
    nonzero_params: Optional[int]
    total_params: Optional[int]
    widths: Tuple[int, ...]
    wall_ms: float
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
    if np.isscalar(alpha):
        return f"{float(alpha):g}"
    return "|".join(f"{float(a):g}" for a in alpha)


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
    cfg_base: Optional[fus.FusionConfig] = None,
    cluster_restarts: int = 1000,
    alignment: Optional[fus.AlignResult] = None,
) -> DenseNetwork:
    """Build the fused or pruned network for one sweep cell.

    A partial-ot cell fuses with `alignment` when given; it must be the
    alignment of this pair at this alpha, which no lambda changes.
    """
    base = cfg_base or fus.FusionConfig()
    alphas = fus.FusionConfig(alpha=alpha).alphas(net_a.num_hidden)
    if method == "partial-ot":
        if alignment is None:
            alignment = fus.align(net_a, net_b, replace(base, alpha=alpha), data=feature_data)
        return fus.fuse_aligned(net_a, net_b, alignment, lam)
    ensemble = netcore.make_ensemble(net_a, net_b, lam)
    widths = _target_widths(net_a, net_b, alphas)
    if method == "cluster":
        spec = gp.PruneSpec(widths, gp.PruneMethod.CLUSTER, lam=lam)
        if feature_data is None:
            raise ValueError("cluster pruning needs feature data")
        return gp.cluster_prune(ensemble, spec, feature_data, restarts=cluster_restarts, seed=seed)
    if method == "prune":
        spec = gp.PruneSpec(widths, gp.PruneMethod.UNSTRUCTURED, lam=lam)
        return gp.unstructured_prune(ensemble, spec)
    if method == "prune-post":
        spec = gp.PruneSpec(widths, gp.PruneMethod.UNSTRUCTURED_POSTPROCESS, lam=lam)
        return gp.prune_with_postprocess(ensemble, spec)
    raise ValueError(f"unknown method {method!r}")


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
    continue_on_error: bool = True,
) -> List[RunRecord]:
    """Evaluate every (method, alpha, lambda) cell in deterministic grid order.

    A partial-ot alpha is aligned once, in its first lambda's cell, and every
    lambda fuses with that alignment (a failed alignment is retried, so its
    error fills each of the alpha's rows).
    """
    base = cfg_base or fus.FusionConfig()
    records = []
    for method in methods:
        for alpha in alpha_grid:
            alignment = None
            for lam in lambda_grid:
                start = time.perf_counter()
                try:
                    if method == "partial-ot" and alignment is None:
                        cfg = replace(base, alpha=alpha)
                        alignment = fus.align(net_a, net_b, cfg, data=feature_data)
                    net = run_cell(
                        net_a,
                        net_b,
                        method,
                        alpha,
                        lam,
                        feature_data=feature_data,
                        seed=seed,
                        cfg_base=cfg_base,
                        cluster_restarts=cluster_restarts,
                        alignment=alignment,
                    )
                    report = count_params(net)
                    acc = netcore.evaluate_accuracy(net, eval_data)
                    wall = (time.perf_counter() - start) * 1000.0 if measure_time else 0.0
                    records.append(
                        RunRecord(
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
                    )
                except Exception as exc:  # noqa: BLE001 - error rows by contract
                    if not continue_on_error:
                        raise
                    records.append(
                        RunRecord(
                            method=method,
                            alpha=_format_alpha(alpha),
                            lam=float(lam),
                            seed=seed,
                            accuracy=None,
                            nonzero_params=None,
                            total_params=None,
                            widths=(),
                            wall_ms=0.0,
                            error=type(exc).__name__,
                        )
                    )
    return records
