"""Weighted clustering solvers for compressing layers to m centers.

The target regime has m as a large fraction of n; the solver is Ward-style
agglomeration, best of stochastic restarts.
"""

from functools import lru_cache
from typing import Tuple

import numpy as np

from . import netcore
from .netcore import ShapeError
from .transport import Coupling, DiscreteMeasure, KernelPair, cost_matrix, coupling_to_kernels


class MergeCostOverflow(ValueError):
    """Finite points whose Ward merge costs overflow to inf or NaN."""


def _check_points(points: np.ndarray, masses: DiscreteMeasure) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] != len(masses):
        raise ShapeError("points must be n x d with one mass per row")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    return points


# Rows per block of the per-restart temporaries: they stay O(_ROW_BLOCK x d),
# not O(n x d), so restarts running in parallel add little memory.
_ROW_BLOCK = 64


@lru_cache(maxsize=128)  # restarts at small n call it thousands of times
def _row_blocks(n: int) -> Tuple[slice, ...]:
    """Consecutive slices of at most _ROW_BLOCK rows that cover rows 0..n-1."""
    return tuple(slice(s, min(s + _ROW_BLOCK, n)) for s in range(0, n, _ROW_BLOCK))


def _cluster_centers(
    points: np.ndarray, masses: np.ndarray, labels: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Centers and masses of clusters 0..m-1 (an unused id gets zeros).

    Centers sit at mass-weighted means.  Weights are normalized within each
    cluster, so singleton centers coincide bitwise with their point.  Each
    center adds its members' rows to 0.0 in index order, as np.add.at does
    (but faster).
    """
    n, d = points.shape
    mass = np.bincount(labels, weights=masses, minlength=m)
    scale = (masses / mass[labels])[:, None]
    centers = np.zeros((m, d))
    for b in _row_blocks(n):
        block = scale[b] * points[b]
        for k, c in enumerate(labels[b].tolist()):
            centers[c] += block[k]
    return centers, mass


def _objective_for_labels(points: np.ndarray, masses: np.ndarray, labels: np.ndarray) -> float:
    # labels need not be consecutive
    n = points.shape[0]
    centers, _ = _cluster_centers(points, masses, labels, n)
    d2 = np.empty(n)
    for b in _row_blocks(n):
        diff = centers[labels[b]]
        np.subtract(points[b], diff, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=d2[b])
    return float((masses * d2).sum())


def _fast_median(values: np.ndarray, k: int) -> float:
    """Median of the k smallest entries of values, which it partitions in place."""
    half = k // 2
    values.partition(half)
    if k % 2:
        return float(values[half])
    return float(0.5 * (values[half] + values[:half].max()))


# ---------------------------------------------------------------------------
# Ward-style agglomeration

# merge cost of clusters P, Q: w_P * w_Q / (w_P + w_Q) * ||c_P - c_Q||^2


def _ward_delta_matrix(centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    d2 = cost_matrix(centers, centers)
    w = weights
    factor = (w[:, None] * w[None, :]) / (w[:, None] + w[None, :])
    delta = factor * d2
    np.fill_diagonal(delta, np.inf)
    return delta


def _ward_pairs(
    points: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Condensed pair state of one clustering call, shared by its restarts.

    Returns (iu, ju, slot, delta).  Pair k = (iu[k], ju[k]) with
    iu[k] < ju[k], in np.triu_indices order, and delta[k] is the cost of
    merging the two singletons.  slot[a, b] is that k for either order of
    a != b; slot[a, a] is the extra last entry of delta, which nothing reads,
    so that a whole row of costs scatters at once.  Raises MergeCostOverflow
    when a merge cost is not finite.
    """
    n = points.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    slot = np.full((n, n), iu.size)
    slot[iu, ju] = slot[ju, iu] = np.arange(iu.size)
    pair_delta = _ward_delta_matrix(points, weights)[iu, ju]
    if not np.isfinite(pair_delta).all():
        raise MergeCostOverflow("Ward merge costs are not finite")
    return iu, ju, slot, np.append(pair_delta, np.inf)


def _agglomerate(
    points: np.ndarray,
    weights: np.ndarray,
    m: int,
    rng: np.random.Generator,
    pairs: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Merge singletons down to m clusters by random draws.

    Each merge draws a pair with probability proportional to
    exp(-delta / (TEMPERATURE * median(delta))); the least-cost pair stays
    the likeliest.  A merge rewrites only the O(n) pairs of its two
    clusters; dead pairs stay in place at inf.
    """
    n, d = points.shape
    centers = points.copy()
    w = weights.copy()
    labels = np.arange(n)
    dead = np.zeros(n, dtype=bool)
    iu, ju, slot, delta0 = pairs
    padded = delta0.copy()
    delta = padded[:-1]
    odds = np.empty_like(delta)
    cum = np.empty_like(delta)  # a cumsum onto its own input would hold the GIL
    # squared distances to the merged center, one block of rows at a time
    d2 = np.empty(n)
    diff = np.empty((min(n, _ROW_BLOCK), d))
    blocks = [(centers[b], diff[: b.stop - b.start], d2[b]) for b in _row_blocks(n)]
    for live in range(n, m, -1):
        # exp((min - delta) / scale): dead pairs are inf and weight to 0;
        # they sort after the live * (live - 1) / 2 finite deltas that the
        # median is taken over
        lo = delta.min()
        odds[...] = delta
        med = _fast_median(odds, live * (live - 1) // 2)
        scale = max(med, 1e-300) * TEMPERATURE
        np.subtract(lo, delta, out=odds)
        np.divide(odds, scale, out=odds)
        np.exp(odds, out=odds)
        odds.cumsum(out=cum)
        u = rng.random() * cum[-1]
        pick = min(int(cum.searchsorted(u, side="right")), delta.size - 1)
        i, j = int(iu[pick]), int(ju[pick])
        # merged cluster keeps the smaller slot
        wi, wj = w[i], w[j]
        tot = wi + wj
        centers[i] = (wi * centers[i] + wj * centers[j]) / tot
        w[i] = tot
        dead[j] = True
        labels[labels == j] = i
        padded[slot[j]] = np.inf
        center = centers[i]
        for rows, block_diff, block_d2 in blocks:
            np.subtract(rows, center, out=block_diff)
            np.einsum("ij,ij->i", block_diff, block_diff, out=block_d2)
        row = (w * tot / (w + tot)) * d2
        row[dead] = np.inf
        padded[slot[i]] = row  # row[i] lands in the unread extra entry
    return labels


# the temperature of stochastic_ward's merge draws (see _agglomerate)
TEMPERATURE = 0.1

# Below this much work per restart, n (n + d) for its pair deltas and its
# centers, a second worker, thread or forked process, does not pay off, so
# restarts run serially.  Speed-ups by shape and route are in the
# prune-cluster BENCH files.
_PARALLEL_MIN_WORK = 50_000

# (objective, restart, labels) of one Ward restart
_Restart = Tuple[float, int, np.ndarray]


def _serial_rank(result: _Restart) -> Tuple[bool, bool, float, int]:
    """Key under which min picks what a strict < loop over restarts 0, 1, ...
    picks: the least objective, the earliest restart on ties.  That loop keeps
    restart 0's objective when it is NaN and skips any later NaN."""
    objective, r, _ = result
    nan = objective != objective
    return (not (nan and r == 0), nan, 0.0 if nan else objective, r)


def stochastic_ward(
    points: np.ndarray,
    masses: DiscreteMeasure,
    m: int,
    restarts: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Labels 0..m-1 of the best of many randomized Ward runs at the fixed
    TEMPERATURE, numbering the clusters in order of their first member.

    Restart r draws from an independent generator keyed by (seed, r), so
    enlarging the restart budget with the same seed only ever improves the
    returned objective.  Ties keep the earliest restart.

    Instances with at least _PARALLEL_MIN_WORK work per restart split their
    restarts over k = min(restarts, available CPUs) workers: worker c runs
    restarts r = c (mod k), the caller being worker 0, and each reports only
    its earliest best restart.  The workers come from netcore.worker_map:
    on Linux, when the calling process runs no other thread, workers
    1..k-1 are forked child processes, which get round the GIL; their memory
    is not in the caller's resident set.  Otherwise they are threads, in
    which numpy releases the GIL inside each restart's array work.  The
    result is byte-identical whatever the route or the number of CPUs.
    """
    points = _check_points(points, masses)
    n, d = points.shape
    if not 1 <= m <= n:
        raise ValueError(f"m={m} must lie in 1..{n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    w = masses.masses
    if m == n:  # nothing to merge: every point is its own cluster
        return np.arange(n)
    # the one BLAS product, before any fork
    pairs = _ward_pairs(points, w)

    def restart(r: int) -> _Restart:
        labels = _agglomerate(points, w, m, np.random.default_rng((seed, r)), pairs)
        return _objective_for_labels(points, w, labels), r, labels

    def best_of(share: range) -> _Restart:
        return min(map(restart, share), key=_serial_rank)

    k = 1 if n * (n + d) < _PARALLEL_MIN_WORK else min(restarts, netcore.available_cpus())
    bests = netcore.worker_map(best_of, [range(c, restarts, k) for c in range(k)])
    _, _, labels = min(bests, key=_serial_rank)
    # a cluster holds its smallest member's slot (see _agglomerate)
    return np.unique(labels, return_inverse=True)[1]


def assignment_to_kernels(labels: np.ndarray, mu: DiscreteMeasure) -> KernelPair:
    """Kernels of the point-to-center coupling pi[i, k] = mu[i] * 1{labels[i]=k}.

    labels number the clusters 0..m-1, each with positive mass.  k_ab
    (E -> S) routes each point wholly to its center; k_ba (S -> E) spreads
    each center over its members proportionally to their mass.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(mu),):
        raise ShapeError("labels must be a vector with one entry per point of the measure")
    if labels.min() < 0:
        raise ValueError("negative cluster label")
    mass = np.bincount(labels, weights=mu.masses)
    if np.any(mass <= 0):
        raise ValueError("empty cluster in the labels")
    pi = np.zeros((len(mu), mass.size))
    pi[np.arange(len(mu)), labels] = mu.masses
    return coupling_to_kernels(Coupling(pi, mu, DiscreteMeasure(mass)))
