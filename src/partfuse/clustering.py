"""Weighted clustering solvers for compressing layers to m centers.

The target regime has m as a large fraction of n; the solvers are Ward-style
agglomeration, greedy or stochastic best-of-restarts.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .netcore import ShapeError
from .transport import DiscreteMeasure, KernelPair, cost_matrix


@dataclass(frozen=True)
class ClusterAssignment:
    """Map from points to cluster centers with center coordinates and masses."""

    assign: np.ndarray
    centers: np.ndarray
    center_mass: np.ndarray

    def __post_init__(self):
        assign = np.asarray(self.assign, dtype=np.int64)
        centers = np.asarray(self.centers, dtype=np.float64)
        mass = np.asarray(self.center_mass, dtype=np.float64)
        m = centers.shape[0]
        if assign.ndim != 1 or centers.ndim != 2 or mass.shape != (m,):
            raise ShapeError("inconsistent assignment shapes")
        if assign.size and (assign.min() < 0 or assign.max() >= m):
            raise ValueError("assignment index out of range")
        if np.any(mass <= 0):
            raise ValueError("empty cluster in assignment")
        for arr in (assign, centers, mass):
            arr.flags.writeable = False
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "center_mass", mass)

    @property
    def num_clusters(self) -> int:
        return self.centers.shape[0]


def _check_points(points: np.ndarray, masses: DiscreteMeasure) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] != len(masses):
        raise ShapeError("points must be n x d with one mass per row")
    return points


def _labels_to_assignment(
    points: np.ndarray, masses: np.ndarray, labels: np.ndarray
) -> ClusterAssignment:
    """Relabel to consecutive cluster ids and place centers at weighted means.

    Weights are normalized within each cluster before summing so singleton
    centers coincide bitwise with their point.
    """
    uniq, labels = np.unique(labels, return_inverse=True)
    m = len(uniq)
    mass = np.zeros(m)
    np.add.at(mass, labels, masses)
    ratio = masses / mass[labels]
    centers = np.zeros((m, points.shape[1]))
    np.add.at(centers, labels, ratio[:, None] * points)
    return ClusterAssignment(labels, centers, mass)


def clustering_objective(
    points: np.ndarray, masses: DiscreteMeasure, assignment: ClusterAssignment
) -> float:
    """Sum of mass-weighted squared distances of points to their centers."""
    points = _check_points(points, masses)
    if assignment.assign.shape[0] != points.shape[0]:
        raise ShapeError("assignment length does not match points")
    if assignment.centers.shape[1] != points.shape[1]:
        raise ShapeError("center dimension does not match points")
    diff = points - assignment.centers[assignment.assign]
    return float(np.sum(masses.masses * np.einsum("ij,ij->i", diff, diff)))


def _objective_for_labels(points: np.ndarray, masses: np.ndarray, labels: np.ndarray) -> float:
    # labels need not be consecutive; centers sit at mass-weighted means,
    # accumulated with per-cluster normalized weights (singletons exact)
    n = points.shape[0]
    mass = np.bincount(labels, weights=masses, minlength=n)
    ratio = masses / mass[labels]
    sums = np.zeros((n, points.shape[1]))
    np.add.at(sums, labels, ratio[:, None] * points)
    diff = points - sums[labels]
    return float(np.sum(masses * np.einsum("ij,ij->i", diff, diff)))


def _fast_median(values: np.ndarray) -> float:
    k = values.size
    if k == 0:
        return 0.0
    half = k // 2
    part = np.partition(values, half)
    if k % 2:
        return float(part[half])
    return float(0.5 * (part[half] + part[:half].max()))


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


def _agglomerate(
    points: np.ndarray,
    weights: np.ndarray,
    m: int,
    rng: Optional[np.random.Generator],
    temperature: float,
    pair_index: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Merge singletons down to m clusters; rng=None means greedy choices.

    Stochastic choices draw a pair with probability proportional to
    exp(-delta / (temperature * median(delta))); the greedy pair stays the
    likeliest.  Ties in the greedy path resolve to the lowest (i, j) pair.
    """
    n = points.shape[0]
    centers = points.copy()
    w = weights.copy()
    labels = np.arange(n)
    alive = np.ones(n, dtype=bool)
    delta = _ward_delta_matrix(centers, w)
    iu, ju = pair_index if pair_index is not None else np.triu_indices(n, k=1)
    for _ in range(n - m):
        flat = delta[iu, ju]
        if rng is None:
            pick = int(np.argmin(flat))
        else:
            # exp((min - delta) / scale): dead pairs are inf and weight to 0
            lo = flat.min()
            med = _fast_median(flat[np.isfinite(flat)])
            scale = max(med, 1e-300) * temperature
            weights_raw = np.exp((lo - flat) / scale)
            cum = np.cumsum(weights_raw)
            u = rng.random() * cum[-1]
            pick = min(int(np.searchsorted(cum, u, side="right")), flat.size - 1)
        i, j = int(iu[pick]), int(ju[pick])
        # merged cluster keeps the smaller slot
        tot = w[i] + w[j]
        centers[i] = (w[i] * centers[i] + w[j] * centers[j]) / tot
        w[i] = tot
        alive[j] = False
        labels[labels == j] = i
        delta[j, :] = np.inf
        delta[:, j] = np.inf
        d2 = np.einsum("ij,ij->i", centers - centers[i], centers - centers[i])
        row = (w * w[i] / (w + w[i])) * d2
        row[~alive] = np.inf
        row[i] = np.inf
        delta[i, :] = row
        delta[:, i] = row
    return labels


def greedy_ward(points: np.ndarray, masses: DiscreteMeasure, m: int) -> ClusterAssignment:
    """Deterministic agglomerative clustering by least variance increase."""
    points = _check_points(points, masses)
    if not 1 <= m <= points.shape[0]:
        raise ValueError(f"m={m} must lie in 1..{points.shape[0]}")
    labels = _agglomerate(points, masses.masses, m, rng=None, temperature=0.0)
    return _labels_to_assignment(points, masses.masses, labels)


def stochastic_ward(
    points: np.ndarray,
    masses: DiscreteMeasure,
    m: int,
    temperature: float = 0.1,
    restarts: int = 1000,
    seed: int = 0,
) -> ClusterAssignment:
    """Best of many randomized Ward runs.

    Restart r draws from an independent generator keyed by (seed, r), so
    enlarging the restart budget with the same seed only ever improves the
    returned objective.  Ties keep the earliest restart.
    """
    points = _check_points(points, masses)
    n = points.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m={m} must lie in 1..{n}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    w = masses.masses
    if m == n:  # nothing to merge: every point is its own cluster
        return _labels_to_assignment(points, w, np.arange(n))
    pair_index = np.triu_indices(n, k=1)
    best: Optional[Tuple[float, np.ndarray]] = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        labels = _agglomerate(
            points, w, m, rng=rng, temperature=temperature, pair_index=pair_index
        )
        obj = _objective_for_labels(points, w, labels)
        if best is None or obj < best[0]:
            best = (obj, labels)
    return _labels_to_assignment(points, w, best[1])


def assignment_to_kernels(
    assignment: ClusterAssignment, mu: DiscreteMeasure
) -> KernelPair:
    """Kernels of the point-to-center coupling pi[i, k] = mu[i] * 1{assign[i]=k}.

    k_ab (E -> S) routes each point wholly to its center; k_ba (S -> E)
    spreads each center over its members proportionally to their mass.
    """
    assign = assignment.assign
    if len(mu) != assign.shape[0]:
        raise ShapeError("measure length does not match assignment")
    m = assignment.num_clusters
    mass = np.zeros(m)
    np.add.at(mass, assign, mu.masses)
    if np.any(mass <= 0):
        raise ValueError("empty cluster")
    if np.abs(mass - assignment.center_mass).max() > 1e-9:
        raise ValueError("measure is inconsistent with the assignment's center masses")
    pi = np.zeros((len(mu), m))
    pi[np.arange(len(mu)), assign] = mu.masses
    return KernelPair(k_ab=(pi / mu.masses[:, None]).T, k_ba=pi / mass[None, :])


def brute_force_clustering(points: np.ndarray, masses: DiscreteMeasure, m: int) -> float:
    """Exact optimum over all partitions into at most m nonempty parts."""
    points = _check_points(points, masses)
    n = points.shape[0]
    if n > 10:
        raise ValueError("brute force limited to n <= 10")
    if not 1 <= m <= n:
        raise ValueError(f"m={m} must lie in 1..{n}")
    w = masses.masses
    best = np.inf
    labels = np.zeros(n, dtype=np.int64)

    def rec(i: int, used: int):
        nonlocal best
        if i == n:
            obj = _objective_for_labels(points, w, labels)
            best = min(best, obj)
            return
        for lab in range(min(used + 1, m)):
            labels[i] = lab
            rec(i + 1, max(used, lab + 1))

    rec(0, 0)
    return float(best)
