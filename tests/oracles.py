"""Exact oracles that only the tests use: exhaustive transport (the optimum,
and every integral plan) and clustering, finite-difference gradients and
the closed-form pruned-parameter counts; also the stratified holdout split
that only tests draw, the clustering objective of a labelling, greedy Ward
on the dense merge-cost matrix, the objective trace of fixed-point
alignment, and the kernel pair that writes partial fusion as generalized
pruning.

They check their inputs and score their plans with the library's own
private helpers, so an oracle and the solver it checks read an instance
alike.
"""

import itertools
from typing import Optional, Tuple
from unittest import mock

import numpy as np

from partfuse import fusion
from partfuse.clustering import _check_points, _cluster_centers, _objective_for_labels, _ward_pairs
from partfuse.data import _per_class_draw
from partfuse.netcore import DenseNetwork, LabeledDataset, ShapeError
from partfuse.train import loss_and_gradients
from partfuse.transport import DiscreteMeasure, _check_cost, _integerize_pair

ENUMERATION_NODES = 2_000_000  # brute_force_ot's search gives up after this many


class EnumerationError(ValueError):
    """Brute-force instance too large to enumerate."""


def transport_objective(coupling_matrix: np.ndarray, cost: np.ndarray) -> float:
    return float(np.sum(np.asarray(coupling_matrix) * np.asarray(cost)))


def brute_force_ot(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Provably optimal objective by enumerating integral transport plans."""
    cost = _check_cost(mu, nu, cost)
    sup, dem, den = _integerize_pair(mu.masses, nu.masses)
    n_a, n_b = cost.shape

    # uniform equal-size case: the vertices are exactly the permutations
    if n_a == n_b and len(set(sup.tolist()) | set(dem.tolist())) == 1:
        if n_a > 9:
            raise EnumerationError("too many permutations to enumerate")
        unit = sup[0] / den
        best_perm, best_val = None, np.inf
        for perm in itertools.permutations(range(n_a)):
            val = sum(cost[i, perm[i]] for i in range(n_a))
            if val < best_val:
                best_val, best_perm = val, perm
        plan = np.zeros((n_a, n_b))
        for i, j in enumerate(best_perm):
            plan[i, j] = unit
        return float(best_val * unit), plan

    # nonnegative shift keeps the partial sum an admissible pruning bound
    shifted = cost - min(0.0, float(cost.min()))
    best_val, best_flow = np.inf, None
    for val, flow in _plans(sup, dem, shifted, lambda: best_val):
        best_val, best_flow = val, flow.copy()
    if best_flow is None:
        raise RuntimeError("no feasible plan found")
    plan = best_flow / den
    return transport_objective(plan, cost), plan


def _plans(sup, dem, weights, bound):
    """Integral plans with row sums `sup` and column sums `dem`, as (sum of
    weights * flow, flow), cells filled in row-major order.  A branch stops
    once its partial sum reaches bound(), so with nonnegative weights every
    plan below bound() is reached.  The flow array is reused; copy it."""
    n_a, n_b = weights.shape
    cells = [(i, j) for i in range(n_a) for j in range(n_b)]
    flow = np.zeros((n_a, n_b), dtype=np.int64)
    rem_r = np.array(sup, dtype=np.int64)
    rem_c = np.array(dem, dtype=np.int64)
    nodes = 0

    def rec(idx: int, cur: float):
        nonlocal nodes
        nodes += 1
        if nodes > ENUMERATION_NODES:
            raise EnumerationError("instance too large to enumerate")
        if cur >= bound():
            return
        if idx == len(cells):
            if rem_r.sum() == 0:
                yield cur, flow
            return
        i, j = cells[idx]
        # remaining columns in this row must be able to absorb what is left
        tail = int(rem_c[j + 1 :].sum()) if j + 1 < n_b else 0
        lo = max(0, int(rem_r[i]) - tail)
        hi = int(min(rem_r[i], rem_c[j]))
        for f in range(lo, hi + 1):
            flow[i, j] = f
            rem_r[i] -= f
            rem_c[j] -= f
            yield from rec(idx + 1, cur + f * weights[i, j])
            flow[i, j] = 0
            rem_r[i] += f
            rem_c[j] += f

    yield from rec(0, 0.0)


def integral_plans(supply: np.ndarray, demand: np.ndarray) -> list:
    """Every integral plan with row sums `supply` and column sums `demand`."""
    zero = np.zeros((len(supply), len(demand)))
    return [flow.copy() for _, flow in _plans(supply, demand, zero, lambda: np.inf)]


def clustering_objective(points: np.ndarray, masses: DiscreteMeasure, labels: np.ndarray) -> float:
    """Sum of mass-weighted squared distances of points to the centers of their clusters."""
    points = _check_points(points, masses)
    labels = np.asarray(labels)
    if labels.shape != (points.shape[0],):
        raise ShapeError("labels must be a vector with one entry per point")
    centers, _ = _cluster_centers(points, masses.masses, labels, labels.max() + 1)
    diff = points - centers[labels]
    return float(np.sum(masses.masses * np.einsum("ij,ij->i", diff, diff)))


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


def dense_agglomerate(points, weights, m, rng, temperature):
    """Ward agglomeration on the full n x n delta matrix, the reference for
    the condensed pair state: every merge gathers all pairs and rebuilds the
    merged cluster's row and column.  rng=None takes the least-cost pair,
    the lowest (i, j) on ties."""

    def ward_delta_matrix(centers, w):
        sq = np.einsum("ij,ij->i", centers, centers)
        d2 = np.maximum(sq[:, None] - 2.0 * (centers @ centers.T) + sq[None, :], 0.0)
        delta = ((w[:, None] * w[None, :]) / (w[:, None] + w[None, :])) * d2
        np.fill_diagonal(delta, np.inf)
        return delta

    def median(values):
        k = values.size
        if k == 0:
            return 0.0
        half = k // 2
        part = np.partition(values, half)
        if k % 2:
            return float(part[half])
        return float(0.5 * (part[half] + part[:half].max()))

    n = points.shape[0]
    centers = points.copy()
    w = weights.copy()
    labels = np.arange(n)
    alive = np.ones(n, dtype=bool)
    delta = ward_delta_matrix(centers, w)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(n - m):
        flat = delta[iu, ju]
        if rng is None:
            pick = int(np.argmin(flat))
        else:
            lo = flat.min()
            med = median(flat[np.isfinite(flat)])
            scale = max(med, 1e-300) * temperature
            cum = np.cumsum(np.exp((lo - flat) / scale))
            u = rng.random() * cum[-1]
            pick = min(int(np.searchsorted(cum, u, side="right")), flat.size - 1)
        i, j = int(iu[pick]), int(ju[pick])
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


def greedy_ward(points: np.ndarray, masses: DiscreteMeasure, m: int) -> np.ndarray:
    """Labels 0..m-1 of deterministic agglomerative clustering by least variance increase."""
    points = _check_points(points, masses)
    if not 1 <= m <= points.shape[0]:
        raise ValueError(f"m={m} must lie in 1..{points.shape[0]}")
    w = masses.masses
    _ward_pairs(points, w)  # raises MergeCostOverflow as stochastic_ward does
    return np.unique(dense_agglomerate(points, w, m, None, 0.0), return_inverse=True)[1]


def fixed_point_trace(
    net_a: DenseNetwork, net_b: DenseNetwork, cfg: fusion.FusionConfig
) -> Tuple[fusion.AlignResult, Tuple[float, ...]]:
    """fixed_point_align's result, and fusion.alignment_objective at its
    start and after each of its layer solves.

    The trace is read from outside: during the one alignment call, every
    solve also updates a copy of the couplings started, as the aligner
    starts its own, from the product coupling.
    """
    alphas = cfg.alphas(net_a.num_hidden)
    couplings = [
        fusion._product_coupling(n_a, n_b, alpha)
        for n_a, n_b, alpha in zip(net_a.hidden_dims, net_b.hidden_dims, alphas)
    ]
    trace = [fusion.alignment_objective(net_a, net_b, couplings)]
    solve = fusion._solve_layer

    def traced(mu, nu, cost, alpha, layer):
        couplings[layer - 1] = solve(mu, nu, cost, alpha, layer)
        trace.append(fusion.alignment_objective(net_a, net_b, couplings))
        return couplings[layer - 1]

    with mock.patch.object(fusion, "_solve_layer", traced):
        result = fusion.fixed_point_align(net_a, net_b, cfg)
    return result, tuple(trace)


def partial_fusion_as_pruning_kernels(
    plan: fusion.MatchPlan, lam: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The explicit kernel pair that turns ensemble pruning into partial fusion.

    Over ensemble blocks (I_A, F_A, F_B, I_B) and fused blocks (I_A, F_B, I_B):

        K_es = [[1, 0,          0,          0],       K_se = [[1, 0,    0],
                [0, lam * K_ab, (1-lam) 1,  0],               [0, K_ba, 0],
                [0, 0,          0,          1]]               [0, 1,    0],
                                                              [0, 0,    1]]

    composed with the permutation that sorts the concatenated (A then B)
    ensemble indices into that block order.
    """
    n_a, n_b = plan.n_a, plan.n_b
    n_e = n_a + n_b
    k_ab, k_ba = plan.kernels.k_ab, plan.kernels.k_ba
    pa, pf, pb = len(plan.isolated_a), len(plan.fused_b), len(plan.isolated_b)
    fa = len(plan.fused_a)
    m = pa + pf + pb  # the fused layer's width

    block_es = np.zeros((m, n_e))
    block_es[np.arange(pa), np.arange(pa)] = 1.0
    block_es[pa : pa + pf, pa : pa + fa] = lam * k_ab
    block_es[pa + np.arange(pf), pa + fa + np.arange(pf)] = 1.0 - lam
    block_es[pa + pf + np.arange(pb), pa + fa + pf + np.arange(pb)] = 1.0

    block_se = np.zeros((n_e, m))
    block_se[np.arange(pa), np.arange(pa)] = 1.0
    block_se[pa : pa + fa, pa : pa + pf] = k_ba
    block_se[pa + fa + np.arange(pf), pa + np.arange(pf)] = 1.0
    block_se[pa + fa + pf + np.arange(pb), pa + pf + np.arange(pb)] = 1.0

    order = np.concatenate(
        [plan.isolated_a, plan.fused_a, n_a + plan.fused_b, n_a + plan.isolated_b]
    )
    inverse = np.argsort(order)  # ensemble neuron j sits in block slot inverse[j]
    return block_es[:, inverse], block_se[inverse]


def gradient_check(
    net: DenseNetwork,
    batch: np.ndarray,
    labels: Optional[np.ndarray] = None,
    samples: int = 20,
    step: float = 1e-6,
    seed: int = 0,
) -> float:
    """Relative error of analytic vs central-difference gradients.

    Coordinates are sampled across all weight matrices and biases; labels
    default to class 0 for every row.  The error is the largest
    coordinatewise deviation relative to the largest sampled gradient
    magnitude, so coordinates whose true gradient sits below the
    finite-difference noise floor do not dominate the report.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if labels is None:
        labels = np.zeros(batch.shape[0], dtype=np.int64)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    _, gw, gb = loss_and_gradients(weights, biases, net.activation, batch, labels)
    rng = np.random.default_rng(seed)
    arrays = [(weights[l], gw[l]) for l in range(len(weights))]
    arrays += [(biases[l], gb[l]) for l in range(len(biases))]
    worst_abs = 0.0
    scale = 0.0
    for _ in range(samples):
        which = int(rng.integers(len(arrays)))
        arr, grad = arrays[which]
        flat = int(rng.integers(arr.size))
        idx = np.unravel_index(flat, arr.shape)
        orig = arr[idx]
        arr[idx] = orig + step
        up, _, _ = loss_and_gradients(weights, biases, net.activation, batch, labels)
        arr[idx] = orig - step
        down, _, _ = loss_and_gradients(weights, biases, net.activation, batch, labels)
        arr[idx] = orig
        numeric = (up - down) / (2.0 * step)
        analytic = float(grad[idx])
        worst_abs = max(worst_abs, abs(analytic - numeric))
        scale = max(scale, abs(analytic), abs(numeric))
    return worst_abs / max(scale, 1e-8)


def holdout(
    data: LabeledDataset, fraction: float, seed: int = 0
) -> Tuple[LabeledDataset, LabeledDataset]:
    """Seeded split into (rest, held), stratified per class."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    held = _per_class_draw(data, fraction, seed)
    return (
        LabeledDataset(data.inputs[~held], data.labels[~held]),
        LabeledDataset(data.inputs[held], data.labels[held]),
    )


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
