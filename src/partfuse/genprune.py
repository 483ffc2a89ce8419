"""Generalized pruning: kernel-sandwich compression of a network or ensemble.

Every method here produces a smaller network S from a larger one E by
W_S[l] = K_es[l+1] @ W_E[l] @ K_se[l]; deleting neurons, averaging
clusters, and partial fusion are all instances of the kernel choice.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from . import clustering as clst
from . import fusion as fus
from .netcore import DenseNetwork, NumericalFailure, ShapeError, remap_neurons
from .transport import DiscreteMeasure

_MASS_FLOOR = 1e-9  # keeps lam-weighted masses positive at the lam = 0, 1 endpoints


class PruneMethod(Enum):
    CLUSTER = "cluster"
    UNSTRUCTURED = "prune"
    UNSTRUCTURED_POSTPROCESS = "prune-post"


@dataclass(frozen=True)
class PruneSpec:
    """Target widths per hidden layer plus the compression method."""

    target_widths: Tuple[int, ...]
    method: PruneMethod = PruneMethod.UNSTRUCTURED
    lam: Optional[float] = None  # provenance weighting for ensembles

    def __post_init__(self):
        object.__setattr__(self, "target_widths", tuple(int(m) for m in self.target_widths))
        if any(m < 1 for m in self.target_widths):
            raise ValueError("target widths must be positive")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")

    def check_against(self, net: DenseNetwork):
        if len(self.target_widths) != net.num_hidden:
            raise ShapeError("one target width per hidden layer required")
        for m, n in zip(self.target_widths, net.hidden_dims):
            if m > n:
                raise ValueError(f"target width {m} exceeds layer width {n}")


def apply_generalized_pruning(net: DenseNetwork, kernels: Sequence) -> DenseNetwork:
    """Sandwich every weight matrix between per-layer kernels.

    kernels[l] is the (K_es, K_se) matrix pair of hidden layer l+1 (the
    partial-fusion kernels are not column stochastic, so not a KernelPair).
    Boundary layers use implicit identities.  Biases move by the left kernel
    alone.
    """
    if len(kernels) != net.num_hidden:
        raise ShapeError("one kernel pair per hidden layer required")
    pairs = [tuple(np.asarray(k, dtype=np.float64) for k in pair) for pair in kernels]
    for (k_es, k_se), n in zip(pairs, net.hidden_dims):
        if k_es.shape[1] != n or k_se.shape[0] != n or k_es.shape[0] != k_se.shape[1]:
            raise ShapeError("kernel shapes do not chain with the network")
    weights, biases = [], []
    L = net.num_hidden
    for l in range(L + 1):
        w = net.weights[l]
        b = net.biases[l]
        if l > 0:
            w = w @ pairs[l - 1][1]
        if l < L:
            w = pairs[l][0] @ w
            b = pairs[l][0] @ b
        weights.append(w)
        biases.append(b)
    return DenseNetwork(weights, biases, net.activation)


def _provenance_factors(net: DenseNetwork, lam: float, layer: int) -> np.ndarray:
    """Per-neuron importance factors: lam for A-origin neurons, 1-lam for B."""
    if net.origins is None:
        raise ValueError("lam-weighted pruning needs a network with origin tags")
    origin = net.origins[layer - 1]
    factors = np.where(origin == 0, lam, 1.0 - lam)
    return np.maximum(factors, _MASS_FLOOR)


def cluster_prune(
    net: DenseNetwork,
    spec: PruneSpec,
    data: np.ndarray,
    restarts: int = 1000,
    seed: int = 0,
) -> DenseNetwork:
    """Compress by clustering activation features and averaging clusters.

    Features come from the first fus.ACTIVATION_SAMPLES rows of data.
    Masses are uniform, or scaled by the parents' interpolation weights when
    spec.lam is set (then renormalized), so a down-weighted parent's neurons
    are cheaper to distort.
    """
    spec.check_against(net)
    data = np.asarray(data, dtype=np.float64)[: fus.ACTIVATION_SAMPLES]
    kernel_list = []
    for layer, feats in enumerate(fus.features_activation(net, data), start=1):
        factors = np.ones(len(feats)) if spec.lam is None else _provenance_factors(net, spec.lam, layer)
        mu = DiscreteMeasure(factors / factors.sum())
        m = spec.target_widths[layer - 1]
        try:
            labels = clst.stochastic_ward(feats, mu, m, restarts=restarts, seed=seed)
        except clst.MergeCostOverflow as exc:
            raise NumericalFailure(f"layer {layer}: {exc}") from exc
        kp = clst.assignment_to_kernels(labels, mu)
        kernel_list.append((kp.k_ab, kp.k_ba))
    return apply_generalized_pruning(net, kernel_list)


def unstructured_prune(net: DenseNetwork, spec: PruneSpec) -> DenseNetwork:
    """Keep the top-m neurons per layer by L2 weight norm, delete the rest.

    Importance is the norm of the incoming weight row, scaled by the
    provenance factor when spec.lam is set.  Ties keep the lower index.
    """
    spec.check_against(net)
    # score every layer on the original matrices before any deletion
    keeps = []
    for layer in range(1, net.num_hidden + 1):
        scores = np.linalg.norm(net.weights[layer - 1], axis=1)
        if spec.lam is not None:
            scores = scores * _provenance_factors(net, spec.lam, layer)
        order = np.argsort(-scores, kind="stable")
        keeps.append(np.sort(order[: spec.target_widths[layer - 1]]))
    return remap_neurons(net, {layer: (keep, None) for layer, keep in enumerate(keeps, start=1)})


def prune_with_postprocess(net: DenseNetwork, spec: PruneSpec) -> DenseNetwork:
    """Unstructured pruning followed by fusing the original onto the result.

    The original network is transported wholesale (interpolation weight 1,
    greedy weight-feature alignment) into the pruned architecture, so
    deleted neurons merge into survivors instead of disappearing.  Marginals
    are uniform on both sides.  When nothing is deleted there is nothing to
    merge, and the pruned copy is returned as it is.
    """
    pruned = unstructured_prune(net, spec)
    if pruned.hidden_dims == net.hidden_dims:
        return pruned
    cfg = fus.FusionConfig(lam=1.0, alpha=0.0, align=fus.AlignMethod.GREEDY)
    return fus.ot_fuse(net, pruned, cfg)


def prune(
    net: DenseNetwork,
    spec: PruneSpec,
    data: Optional[np.ndarray] = None,
    restarts: int = 1000,
    seed: int = 0,
) -> DenseNetwork:
    """Compress net to spec.target_widths by spec.method.

    Only clustering reads data (its activation features), restarts and seed.
    """
    if spec.method is PruneMethod.CLUSTER:
        if data is None:
            raise ValueError("cluster pruning needs feature data")
        return cluster_prune(net, spec, data, restarts=restarts, seed=seed)
    if spec.method is PruneMethod.UNSTRUCTURED:
        return unstructured_prune(net, spec)
    return prune_with_postprocess(net, spec)
