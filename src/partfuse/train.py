"""Minimal MLP training: softmax cross-entropy and Adam."""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .netcore import ActivationKind, DenseNetwork, LabeledDataset, NumericalFailure, ShapeError


# Adam's step size, moment decay rates and denominator guard, and the minibatch size
_LEARNING_RATE, _BATCH_SIZE = 1e-3, 128
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


def init_network(dims: Sequence[int], seed: int = 0) -> DenseNetwork:
    """Seeded GELU network, uniform in +-sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(weights, biases, ActivationKind.GELU)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradients(
    weights: List[np.ndarray],
    biases: List[np.ndarray],
    activation: ActivationKind,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
    """Mean cross-entropy and its gradients by reverse accumulation."""
    n = inputs.shape[0]
    last = len(weights) - 1
    hs = [inputs]  # post-activation states
    derivs = []  # activation derivatives at the hidden pre-activations
    h = inputs
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        if l < last:
            h, d = activation.value_and_derivative(z)
            derivs.append(d)
        else:
            h = z
        hs.append(h)
    probs = _softmax(hs[-1])
    eps = 1e-300  # guards log(0); softmax rows are positive anyway
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + eps)))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for l in range(last, -1, -1):
        grads_w[l] = delta.T @ hs[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l]) * derivs[l - 1]
    return loss, grads_w, grads_b


def _run_adam(
    weights: List[np.ndarray],
    biases: List[np.ndarray],
    activation: ActivationKind,
    dataset: LabeledDataset,
    cfg: TrainConfig,
    rows: Optional[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    rng = np.random.default_rng(cfg.seed)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0
    rows = np.arange(len(dataset)) if rows is None else rows
    for _ in range(cfg.epochs):
        order = rows[rng.permutation(rows.size)]
        for start in range(0, rows.size, _BATCH_SIZE):
            batch = order[start : start + _BATCH_SIZE]
            loss, gw, gb = loss_and_gradients(
                weights, biases, activation, dataset.inputs[batch], dataset.labels[batch]
            )
            if not np.isfinite(loss):
                raise NumericalFailure(f"non-finite loss at step {step}: {loss}")
            step += 1
            c1 = 1.0 - _BETA1**step
            c2 = 1.0 - _BETA2**step
            for l in range(len(weights)):
                for param, m, v, g in (
                    (weights[l], m_w[l], v_w[l], gw[l]),
                    (biases[l], m_b[l], v_b[l], gb[l]),
                ):
                    m *= _BETA1
                    m += (1 - _BETA1) * g
                    v *= _BETA2
                    v += (1 - _BETA2) * g**2
                    param -= _LEARNING_RATE * (m / c1) / (np.sqrt(v / c2) + _EPS)
    return weights, biases


def train_mlp(dims: Sequence[int], dataset: LabeledDataset, cfg: TrainConfig, rows=None) -> DenseNetwork:
    """Train a fresh MLP of the given dimension chain on the dataset (its `rows` only, if given)."""
    if dataset.labels.max() >= dims[-1]:
        raise ShapeError("a label exceeds the output dimension")
    net = init_network(dims, seed=cfg.seed)
    return fine_tune(net, dataset, cfg, rows)


def fine_tune(net: DenseNetwork, dataset: LabeledDataset, cfg: TrainConfig, rows=None) -> DenseNetwork:
    """Continue training an existing network on the dataset, or on its `rows` (an index array).

    Each minibatch gathers its rows from the dataset: bitwise what training
    on a copy of those rows gives, without the copy.
    """
    if net.input_dim != dataset.inputs.shape[1]:
        raise ShapeError("input dimension does not match the dataset")
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    weights, biases = _run_adam(weights, biases, net.activation, dataset, cfg, rows)
    return DenseNetwork(weights, biases, net.activation)
