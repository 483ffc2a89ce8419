import numpy as np
import pytest

import partfuse as pf
from partfuse.train import (
    NumericalFailure,
    TrainConfig,
    fine_tune,
    init_network,
    train_mlp,
)

from conftest import rand_net
from oracles import gradient_check, holdout


class TestTrainMlp:
    def test_separable_blobs_reach_high_accuracy(self):
        data = pf.synthetic_blobs(3, 60, 6, spread=0.5, seed=0)
        net = train_mlp([6, 16, 16, 3], data, TrainConfig(epochs=400, seed=0))
        assert pf.evaluate_accuracy(net, data) >= 0.99

    def test_zero_epochs_returns_seeded_init(self):
        data = pf.synthetic_blobs(2, 10, 4, spread=0.5, seed=1)
        net = train_mlp([4, 8, 2], data, TrainConfig(epochs=0, seed=11))
        assert net.equals(init_network([4, 8, 2], seed=11))

    def test_same_seed_identical_networks(self):
        data = pf.synthetic_blobs(2, 30, 4, spread=0.5, seed=2)
        cfg = TrainConfig(epochs=3, seed=5)
        assert train_mlp([4, 8, 2], data, cfg).equals(train_mlp([4, 8, 2], data, cfg))

    def test_nan_loss_aborts_with_diagnostic(self):
        data = pf.synthetic_blobs(2, 30, 4, spread=0.5, seed=3)
        # absurd inputs make the first update overflow, so the second loss is NaN
        data = pf.LabeledDataset(data.inputs * 1e306, data.labels)
        with pytest.raises(NumericalFailure, match="non-finite loss at step 1"):
            with np.errstate(all="ignore"):
                train_mlp([4, 8, 2], data, TrainConfig(epochs=50, seed=0))

    def test_dimension_mismatch(self):
        data = pf.synthetic_blobs(2, 10, 4, spread=0.5, seed=4)
        with pytest.raises(Exception):
            train_mlp([5, 8, 2], data, TrainConfig(epochs=1))


class TestFineTune:
    def test_improves_over_start_on_heldout(self):
        data = pf.synthetic_blobs(3, 80, 6, spread=0.8, seed=6)
        rest, held = holdout(data, 0.25, seed=0)
        start = init_network([6, 12, 3], seed=3)
        tuned = fine_tune(start, rest, TrainConfig(epochs=30, seed=0))
        assert pf.evaluate_accuracy(tuned, held) > pf.evaluate_accuracy(start, held)


class TestGradientCheck:
    def test_identity_activation_net(self, rng):
        worst = 0.0
        for s in range(10):
            gelu = init_network([5, 7, 4], seed=s)
            net = pf.DenseNetwork(gelu.weights, gelu.biases, pf.ActivationKind.IDENTITY)
            batch = np.random.default_rng(s).normal(size=(12, 5))
            labels = np.random.default_rng(s + 1).integers(0, 4, size=12)
            worst = max(worst, gradient_check(net, batch, labels, samples=20, seed=s))
        assert worst <= 1e-8

    def test_gelu_nets(self):
        worst = 0.0
        for s in range(10):
            net = rand_net((5, 7, 6, 4), pf.ActivationKind.GELU, seed=s)
            batch = np.random.default_rng(s).normal(size=(12, 5))
            labels = np.random.default_rng(s + 1).integers(0, 4, size=12)
            worst = max(worst, gradient_check(net, batch, labels, samples=20, seed=s))
        assert worst <= 1e-4

    def test_relu_nets(self):
        # piecewise linear: away from its kinks the central difference is exact up to rounding
        worst = 0.0
        for s in range(10):
            net = rand_net((5, 7, 6, 4), pf.ActivationKind.RELU, seed=s)
            batch = np.random.default_rng(s).normal(size=(12, 5))
            labels = np.random.default_rng(s + 1).integers(0, 4, size=12)
            worst = max(worst, gradient_check(net, batch, labels, samples=20, seed=s))
        assert worst <= 1e-6

    def test_zero_input_batch_is_finite(self):
        net = rand_net((5, 7, 4), pf.ActivationKind.GELU, seed=3)
        err = gradient_check(net, np.zeros((6, 5)), samples=15, seed=0)
        assert np.isfinite(err)
