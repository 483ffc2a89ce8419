import io
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import partfuse as pf
from partfuse import netcore
from partfuse.netcore import _GELU_CUBIC, _GELU_SCALE, PfnnFormatError, ShapeError, remap_neurons

from conftest import HUGE_PFNN_DIMS, idle_thread, pfnn_header, rand_net


def identity_net(n, depth=2):
    eye = np.eye(n)
    zero = np.zeros(n)
    return pf.DenseNetwork(
        weights=(eye,) * (depth + 1),
        biases=(zero,) * (depth + 1),
        activation=pf.ActivationKind.IDENTITY,
    )


class TestForward:
    def test_identity_net_passes_input_through(self, rng):
        net = identity_net(4)
        x = rng.normal(size=(7, 4))
        np.testing.assert_array_equal(pf.forward(net, x), x)

    def test_hand_evaluated_relu_net(self):
        net = pf.DenseNetwork(
            weights=(np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])),
            biases=(np.zeros(2), np.zeros(1)),
            activation=pf.ActivationKind.RELU,
        )
        out = pf.forward(net, np.array([[2.0]]))
        assert out[0, 0] == 2.0  # relu(2) + relu(-2)

    def test_gelu_at_zero_is_zero(self):
        assert pf.ActivationKind.GELU.apply(np.array([0.0]))[0] == 0.0

    def test_shape_mismatch_raises(self, rng):
        net = identity_net(4)
        with pytest.raises(ShapeError):
            pf.forward(net, rng.normal(size=(3, 5)))

    def test_deterministic(self, rng):
        net = rand_net((5, 9, 8, 3), seed=3)
        x = rng.normal(size=(11, 5))
        np.testing.assert_array_equal(pf.forward(net, x), pf.forward(net, x))


class TestActivations:
    def test_identity_net_layer1_is_batch(self, rng):
        net = identity_net(4)
        x = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(pf.activations(net, x)[0], x)

    def test_zero_batch_zero_biases_gives_zeros(self):
        net = rand_net((3, 5, 2), seed=1, bias_scale=0.0)
        out = pf.activations(net, np.zeros((4, 3)))[0]
        np.testing.assert_array_equal(out, np.zeros((4, 5)))

    def test_forward_recomputed_from_activations(self, rng):
        net = rand_net((5, 8, 7, 3), seed=2)
        x = rng.normal(size=(10, 5))
        direct = pf.forward(net, x)
        for layer in (1, 2):
            h = pf.activations(net, x)[layer - 1]
            for l in range(layer, net.num_hidden + 1):
                h = h @ net.weights[l].T + net.biases[l]
                if l < net.num_hidden:
                    h = net.activation.apply(h)
            np.testing.assert_allclose(h, direct, atol=1e-12)

    def test_non_finite_activations_are_numerical_failures(self):
        net = pf.DenseNetwork(
            (1e308 * np.eye(2), np.eye(2)), (np.zeros(2), np.zeros(2)), pf.ActivationKind.RELU
        )
        x = np.full((3, 2), 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(netcore.NumericalFailure, match="layer 1 activations are not finite"):
                pf.activations(net, x)
            assert np.isnan(pf.forward(net, x)).all()  # forward stays unchecked


# the library's activation-feature readers, each on a pair (a, b) and a sample x
ACTIVATION_READERS = {
    "greedy_align": lambda a, b, x: pf.greedy_align(
        a, b, pf.FusionConfig(alpha=0.4, features=pf.FeatureKind.ACTIVATIONS, align=pf.AlignMethod.GREEDY), x
    ),
    "cluster_prune": lambda a, b, x: pf.cluster_prune(
        a, pf.PruneSpec((3,) * a.num_hidden, pf.PruneMethod.CLUSTER), x, restarts=2
    ),
    "similarity_stats": lambda a, b, x: pf.similarity_stats(a, b, x),
}


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("reader, sides", [
    ("greedy_align", "ab"), ("cluster_prune", "a"), ("similarity_stats", "ab"),
])
def test_one_forward_pass_per_network(monkeypatch, rng, reader, sides, depth):
    pair = {"a": rand_net((4, *[5] * depth, 3), seed=1), "b": rand_net((4, *[5] * depth, 3), seed=2)}
    calls = []
    activations = netcore.activations

    def counting(net, batch):
        calls.append(net)
        return activations(net, batch)

    monkeypatch.setattr(netcore, "activations", counting)
    ACTIVATION_READERS[reader](pair["a"], pair["b"], rng.normal(size=(20, 4)))
    assert calls == [pair[side] for side in sides]  # networks compare by identity


def _gelu_reference(x):
    """GELU as one expression, one temporary per operation."""
    inner = _GELU_SCALE * (x + _GELU_CUBIC * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


ACTIVATION_REFERENCES = {
    pf.ActivationKind.GELU: _gelu_reference,
    pf.ActivationKind.RELU: lambda x: np.maximum(x, 0.0),
    pf.ActivationKind.IDENTITY: lambda x: x,
}


class TestEvaluationPath:
    """The buffered evaluation path computes the plain expressions' bits."""

    @pytest.mark.parametrize("kind", list(pf.ActivationKind), ids=lambda k: k.name)
    def test_apply_is_bitwise_the_plain_expression(self, kind, rng):
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 1e150, -1e150])
        x = np.concatenate([special, rng.normal(scale=3.0, size=400)]).reshape(17, 24)
        before = x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = kind.apply(x)
            want = ACTIVATION_REFERENCES[kind](x)
        assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0
        assert x.tobytes() == before.tobytes()  # apply never mutates its input

    @pytest.mark.parametrize("kind", list(pf.ActivationKind), ids=lambda k: k.name)
    def test_forward_and_activations_leave_the_batch_unchanged(self, kind, rng):
        net = rand_net((5, 9, 8, 3), kind, seed=8)
        x = rng.normal(size=(12, 5))
        before = x.copy()
        h = x
        for l in range(net.num_hidden + 1):
            h = h @ net.weights[l].T + net.biases[l]
            if l < net.num_hidden:
                h = ACTIVATION_REFERENCES[kind](h)
                assert pf.activations(net, x)[l].tobytes() == h.tobytes()
        assert pf.forward(net, x).tobytes() == h.tobytes()
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind, states", [
        (pf.ActivationKind.GELU, 3),  # the product, GELU's tanh buffer and 0.5 * x
        (pf.ActivationKind.RELU, 2),
        (pf.ActivationKind.IDENTITY, 2),  # a product and the state it is formed from
    ], ids=["GELU", "RELU", "IDENTITY"])
    def test_evaluation_frees_each_state_before_the_next(self, kind, states, rng):
        n, width = 1000, 100
        net = rand_net((784, width, width, width, 10), kind, seed=3)
        data = pf.LabeledDataset(rng.random((n, 784)), np.arange(n) % 10)
        tracemalloc.start()
        try:
            pf.evaluate_accuracy(net, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (states + 0.25) * n * width * 8

    def test_dataset_inputs_are_read_only(self, rng):
        data = pf.LabeledDataset(rng.normal(size=(6, 3)), np.arange(6) % 2)
        assert not data.inputs.flags.writeable
        with pytest.raises(ValueError):
            data.inputs[0, 0] = np.nan

    def test_nan_inputs_rejected_at_construction(self, rng):
        x = rng.normal(size=(6, 3))
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pf.LabeledDataset(x, np.zeros(6))


class TestEnsemble:
    def test_lambda_one_is_f_a(self, rng):
        a, b = rand_net((4, 6, 3), seed=1), rand_net((4, 5, 3), seed=2)
        ens = pf.make_ensemble(a, b, 1.0)
        x = rng.normal(size=(20, 4))
        np.testing.assert_allclose(pf.forward(ens, x), pf.forward(a, x), atol=1e-12)

    def test_self_ensemble_half(self, rng):
        a = rand_net((4, 6, 3), seed=1)
        ens = pf.make_ensemble(a, a, 0.5)
        x = rng.normal(size=(20, 4))
        np.testing.assert_allclose(pf.forward(ens, x), pf.forward(a, x), atol=1e-12)

    def test_matches_convex_combination(self, rng):
        a, b = rand_net((5, 7, 6, 3), seed=3), rand_net((5, 8, 6, 3), seed=4)
        ens = pf.make_ensemble(a, b, 0.3)
        x = rng.normal(size=(64, 5))
        want = 0.3 * pf.forward(a, x) + 0.7 * pf.forward(b, x)
        assert np.abs(pf.forward(ens, x) - want).max() <= 1e-10

    def test_origin_tags(self):
        a, b = rand_net((4, 6, 3), seed=1), rand_net((4, 5, 3), seed=2)
        ens = pf.make_ensemble(a, b, 0.5)
        np.testing.assert_array_equal(ens.origins[0], [0] * 6 + [1] * 5)

    def test_incompatible_activation(self):
        a = rand_net((4, 6, 3), pf.ActivationKind.RELU, seed=1)
        b = rand_net((4, 6, 3), pf.ActivationKind.GELU, seed=2)
        with pytest.raises(ShapeError):
            pf.make_ensemble(a, b, 0.5)


class TestPermutationInvariance:
    def test_function_unchanged(self, rng):
        net = rand_net((5, 9, 8, 3), seed=5)
        x = rng.normal(size=(16, 5))
        base = pf.forward(net, x)
        permuted = net
        for layer in (1, 2):
            perm = rng.permutation(net.hidden_dims[layer - 1])
            permuted = remap_neurons(permuted, {layer: (perm, None)})
        assert np.abs(pf.forward(permuted, x) - base).max() <= 1e-12


class TestRemapNeurons:
    def test_widths_read_off_the_weights(self):
        net = rand_net((5, 9, 8, 3), seed=6)
        rebuilt = pf.DenseNetwork(net.weights, net.biases, net.activation)
        assert rebuilt.dims == (5, 9, 8, 3) and rebuilt.equals(net)
        with pytest.raises(ShapeError):
            pf.DenseNetwork(net.weights[::-1], net.biases, net.activation)

    def test_delete_permute_and_split(self, rng):
        net = rand_net((5, 9, 8, 3), pf.ActivationKind.RELU, seed=7)
        # layer 1 keeps 4 neurons in a new order; layer 2 splits neuron 2 as 0.25 : 0.75
        keep = np.array([7, 0, 3, 5])
        src = np.append(np.arange(8), 2)
        scale = np.ones(9)
        scale[2], scale[8] = 0.25, 0.75
        out = remap_neurons(net, {1: (keep, None), 2: (src, scale)})
        assert out.hidden_dims == (4, 9)
        np.testing.assert_array_equal(out.weights[0], net.weights[0][keep])
        np.testing.assert_array_equal(out.weights[1], scale[:, None] * net.weights[1][src][:, keep])
        np.testing.assert_array_equal(out.weights[2][:, 8], net.weights[2][:, 2])
        np.testing.assert_array_equal(out.biases[1][8], 0.75 * net.biases[1][2])
        # a RELU split keeps the function (positive homogeneity)
        split = remap_neurons(net, {2: (src, scale)})
        x = rng.normal(size=(16, 5))
        assert np.abs(pf.forward(split, x) - pf.forward(net, x)).max() <= 1e-12


class TestEquals:
    def test_bitwise_architecture_and_parameters(self):
        net = rand_net((5, 9, 3), seed=6)
        assert net.equals(pf.DenseNetwork(net.weights, net.biases, net.activation))
        wider = rand_net((5, 10, 3), seed=6)
        assert not net.equals(wider) and not wider.equals(net)
        assert not net.equals(pf.DenseNetwork(net.weights, net.biases, pf.ActivationKind.RELU))
        biases = [b.copy() for b in net.biases]
        biases[-1][0] = np.nextafter(biases[-1][0], np.inf)
        assert not net.equals(pf.DenseNetwork(net.weights, biases, net.activation))


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path, rng):
        net = rand_net((5, 9, 8, 3), seed=6)
        path = tmp_path / "net.pfnn"
        pf.save(net, path)
        assert pf.load(path).equals(net)

    @pytest.mark.parametrize("ensemble", [False, True])
    def test_pickle_round_trip_keeps_the_invariants(self, ensemble):
        net = rand_net((5, 9, 8, 3), seed=6)
        if ensemble:  # origin tags travel too
            net = pf.make_ensemble(net, rand_net((5, 9, 8, 3), seed=7), 0.3)
        back = pickle.loads(pickle.dumps(net))
        assert back.equals(net) and back.activation is net.activation
        for mine, theirs in zip(net.weights + net.biases, back.weights + back.biases):
            assert mine.tobytes() == theirs.tobytes()
        for array in back.weights + back.biases:
            assert not array.flags.writeable
        if ensemble:
            assert all(np.array_equal(a, b) for a, b in zip(net.origins, back.origins))
        else:
            assert back.origins is None

    def test_truncated_file(self, tmp_path):
        net = rand_net((4, 6, 2), seed=7)
        path = tmp_path / "net.pfnn"
        pf.save(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(PfnnFormatError, match="truncated"):
            pf.load(path)

    def test_wrong_magic(self, tmp_path):
        net = rand_net((4, 6, 2), seed=7)
        path = tmp_path / "net.pfnn"
        pf.save(net, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(PfnnFormatError, match="magic"):
            pf.load(path)

    def test_bad_activation_code(self, tmp_path):
        net = rand_net((4, 6, 2), seed=7)
        path = tmp_path / "net.pfnn"
        pf.save(net, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(PfnnFormatError, match="activation"):
            pf.load(path)

    @pytest.mark.parametrize("dims, layers", [
        pytest.param(HUGE_PFNN_DIMS, None, id="weights-above-2**63-bytes"),
        pytest.param((100000, 100000, 10), None, id="weights-100000x100000"),
        pytest.param((3, 4, 2), 2**32 - 1, id="layer-count-2**32-1"),
    ])
    def test_oversized_header_is_truncated_not_allocated(self, tmp_path, dims, layers):
        path = tmp_path / "huge.pfnn"
        path.write_bytes(pfnn_header(dims, layers=layers) + bytes(64))
        with pytest.raises(PfnnFormatError, match=re.escape(f"{path}: truncated payload")):
            pf.load(path)

    def test_reads_go_in_bounded_chunks(self, monkeypatch):
        sizes = []

        class Recording(io.BytesIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        with pytest.raises(PfnnFormatError, match="truncated payload while reading x"):
            netcore.read_exact(Recording(bytes(10)), 2**70, "x", PfnnFormatError)
        assert sizes == [netcore.READ_CHUNK, netcore.READ_CHUNK]
        monkeypatch.setattr(netcore, "READ_CHUNK", 4)
        assert netcore.read_exact(io.BytesIO(b"abcdefghijk"), 10, "x", PfnnFormatError) == b"abcdefghij"

    def test_trailing_data(self, tmp_path):
        net = rand_net((4, 6, 2), seed=7)
        path = tmp_path / "net.pfnn"
        pf.save(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(PfnnFormatError, match="trailing"):
            pf.load(path)


class TestAccuracy:
    def test_perfect_one_hot(self):
        eye = np.eye(3)
        net = pf.DenseNetwork(
            weights=(eye, eye),
            biases=(np.zeros(3), np.zeros(3)),
            activation=pf.ActivationKind.RELU,
        )
        data = pf.LabeledDataset(np.eye(3), np.array([0, 1, 2]))
        assert pf.evaluate_accuracy(net, data) == 1.0

    def test_constant_zero_net_predicts_class_zero(self, rng):
        net = pf.DenseNetwork(
            weights=(np.zeros((5, 4)), np.zeros((10, 5))),
            biases=(np.zeros(5), np.zeros(10)),
            activation=pf.ActivationKind.GELU,
        )
        labels = np.repeat(np.arange(10), 7)
        data = pf.LabeledDataset(rng.normal(size=(70, 4)), labels)
        assert pf.evaluate_accuracy(net, data) == pytest.approx(0.1)

    def test_single_wrong_sample(self):
        net = pf.DenseNetwork(
            weights=(np.eye(2), np.eye(2)),
            biases=(np.zeros(2), np.array([1.0, 0.0])),
            activation=pf.ActivationKind.IDENTITY,
        )
        data = pf.LabeledDataset(np.zeros((1, 2)), np.array([1]))
        assert pf.evaluate_accuracy(net, data) == 0.0

    def test_non_finite_logits_are_numerical_failures(self):
        net = pf.DenseNetwork(
            (np.eye(2), 1e308 * np.eye(2)), (np.zeros(2), np.zeros(2)), pf.ActivationKind.RELU
        )
        data = pf.LabeledDataset(np.full((3, 2), 10.0), np.array([0, 1, 0]))
        with np.errstate(over="ignore"), pytest.raises(netcore.NumericalFailure, match="logits"):
            pf.evaluate_accuracy(net, data)

    def test_label_outside_output_range_rejected(self):
        net = identity_net(3)
        with pytest.raises(ValueError, match="label outside"):
            pf.evaluate_accuracy(net, pf.LabeledDataset(np.eye(3), np.array([0, 1, 3])))

    def test_wrong_feature_width_rejected(self):
        net = identity_net(3)
        with pytest.raises(ShapeError, match="feature dimension"):
            pf.evaluate_accuracy(net, pf.LabeledDataset(np.eye(4), np.array([0, 1, 2, 0])))


class TestBlasThreads:
    def test_pinned_blas_runs_on_the_calling_thread_alone(self):
        # OpenBLAS reads the pin when it loads, so a fresh interpreter sees it
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
        code = "from partfuse import netcore; print(netcore.blas_threads())"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.stdout.split() == ["1"], done.stderr

    def test_python_threads_are_not_counted(self):
        before = netcore.blas_threads()
        with idle_thread():
            assert netcore.blas_threads() == before


class TestWorkerMap:
    def test_a_worker_killed_by_a_signal_is_named_by_it(self):
        caller = os.getpid()

        def work(x):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        with pytest.raises(netcore.WorkerDied, match="^a worker process was killed by signal SIGKILL$"):
            netcore.worker_map(work, [0, 1])
        assert multiprocessing.active_children() == []
