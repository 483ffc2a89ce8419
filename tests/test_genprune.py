import numpy as np
import pytest

import partfuse as pf
from partfuse import transport
from partfuse.fusion import MatchPlan
from partfuse.genprune import PruneMethod, PruneSpec
from partfuse.netcore import NumericalFailure
from partfuse.transport import KernelPair

from conftest import rand_net, random_plan
from oracles import partial_fusion_as_pruning_kernels


def duplicate_neuron_net(seed=0, activation=pf.ActivationKind.RELU):
    base = rand_net((4, 6, 3), activation, seed=seed)
    w0 = np.array(base.weights[0])
    b0 = np.array(base.biases[0])
    w0[3], b0[3] = w0[2], b0[2]
    return pf.DenseNetwork((w0, base.weights[1]), (b0, base.biases[1]), activation)


class TestApplyGeneralizedPruning:
    def test_identity_kernels_reproduce_network(self):
        net = rand_net((4, 6, 5, 3), seed=1)
        kernels = [(np.eye(6), np.eye(6)), (np.eye(5), np.eye(5))]
        out = pf.apply_generalized_pruning(net, kernels)
        assert out.equals(net)

    def test_selection_kernels_are_classical_pruning(self):
        net = rand_net((4, 6, 3), seed=2)
        keep = np.array([0, 2, 5])
        k_es = np.zeros((3, 6))
        k_es[np.arange(3), keep] = 1.0
        out = pf.apply_generalized_pruning(net, [(k_es, k_es.T)])
        spec = PruneSpec((3,), PruneMethod.UNSTRUCTURED)
        # same selection as direct submatrix extraction
        np.testing.assert_array_equal(out.weights[0], net.weights[0][keep, :])
        np.testing.assert_array_equal(out.weights[1], net.weights[1][:, keep])
        np.testing.assert_array_equal(out.biases[0], net.biases[0][keep])

    def test_explicit_kernels_match_assembly(self):
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            dims = (4, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 3)
            a = rand_net(dims, seed=1000 + trial)
            b = rand_net(dims, seed=2000 + trial)
            lam = float(rng.random())
            plans = [random_plan(rng, a.hidden_dims[l], b.hidden_dims[l]) for l in range(2)]
            ens = pf.make_ensemble(a, b, lam)
            kernels = [partial_fusion_as_pruning_kernels(p, lam) for p in plans]
            pruned = pf.apply_generalized_pruning(ens, kernels)
            chain = [MatchPlan.boundary(dims[0]), *plans, MatchPlan.boundary(dims[-1])]
            for l in range(3):
                w, bias = pf.assemble_partial_layer(
                    a.weights[l], b.weights[l], a.biases[l], b.biases[l],
                    chain[l], chain[l + 1], lam,
                )
                worst = max(worst, np.abs(w - pruned.weights[l]).max())
                worst = max(worst, np.abs(bias - pruned.biases[l]).max())
        assert worst <= 1e-12

    def test_singleton_cluster_preserved_exactly(self, rng):
        net = rand_net((4, 6, 3), seed=3)
        data = rng.normal(size=(30, 4))
        feats, mu = pf.features_activation(net, data)[0], pf.DiscreteMeasure.uniform(6)
        labels = np.array([0, 0, 1, 2, 3, 4])  # neuron 2 is a singleton
        kp = pf.assignment_to_kernels(labels, mu)
        out = pf.apply_generalized_pruning(net, [(kp.k_ab, kp.k_ba)])
        np.testing.assert_array_equal(out.weights[0][1], net.weights[0][2])
        np.testing.assert_array_equal(out.weights[1][:, 1], net.weights[1][:, 2])


class TestClusterPrune:
    def test_no_compression_preserves_function(self, rng):
        net = rand_net((4, 6, 5, 3), seed=4)
        data = rng.normal(size=(40, 4))
        out = pf.cluster_prune(net, PruneSpec((6, 5), PruneMethod.CLUSTER), data, restarts=5)
        x = rng.normal(size=(30, 4))
        assert np.abs(pf.forward(out, x) - pf.forward(net, x)).max() <= 1e-10

    def test_duplicates_merge_exactly_for_relu(self, rng):
        net = duplicate_neuron_net(seed=5)
        data = rng.normal(size=(40, 4))
        out = pf.cluster_prune(net, PruneSpec((5,), PruneMethod.CLUSTER), data, restarts=200)
        x = rng.normal(size=(30, 4))
        assert out.hidden_dims == (5,)
        assert np.abs(pf.forward(out, x) - pf.forward(net, x)).max() <= 1e-9

    def test_ensemble_pipeline_smoke(self, rng):
        a, b = rand_net((6, 8, 3), seed=6), rand_net((6, 8, 3), seed=7)
        ens = pf.make_ensemble(a, b, 0.5)
        data = rng.normal(size=(60, 6))
        out = pf.cluster_prune(ens, PruneSpec((8,), PruneMethod.CLUSTER, lam=0.5), data, restarts=50)
        assert out.hidden_dims == (8,)
        eval_data = pf.LabeledDataset(rng.normal(size=(50, 6)), rng.integers(0, 3, size=50))
        acc = pf.evaluate_accuracy(out, eval_data)
        assert 0.0 <= acc <= 1.0

    def test_non_finite_activations_are_numerical_failures(self, rng):
        net = rand_net((4, 6, 3), seed=8)
        big = pf.DenseNetwork((1e308 * net.weights[0], net.weights[1]), net.biases, net.activation)
        data = rng.normal(size=(20, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="layer 1 activations are not finite"):
                pf.cluster_prune(big, PruneSpec((4,), PruneMethod.CLUSTER), data, restarts=2)

    def test_lambda_weighting_requires_origins(self, rng):
        net = rand_net((4, 6, 3), seed=8)
        data = rng.normal(size=(20, 4))
        with pytest.raises(ValueError, match="origin"):
            pf.cluster_prune(net, PruneSpec((4,), PruneMethod.CLUSTER, lam=0.25), data, restarts=5)

    def test_lambda_weighting_biases_masses(self, rng):
        # heavily downweighted parent B: clusters should prefer mixing B
        a, b = rand_net((5, 6, 3), seed=9), rand_net((5, 6, 3), seed=10)
        ens = pf.make_ensemble(a, b, 0.9)
        data = rng.normal(size=(60, 5))
        out = pf.cluster_prune(ens, PruneSpec((7,), PruneMethod.CLUSTER, lam=0.9), data, restarts=100)
        assert out.hidden_dims == (7,)


class TestUnstructuredPrune:
    def test_keep_all_is_identity(self):
        net = rand_net((4, 6, 3), seed=11)
        out = pf.unstructured_prune(net, PruneSpec((6,), PruneMethod.UNSTRUCTURED))
        assert out.equals(net)

    def test_norms_order_decides(self):
        w0 = np.zeros((3, 2))
        w0[0, 0], w0[1, 0], w0[2, 0] = 5.0, 1.0, 3.0
        net = pf.DenseNetwork(
            (w0, np.arange(6.0).reshape(2, 3)), (np.zeros(3), np.zeros(2)),
            pf.ActivationKind.RELU,
        )
        out = pf.unstructured_prune(net, PruneSpec((2,), PruneMethod.UNSTRUCTURED))
        np.testing.assert_array_equal(out.weights[0][:, 0], [5.0, 3.0])
        np.testing.assert_array_equal(out.weights[1], net.weights[1][:, [0, 2]])

    def test_deleting_dead_neuron_keeps_function(self, rng):
        base = rand_net((4, 5, 3), pf.ActivationKind.GELU, seed=12)
        w0 = np.array(base.weights[0])
        w1 = np.array(base.weights[1])
        b0 = np.array(base.biases[0])
        w0[4], w1[:, 4], b0[4] = 0.0, 0.0, 0.0
        net = pf.DenseNetwork((w0, w1), (b0, base.biases[1]), base.activation)
        out = pf.unstructured_prune(net, PruneSpec((4,), PruneMethod.UNSTRUCTURED))
        x = rng.normal(size=(30, 4))
        assert np.abs(pf.forward(out, x) - pf.forward(net, x)).max() <= 1e-12

    def test_tie_break_keeps_lowest_index(self):
        w0 = np.ones((4, 2))
        net = pf.DenseNetwork(
            (w0, np.arange(8.0).reshape(2, 4)), (np.zeros(4), np.zeros(2)),
            pf.ActivationKind.RELU,
        )
        out = pf.unstructured_prune(net, PruneSpec((2,), PruneMethod.UNSTRUCTURED))
        np.testing.assert_array_equal(out.weights[1], net.weights[1][:, [0, 1]])

    def test_determinism(self, rng):
        a, b = rand_net((5, 8, 3), seed=13), rand_net((5, 8, 3), seed=14)
        ens = pf.make_ensemble(a, b, 0.4)
        spec = PruneSpec((8,), PruneMethod.UNSTRUCTURED, lam=0.4)
        one = pf.unstructured_prune(ens, spec)
        two = pf.unstructured_prune(ens, spec)
        assert one.equals(two)


class TestPostprocess:
    def test_prune_nothing_preserves_function(self, rng):
        net = rand_net((4, 6, 6, 3), pf.ActivationKind.RELU, seed=15)
        out = pf.prune_with_postprocess(net, PruneSpec((6, 6), PruneMethod.UNSTRUCTURED_POSTPROCESS))
        x = rng.normal(size=(30, 4))
        assert np.abs(pf.forward(out, x) - pf.forward(net, x)).max() <= 1e-9

    def test_pruned_duplicate_merges_onto_twin(self, rng):
        # a single hidden layer of two duplicates compresses to one neuron
        # with summed outgoing weights; transport restores the function
        w0 = np.full((2, 4), 0.7)
        net = pf.DenseNetwork(
            (w0, rng.normal(size=(3, 2))), (np.full(2, 0.1), np.zeros(3)),
            pf.ActivationKind.RELU,
        )
        out = pf.prune_with_postprocess(net, PruneSpec((1,), PruneMethod.UNSTRUCTURED_POSTPROCESS))
        x = rng.normal(size=(30, 4))
        assert out.hidden_dims == (1,)
        assert np.abs(pf.forward(out, x) - pf.forward(net, x)).max() <= 1e-9

    def test_shapes_after_heavy_prune(self, rng):
        net = rand_net((6, 10, 10, 4), seed=16)
        out = pf.prune_with_postprocess(net, PruneSpec((5, 5), PruneMethod.UNSTRUCTURED_POSTPROCESS))
        assert out.hidden_dims == (5, 5)

    def test_full_width_solves_no_transport(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("transport solved although nothing was pruned")

        monkeypatch.setattr(transport, "solve_partial_ot", fail)
        net = rand_net((4, 6, 6, 3), seed=17)
        spec = PruneSpec((6, 6), PruneMethod.UNSTRUCTURED_POSTPROCESS)
        out = pf.prune_with_postprocess(net, spec)
        assert out.equals(pf.unstructured_prune(net, spec))


class TestPruneDispatch:
    def _ensemble(self):
        a, b = rand_net((5, 6, 6, 3), seed=18), rand_net((5, 6, 6, 3), seed=19)
        return pf.make_ensemble(a, b, 0.3)

    @pytest.mark.parametrize("method", list(PruneMethod))
    def test_method_picks_the_pruner(self, rng, method):
        ens = self._ensemble()
        data = rng.normal(size=(40, 5))
        spec = PruneSpec((8, 7), method, lam=0.3)
        if method is PruneMethod.CLUSTER:
            want = pf.cluster_prune(ens, spec, data, restarts=5, seed=3)
        elif method is PruneMethod.UNSTRUCTURED:
            want = pf.unstructured_prune(ens, spec)
        else:
            want = pf.prune_with_postprocess(ens, spec)
        assert pf.prune(ens, spec, data, restarts=5, seed=3).equals(want)

    def test_cluster_without_data_rejected(self):
        spec = PruneSpec((8, 7), PruneMethod.CLUSTER)
        with pytest.raises(ValueError, match="feature data"):
            pf.prune(self._ensemble(), spec)


class TestPruningKernelShapes:
    def test_empty_isolated_sets_reproduce_plain_fusion(self, rng):
        n = 5
        raw = rng.random((n, n)) + 0.1
        kernels = KernelPair(
            k_ab=(raw / raw.sum(axis=1)[:, None]).T, k_ba=raw / raw.sum(axis=0)[None, :]
        )
        plan = MatchPlan(np.empty(0), np.arange(n), np.empty(0), np.arange(n), kernels)
        k_es, k_se = partial_fusion_as_pruning_kernels(plan, 0.5)
        assert k_es.shape == (n, 2 * n)
        np.testing.assert_allclose(k_es[:, :n], 0.5 * kernels.k_ab)
        np.testing.assert_allclose(k_es[:, n:], 0.5 * np.eye(n))

    def test_empty_fused_sets_are_selections(self):
        empty = np.empty(0, dtype=np.int64)
        plan = MatchPlan(
            isolated_a=np.arange(3), fused_a=empty,
            isolated_b=np.arange(4), fused_b=empty,
            kernels=KernelPair(np.zeros((0, 0)), np.zeros((0, 0))),
        )
        k_es, k_se = partial_fusion_as_pruning_kernels(plan, 0.3)
        np.testing.assert_array_equal(k_es, np.eye(7))
        np.testing.assert_array_equal(k_se, np.eye(7))
