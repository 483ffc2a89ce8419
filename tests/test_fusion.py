import numpy as np
import pytest

import partfuse as pf
from partfuse.fusion import MatchPlan, build_match_plan
from partfuse.netcore import ShapeError, remap_neurons

from conftest import rand_net, random_plan
from oracles import fixed_point_trace


def permuted_pair(dims, seed):
    """(net_a, net_b, perms) where net_a relabels net_b's hidden neurons."""
    rng = np.random.default_rng(seed)
    b = rand_net(dims, seed=seed + 31)
    a = b
    perms = []
    for layer in range(1, b.num_hidden + 1):
        p = rng.permutation(b.hidden_dims[layer - 1])
        perms.append(p)
        a = remap_neurons(a, {layer: (p, None)})
    return a, b, perms


class TestFusionConfig:
    @pytest.mark.parametrize("alpha", [1e-8, 0.3333333, [0.4, 1e-8]], ids=str)
    def test_inexact_alpha_rejected(self, alpha):
        # no fraction with denominator <= 10**6 lies within 1e-9 of it
        with pytest.raises(ValueError, match="exact rational representation"):
            pf.FusionConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", [1e-12, 5e-10, 0.4, [0.4, 1e-12], 1 / 3], ids=str)
    def test_exact_alpha_accepted(self, alpha):
        # an alpha within 1e-9 of 0 is solved as 0
        want = tuple(alpha) if isinstance(alpha, list) else (alpha,)
        assert pf.FusionConfig(alpha=alpha).alpha == want


class TestFeatures:
    def test_activation_features_zero_cross_diagonal(self, rng):
        net = rand_net((4, 6, 3), seed=1)
        data = rng.normal(size=(30, 4))
        fa, mu = pf.features_activation(net, data)[0]
        cost = pf.cost_matrix(fa, fa)
        np.testing.assert_allclose(np.diag(cost), 0.0, atol=1e-12)
        assert mu.masses[0] == pytest.approx(1 / 6)

    def test_single_sample_features_are_scalars(self, rng):
        net = rand_net((4, 6, 3), seed=1)
        fa, _ = pf.features_activation(net, rng.normal(size=(1, 4)))[0]
        assert fa.shape == (6, 1)

    def test_duplicate_neuron_duplicate_feature_rows(self, rng):
        base = rand_net((4, 5, 3), seed=2)
        w0 = np.array(base.weights[0])
        b0 = np.array(base.biases[0])
        w0[3], b0[3] = w0[2], b0[2]
        net = pf.DenseNetwork((w0, base.weights[1]), (b0, base.biases[1]), base.activation)
        fa, _ = pf.features_activation(net, rng.normal(size=(20, 4)))[0]
        np.testing.assert_array_equal(fa[2], fa[3])

    def test_weight_features_identity_kernel_self(self):
        net = rand_net((4, 6, 3), seed=3)
        fa, fb = pf.features_weight(net, net, [None], 1)
        np.testing.assert_array_equal(fa, fb)

    def test_weight_features_permutation_algebra(self):
        a, b, perms = permuted_pair((4, 6, 5, 3), seed=4)
        # the true layer-2 coupling sends a's neuron k to b's neuron perms[1][k]
        pi = np.zeros((5, 5))
        pi[np.arange(5), perms[1]] = 1.0 / 5
        mu = pf.DiscreteMeasure.uniform(5)
        fa, fb = pf.features_weight(a, b, [None, pf.Coupling(pi, mu, mu)], 1)
        # a's layer-1 neuron k is b's neuron perms[0][k]
        np.testing.assert_allclose(fa, fb[perms[0]], atol=1e-12)

    def test_zero_weight_features(self):
        zero = pf.DenseNetwork(
            (np.zeros((4, 3)), np.zeros((2, 4))), (np.zeros(4), np.zeros(2)),
            pf.ActivationKind.RELU,
        )
        fa, fb = pf.features_weight(zero, zero, [None], 1)
        np.testing.assert_array_equal(fa, np.zeros_like(fa))
        np.testing.assert_array_equal(fa, fb)


class TestOtFuse:
    def test_self_fusion_reproduces_function(self, rng):
        net = rand_net((5, 8, 7, 3), seed=5)
        x = rng.normal(size=(32, 5))
        for lam in (0.0, 0.3, 1.0):
            fused = pf.ot_fuse(net, net, pf.FusionConfig(lam=lam))
            assert np.abs(pf.forward(fused, x) - pf.forward(net, x)).max() <= 1e-10

    def test_lambda_zero_returns_net_b(self):
        a, b = rand_net((4, 6, 3), seed=6), rand_net((4, 6, 3), seed=7)
        fused = pf.ot_fuse(a, b, pf.FusionConfig(lam=0.0))
        assert fused.equals(b)

    def test_permuted_copy_recovers_target(self, rng):
        a, b, _ = permuted_pair((5, 8, 7, 4), seed=8)
        fused = pf.ot_fuse(a, b, pf.FusionConfig(lam=0.5))
        x = rng.normal(size=(64, 5))
        assert np.abs(pf.forward(fused, x) - pf.forward(b, x)).max() <= 1e-8


def half_matched_coupling(n, index):
    """Identity partial coupling of two width-n layers; neuron `index` is half matched."""
    pi = np.eye(n) / n
    pi[index, index] /= 2
    mu = pf.DiscreteMeasure.uniform(n)
    return pf.Coupling(pi, mu, mu, alpha=0.5 / n)


class TestSplitPartialNeuron:
    """The split match_pair runs: build_match_plan's neuron map, then remap_neurons."""

    def test_relu_function_preserved(self, rng):
        net = rand_net((4, 6, 3), pf.ActivationKind.RELU, seed=9)
        plan, map_a, _ = build_match_plan(half_matched_coupling(6, 2))
        out = remap_neurons(net, {1: map_a})
        assert out.hidden_dims == (7,)
        x = rng.normal(size=(40, 4))
        assert np.abs(pf.forward(out, x) - pf.forward(net, x)).max() <= 1e-12
        assert plan.split_directives == (("A", 2), ("B", 2))

    def test_gelu_deviation_is_small_but_reported(self, rng):
        net = rand_net((4, 6, 3), pf.ActivationKind.GELU, seed=10)
        _, map_a, _ = build_match_plan(half_matched_coupling(6, 0))
        out = remap_neurons(net, {1: map_a})
        x = rng.normal(size=(40, 4))
        deviation = np.abs(pf.forward(out, x) - pf.forward(net, x)).max()
        assert np.isfinite(deviation)
        assert deviation > 0.0  # the split is only approximate for GELU


class TestAssemble:
    def test_all_fused_reduces_to_plain_fusion(self, rng):
        a, b = rand_net((4, 6, 3), seed=12), rand_net((4, 6, 3), seed=13)
        cfg = pf.FusionConfig(lam=0.35)
        fused = pf.ot_fuse(a, b, cfg)
        partial = pf.partial_fuse(a, b, cfg)
        for w1, w2 in zip(fused.weights, partial.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(fused.biases, partial.biases):
            np.testing.assert_array_equal(b1, b2)

    def test_all_isolated_is_block_diagonal(self):
        a, b = rand_net((4, 6, 3), seed=14), rand_net((4, 5, 3), seed=15)
        empty = np.empty(0, dtype=np.int64)
        plan = MatchPlan(
            isolated_a=np.arange(6),
            fused_a=empty,
            isolated_b=np.arange(5),
            fused_b=empty,
            kernels=pf.KernelPair(np.zeros((0, 0)), np.zeros((0, 0))),
        )
        w, bias = pf.assemble_partial_layer(
            a.weights[1], b.weights[1], a.biases[1], b.biases[1],
            plan, MatchPlan.boundary(3), 0.5,
        )
        np.testing.assert_allclose(w[:, :6], 0.5 * a.weights[1])
        np.testing.assert_allclose(w[:, 6:], 0.5 * b.weights[1])

    def test_boundary_plans_equal_explicit_identity_kernels(self):
        for trial in range(20):
            rng = np.random.default_rng(trial)
            dims = (4, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 3)
            a, b = rand_net(dims, seed=300 + trial), rand_net(dims, seed=400 + trial)
            plans = [random_plan(rng, a.hidden_dims[l], b.hidden_dims[l]) for l in range(2)]
            lam = float(rng.random())
            eye = [
                MatchPlan(np.empty(0), np.arange(n), np.empty(0), np.arange(n), pf.KernelPair(np.eye(n), np.eye(n)))
                for n in (dims[0], dims[-1])
            ]
            lean = [MatchPlan.boundary(dims[0]), *plans, MatchPlan.boundary(dims[-1])]
            explicit = [eye[0], *plans, eye[1]]
            for l in range(3):
                args = (a.weights[l], b.weights[l], a.biases[l], b.biases[l])
                w, bias = pf.assemble_partial_layer(*args, lean[l], lean[l + 1], lam)
                w_eye, bias_eye = pf.assemble_partial_layer(*args, explicit[l], explicit[l + 1], lam)
                assert np.array_equal(w, w_eye) and np.array_equal(bias, bias_eye)

    def test_boundary_plan_has_no_kernels(self):
        plan = MatchPlan.boundary(784)
        assert plan.kernels is None and plan.n_a == plan.n_b == len(plan.fused_b) == 784
        with pytest.raises(ShapeError):
            MatchPlan(np.empty(0), np.arange(3), np.empty(0), np.arange(4), kernels=None)

    def test_plan_shape_mismatch_rejected(self):
        a, b = rand_net((4, 6, 3), seed=16), rand_net((4, 6, 3), seed=17)
        with pytest.raises(ShapeError):
            pf.assemble_partial_layer(
                a.weights[0], b.weights[0], a.biases[0], b.biases[0],
                MatchPlan.boundary(5), MatchPlan.boundary(6), 0.5,
            )


class TestPartialFuse:
    def test_alpha_one_matches_ensemble(self, rng):
        a, b = rand_net((5, 7, 6, 3), seed=18), rand_net((5, 7, 6, 3), seed=19)
        x = rng.normal(size=(256, 5))
        for lam in (0.0, 0.3, 0.5, 1.0):
            fused = pf.partial_fuse(a, b, pf.FusionConfig(lam=lam, alpha=1.0))
            ens = pf.make_ensemble(a, b, lam)
            assert np.abs(pf.forward(fused, x) - pf.forward(ens, x)).max() <= 1e-8

    def test_per_layer_alpha_freezes_first_layer(self):
        a, b = rand_net((5, 8, 8, 8, 3), seed=20), rand_net((5, 8, 8, 8, 3), seed=21)
        fused = pf.partial_fuse(a, b, pf.FusionConfig(lam=0.5, alpha=[1.0, 0.0, 0.0]))
        assert fused.hidden_dims == (16, 8, 8)

    def test_width_monotone_in_alpha(self):
        a, b = rand_net((5, 8, 8, 3), seed=22), rand_net((5, 8, 8, 3), seed=23)
        widths = []
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            fused = pf.partial_fuse(a, b, pf.FusionConfig(lam=0.5, alpha=alpha))
            widths.append(fused.hidden_dims)
        for lo, hi in zip(widths, widths[1:]):
            assert all(h >= l for l, h in zip(lo, hi))

    def test_fractional_width_triggers_split(self):
        # alpha * n not integral: a neuron is split, width grows accordingly
        a, b = rand_net((4, 5, 3), seed=24), rand_net((4, 5, 3), seed=25)
        fused = pf.partial_fuse(a, b, pf.FusionConfig(lam=0.5, alpha=0.5))
        # matched mass 0.5 over 5 neurons of mass 0.2: two full matches and
        # one half match per side, so 3 isolated + 3 fused + 3 isolated
        assert fused.hidden_dims == (9,)

    def test_ot_fuse_permutation_equivariance(self, rng):
        a = rand_net((4, 6, 6, 3), seed=44)
        b = rand_net((4, 6, 6, 3), seed=45)
        data = rng.normal(size=(100, 4))
        cfg = pf.FusionConfig(
            lam=0.5, features=pf.FeatureKind.ACTIVATIONS, align=pf.AlignMethod.GREEDY
        )
        base = pf.ot_fuse(a, b, cfg, data=data)
        a_perm = remap_neurons(a, {2: (rng.permutation(6), None)})
        moved = pf.ot_fuse(a_perm, b, cfg, data=data)
        x = rng.normal(size=(64, 4))
        assert np.abs(pf.forward(base, x) - pf.forward(moved, x)).max() <= 1e-8

    def test_permutation_equivariance_of_function(self, rng):
        a = rand_net((4, 6, 6, 3), seed=26)
        b = rand_net((4, 6, 6, 3), seed=27)
        data = rng.normal(size=(100, 4))
        cfg = pf.FusionConfig(
            lam=0.5, alpha=0.5, features=pf.FeatureKind.ACTIVATIONS, align=pf.AlignMethod.GREEDY
        )
        base = pf.partial_fuse(a, b, cfg, data=data)
        a_perm = remap_neurons(a, {1: (rng.permutation(6), None)})
        moved = pf.partial_fuse(a_perm, b, cfg, data=data)
        x = rng.normal(size=(64, 4))
        assert np.abs(pf.forward(base, x) - pf.forward(moved, x)).max() <= 1e-8


class TestFixedPoint:
    def test_recovers_permutation(self):
        a, b, perms = permuted_pair((5, 7, 6, 4), seed=28)
        result = pf.fixed_point_align(a, b, pf.FusionConfig())
        for layer, coupling in enumerate(result.couplings):
            n = coupling.matrix.shape[0]
            want = np.zeros((n, n))
            want[np.arange(n), perms[layer]] = 1.0 / n
            np.testing.assert_allclose(coupling.matrix, want, atol=1e-12)

    def test_objective_non_decreasing_per_step(self):
        for seed in range(5):
            a, b = rand_net((4, 6, 5, 3), seed=seed), rand_net((4, 6, 5, 3), seed=seed + 50)
            _, trace = fixed_point_trace(a, b, pf.FusionConfig())
            trace = np.array(trace)
            assert np.all(np.diff(trace) >= -1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_ascent_never_evaluates_the_objective(self, monkeypatch, alpha):
        a, b = rand_net((4, 6, 5, 3), seed=3), rand_net((4, 6, 5, 3), seed=53)
        cfg = pf.FusionConfig(alpha=alpha)
        want, trace = fixed_point_trace(a, b, cfg)
        assert len(trace) > 1  # the oracle did evaluate it

        def fail(*args, **kwargs):
            raise AssertionError("fixed-point alignment evaluated its objective")

        monkeypatch.setattr(pf.fusion, "alignment_objective", fail)
        got = pf.fixed_point_align(a, b, cfg)
        assert got.converged_sweep == want.converged_sweep
        for c_got, c_want in zip(got.couplings, want.couplings, strict=True):
            assert c_got.matrix.tobytes() == c_want.matrix.tobytes()

    def test_single_hidden_layer_converges_in_one_sweep(self):
        a, b = rand_net((5, 7, 3), seed=31), rand_net((5, 7, 3), seed=32)
        result = pf.fixed_point_align(a, b, pf.FusionConfig())
        assert result.converged_sweep == 2  # second sweep finds nothing to change

    def test_requires_weight_features(self):
        a, b = rand_net((4, 6, 3), seed=33), rand_net((4, 6, 3), seed=34)
        with pytest.raises(ValueError):
            pf.fixed_point_align(a, b, pf.FusionConfig(features=pf.FeatureKind.ACTIVATIONS))

    def test_partial_alignment_respects_alpha(self):
        a, b = rand_net((4, 8, 3), seed=37), rand_net((4, 8, 3), seed=38)
        result = pf.fixed_point_align(a, b, pf.FusionConfig(alpha=0.5))
        assert result.couplings[0].matrix.sum() == pytest.approx(0.5, abs=1e-9)


class TestGreedy:
    def test_identical_nets_identity_couplings(self, rng):
        net = rand_net((4, 6, 5, 3), seed=39)
        data = rng.normal(size=(50, 4))
        cfg = pf.FusionConfig(features=pf.FeatureKind.ACTIVATIONS, align=pf.AlignMethod.GREEDY)
        result = pf.greedy_align(net, net, cfg, data=data)
        for coupling in result.couplings:
            n = coupling.matrix.shape[0]
            np.testing.assert_allclose(coupling.matrix, np.eye(n) / n, atol=1e-12)

    def test_activation_features_recover_permutation(self, rng):
        a, b, perms = permuted_pair((5, 7, 6, 4), seed=40)
        data = rng.normal(size=(100, 5))
        cfg = pf.FusionConfig(features=pf.FeatureKind.ACTIVATIONS, align=pf.AlignMethod.GREEDY)
        result = pf.greedy_align(a, b, cfg, data=data)
        for layer, coupling in enumerate(result.couplings):
            n = coupling.matrix.shape[0]
            want = np.zeros((n, n))
            want[np.arange(n), perms[layer]] = 1.0 / n
            np.testing.assert_allclose(coupling.matrix, want, atol=1e-12)

    def test_weight_features_recover_permutation(self):
        a, b, perms = permuted_pair((5, 7, 6, 4), seed=41)
        result = pf.greedy_align(a, b, pf.FusionConfig(align=pf.AlignMethod.GREEDY))
        for layer, coupling in enumerate(result.couplings):
            n = coupling.matrix.shape[0]
            want = np.zeros((n, n))
            want[np.arange(n), perms[layer]] = 1.0 / n
            np.testing.assert_allclose(coupling.matrix, want, atol=1e-12)

    def test_activation_features_need_data(self):
        a, b = rand_net((4, 6, 3), seed=42), rand_net((4, 6, 3), seed=43)
        cfg = pf.FusionConfig(features=pf.FeatureKind.ACTIVATIONS, align=pf.AlignMethod.GREEDY)
        with pytest.raises(ValueError):
            pf.greedy_align(a, b, cfg)
