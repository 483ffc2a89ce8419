"""Network fusion via (partial) optimal transport over neuron features.

Full fusion translates A's weights into B's coordinates with per-layer
kernels and interpolates.  Partial fusion matches only a mass fraction
(1 - alpha) of each layer, keeps the unmatched neurons verbatim, and
assembles a block weight matrix per layer whose zero blocks are exact.
"""

from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import netcore, transport
from .netcore import DenseNetwork, NumericalFailure, ShapeError, check_compatible, remap_neurons
from .transport import (
    Coupling,
    DiscreteMeasure,
    KernelPair,
    cost_matrix,
    coupling_to_kernels,
    restrict_normalize_partial,
)

# matched mass below this fraction of a neuron's budget counts as unmatched
MATCH_EPS = 1e-9
# activation features (alignment and cluster pruning) read at most this many samples
ACTIVATION_SAMPLES = 1000
# the fixed-point aligner stops after this many sweeps if it has not converged
OUTER_ITERATIONS = 10


class FeatureKind(Enum):
    ACTIVATIONS = "activations"
    WEIGHTS = "weights"


class AlignMethod(Enum):
    GREEDY = "greedy"
    FIXED_POINT = "fixed-point"


@dataclass(frozen=True)
class FusionConfig:
    lam: float = 0.5
    alpha: Union[float, Sequence[float]] = 0.0  # stored as a tuple of floats
    features: FeatureKind = FeatureKind.WEIGHTS
    align: AlignMethod = AlignMethod.FIXED_POINT

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        object.__setattr__(self, "alpha", tuple(float(a) for a in np.atleast_1d(self.alpha)))
        for a in self.alpha:
            transport.exact_alpha(a)
        if self.align is AlignMethod.FIXED_POINT and self.features is not FeatureKind.WEIGHTS:
            raise ValueError("the fixed-point aligner requires weight features")

    def alphas(self, num_hidden: int) -> Tuple[float, ...]:
        """One alpha per hidden layer; a one-entry alpha applies to every layer."""
        values = self.alpha * num_hidden if len(self.alpha) == 1 else self.alpha
        if len(values) != num_hidden:
            raise ValueError(f"alpha list has {len(values)} entries, expected {num_hidden}")
        return values


@dataclass(frozen=True, eq=False)
class MatchPlan:
    """Partition of one layer into isolated/fused sets plus restricted kernels.

    Index sets refer to the (post-split) neurons of that layer; kernels are
    restricted to fused_b x fused_a.  split_directives lists the partially
    matched neurons as ("A" or "B", index) pairs: each keeps its slot as the
    matched copy, and its leftover copy is appended to that network's layer.
    A boundary layer (input or output) is shared by both networks: every
    neuron is fused with itself, and its kernels are None because the
    identity translation needs no product.
    """

    isolated_a: np.ndarray
    fused_a: np.ndarray
    isolated_b: np.ndarray
    fused_b: np.ndarray
    kernels: Optional[KernelPair]
    split_directives: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        for name in ("isolated_a", "fused_a", "isolated_b", "fused_b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for iso, fused, n in (
            (self.isolated_a, self.fused_a, self.n_a),
            (self.isolated_b, self.fused_b, self.n_b),
        ):
            all_idx = np.concatenate([iso, fused])
            if not np.array_equal(np.sort(all_idx), np.arange(n)):
                raise ShapeError("isolated and fused sets must partition the layer")
        if self.kernels is None:
            if len(self.fused_a) != len(self.fused_b):
                raise ShapeError("a plan without kernels must fuse its neurons one to one")
        elif self.kernels.k_ab.shape != (len(self.fused_b), len(self.fused_a)):
            raise ShapeError("kernel shape does not match the fused sets")

    @property
    def n_a(self) -> int:
        return len(self.isolated_a) + len(self.fused_a)

    @property
    def n_b(self) -> int:
        return len(self.isolated_b) + len(self.fused_b)

    @classmethod
    def boundary(cls, n: int) -> "MatchPlan":
        empty, every = np.empty(0, dtype=np.int64), np.arange(n)
        return cls(empty, every, empty, every, kernels=None)


@dataclass(frozen=True)
class AlignResult:
    """Per-layer couplings, and the fixed-point sweep that changed nothing.

    converged_sweep is None for greedy alignment and for a fixed-point
    ascent that stopped after OUTER_ITERATIONS sweeps.  Alignment never
    reads the interpolation factor, so one result can be assembled at any
    number of lambdas (`match_pair`, then `MatchedPair.fuse`).
    """

    couplings: tuple
    converged_sweep: Optional[int] = None


# ---------------------------------------------------------------------------
# Features


def features_activation(net: DenseNetwork, data: np.ndarray) -> tuple:
    """Neuron features from hidden activations, one forward pass for every layer.

    Entry l - 1 is hidden layer l's features: row i is neuron i's trace.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("activation features need a nonempty sample")
    return tuple(acts.T.copy() for acts in netcore.activations(net, data))


def features_weight(
    net_a: DenseNetwork,
    net_b: DenseNetwork,
    couplings: Sequence[Optional[Coupling]],
    layer: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Outgoing-weight features of hidden layer `layer` in one shared space.

    Row i of each result is neuron i's outgoing weight vector, mapped into
    the joint space of the layer above by couplings[layer] (the output layer
    is shared, so the top hidden layer reads no coupling).  Each neuron's
    incoming bias is appended as one extra coordinate so biased networks
    match on their full affine map.
    """
    if not 1 <= layer <= net_a.num_hidden:
        raise ShapeError(f"layer {layer} out of range")
    xa, xb = _joint_weights(net_a, net_b, couplings, layer)
    if xa.shape[0] != xb.shape[0]:
        raise ShapeError("transferred A-features do not live in B's output space")
    fa = np.column_stack([xa.T, net_a.biases[layer - 1]])
    fb = np.column_stack([xb.T, net_b.biases[layer - 1]])
    return fa, fb


# ---------------------------------------------------------------------------
# Block kernels into the joint (isolated-A, fused-B, isolated-B) space


def _partition(c: Coupling):
    matched_a = c.matched_row_mass()
    matched_b = c.matched_col_mass()
    mu = c.row_marginal.masses
    nu = c.col_marginal.masses
    iso_a = np.flatnonzero(matched_a <= MATCH_EPS * mu)
    iso_b = np.flatnonzero(matched_b <= MATCH_EPS * nu)
    fused_a = np.setdiff1d(np.arange(len(mu)), iso_a)
    fused_b = np.setdiff1d(np.arange(len(nu)), iso_b)
    return iso_a, fused_a, iso_b, fused_b


def _feature_embeddings(c: Coupling):
    """Embeddings (k_a2f, k_b2f) of A's and B's neurons into a solved layer's joint space.

    A full coupling (alpha = 0) maps A onto B's neurons through its kernel.
    Otherwise the joint rows are ordered (isolated_a, fused_b, isolated_b);
    fractionally matched neurons are treated as fused here, and the hard
    split only happens when a final match plan is built.
    """
    if c.alpha == 0.0:
        k_ab = coupling_to_kernels(c).k_ab
        return k_ab, np.eye(k_ab.shape[0])
    iso_a, fused_a, iso_b, fused_b = _partition(c)
    n_a, n_b = c.matrix.shape
    n_joint = len(iso_a) + len(fused_b) + len(iso_b)
    k_a2f = np.zeros((n_joint, n_a))
    k_b2f = np.zeros((n_joint, n_b))
    k_a2f[np.arange(len(iso_a)), iso_a] = 1.0
    lo = len(iso_a)
    if len(fused_a) and len(fused_b):
        sub = c.matrix[np.ix_(fused_a, fused_b)]
        k_ab = (sub / sub.sum(axis=1)[:, None]).T  # columns sum to 1
        k_a2f[lo : lo + len(fused_b), fused_a] = k_ab
    k_b2f[lo + np.arange(len(fused_b)), fused_b] = 1.0
    k_b2f[lo + len(fused_b) + np.arange(len(iso_b)), iso_b] = 1.0
    return k_a2f, k_b2f


def _joint_weights(net_a, net_b, couplings, l: int):
    """W_a[l] and W_b[l] with their rows mapped into one joint space.

    That space is hidden layer l + 1's, built from couplings[l]; the output
    layer (l = L) is shared and needs no mapping.
    """
    if l == net_a.num_hidden:
        return net_a.weights[l], net_b.weights[l]
    k_a2f, k_b2f = _feature_embeddings(couplings[l])
    return k_a2f @ net_a.weights[l], k_b2f @ net_b.weights[l]


# ---------------------------------------------------------------------------
# Alignment


def _product_coupling(n_a: int, n_b: int, alpha: float) -> Coupling:
    mu, nu = DiscreteMeasure.uniform(n_a), DiscreteMeasure.uniform(n_b)
    pi = np.full((n_a, n_b), 1.0 / (n_a * n_b))
    return Coupling((1.0 - alpha) * pi, mu, nu, alpha)


def alignment_objective(net_a, net_b, couplings) -> float:
    """Global cross-layer inner-product objective of a set of couplings.

    Sums, over every weight matrix, the coupling-weighted inner products of
    outgoing-weight features (bias coordinate included); the shared input
    layer contributes through the identity coupling.  Fixed-point coordinate
    steps maximize exactly this, so it ascends monotonically in the full
    (alpha = 0) case; fixed_point_align climbs it without evaluating it.
    """
    total = 0.0
    for l in range(net_a.num_hidden + 1):
        xa, xb = _joint_weights(net_a, net_b, couplings, l)
        if l == 0:
            total += float(np.sum(xa * xb)) / net_a.input_dim
        else:
            reward = xa.T @ xb + np.outer(net_a.biases[l - 1], net_b.biases[l - 1])
            pi = couplings[l - 1].matrix
            total += float(np.sum(reward * pi))
    return total


def _fixed_point_rewards(net_a, net_b, couplings, layer: int) -> np.ndarray:
    """Linear reward for the coupling at `layer`, aggregating both adjacent terms."""
    n_a_l = net_a.hidden_dims[layer - 1]
    # incoming term: layer-1 weights against the coupling below (the shared
    # input layer couples by the scaled identity)
    if layer == 1:
        reward = (n_a_l / net_a.input_dim) * (
            net_a.weights[0] @ net_b.weights[0].T
        )
    else:
        pi_below = couplings[layer - 2].matrix
        reward = n_a_l * (net_a.weights[layer - 1] @ pi_below @ net_b.weights[layer - 1].T)
    # outgoing term: features in the joint space above
    xa, xb = _joint_weights(net_a, net_b, couplings, layer)
    reward = reward + xa.T @ xb
    reward = reward + np.outer(net_a.biases[layer - 1], net_b.biases[layer - 1])
    return reward


def _solve_layer(mu, nu, cost: np.ndarray, alpha: float, layer: int) -> Coupling:
    """Partial transport on a cost computed from the two networks.

    Finite weights or activations can still overflow into non-finite costs:
    that is a numerical failure of the networks, not a malformed input.
    """
    if not np.isfinite(cost).all():
        raise NumericalFailure(f"layer {layer} alignment costs are not finite")
    return transport.solve_partial_ot(mu, nu, cost, alpha)


def fixed_point_align(net_a: DenseNetwork, net_b: DenseNetwork, cfg: FusionConfig) -> AlignResult:
    """Coordinate ascent over per-layer couplings of alignment_objective.

    Couplings start from the product coupling; sweeps visit layers in order
    and re-solve one (partial) transport problem each, holding the rest
    fixed.  Stops early once a sweep changes nothing, and records that sweep
    as converged_sweep.  A solve needs only its layer's rewards, so the
    ascent never evaluates the objective it climbs.
    """
    check_compatible(net_a, net_b)
    replace(cfg, align=AlignMethod.FIXED_POINT)  # FusionConfig rejects activation features here
    L = net_a.num_hidden
    alphas = cfg.alphas(L)
    couplings = [
        _product_coupling(net_a.hidden_dims[l], net_b.hidden_dims[l], alphas[l])
        for l in range(L)
    ]
    converged = None
    for sweep in range(1, OUTER_ITERATIONS + 1):
        changed = False
        for layer in range(1, L + 1):
            cost = -_fixed_point_rewards(net_a, net_b, couplings, layer)
            mu = couplings[layer - 1].row_marginal
            nu = couplings[layer - 1].col_marginal
            new = _solve_layer(mu, nu, cost, alphas[layer - 1], layer)
            if not np.array_equal(new.matrix, couplings[layer - 1].matrix):
                changed = True
            couplings[layer - 1] = new
        if not changed:
            converged = sweep
            break
    return AlignResult(tuple(couplings), converged)


def greedy_align(
    net_a: DenseNetwork,
    net_b: DenseNetwork,
    cfg: FusionConfig,
    data: Optional[np.ndarray] = None,
) -> AlignResult:
    """Single-pass alignment: every layer is solved once and never revisited.

    Layers are solved top-down between uniform marginals.  Weight features
    chain: each layer's outgoing weights are compared in the joint space of
    the layer above, solved just before.  Activation features make the
    layers independent.
    """
    check_compatible(net_a, net_b)
    L = net_a.num_hidden
    alphas = cfg.alphas(L)
    couplings: List[Optional[Coupling]] = [None] * L
    feats = None  # activation features, when the layers do not chain
    if cfg.features is FeatureKind.ACTIVATIONS:
        if data is None:
            raise ValueError("activation features need a data sample")
        sample = np.asarray(data, dtype=np.float64)[:ACTIVATION_SAMPLES]
        feats = list(zip(features_activation(net_a, sample), features_activation(net_b, sample)))
    for layer in range(L, 0, -1):
        fa, fb = features_weight(net_a, net_b, couplings, layer) if feats is None else feats[layer - 1]
        mu = DiscreteMeasure.uniform(net_a.hidden_dims[layer - 1])
        nu = DiscreteMeasure.uniform(net_b.hidden_dims[layer - 1])
        couplings[layer - 1] = _solve_layer(mu, nu, cost_matrix(fa, fb), alphas[layer - 1], layer)
    return AlignResult(tuple(couplings))


def align(
    net_a: DenseNetwork,
    net_b: DenseNetwork,
    cfg: FusionConfig,
    data: Optional[np.ndarray] = None,
) -> AlignResult:
    """Per-layer couplings of the two networks at cfg's alphas (cfg.lam is unused).

    Each coupling carries its own alpha; alpha = 0 layers are full couplings.
    """
    if cfg.align is AlignMethod.FIXED_POINT:
        return fixed_point_align(net_a, net_b, cfg)
    return greedy_align(net_a, net_b, cfg, data=data)


# ---------------------------------------------------------------------------
# Splitting partially matched neurons


def _split_operators(matched: np.ndarray, masses: np.ndarray):
    """The (src, scale) neuron map that splits one side's fractionally matched
    neurons, the masses after it, and the indices it splits.

    A neuron of mass mu is split when both its matched mass kappa and its
    leftover mu - kappa exceed MATCH_EPS * mu.  Matched copies keep their
    slot and take mass kappa; leftover copies are appended in index order
    and take mu - kappa.  Incoming weights scale with the mass share, which
    keeps a ReLU network's function exactly (positive homogeneity) but not a
    GELU's.
    """
    eps = MATCH_EPS * masses
    split = np.flatnonzero((matched > eps) & (masses - matched > eps))
    kappa, mu = matched[split], masses[split]
    frac = kappa / mu
    src = np.concatenate([np.arange(len(masses)), split])
    scale = np.concatenate([np.ones(len(masses)), 1.0 - frac])
    scale[split] = frac
    new_mass = np.concatenate([masses, mu - kappa])
    new_mass[split] = kappa
    return (src, scale), new_mass, split


# ---------------------------------------------------------------------------
# Plans and assembly


def build_match_plan(pt: Coupling):
    """Split fractionally matched neurons, partition, and restrict kernels.

    Returns (plan, map_a, map_b), where map_a and map_b are the (src, scale)
    neuron maps that split each network's layer for netcore.remap_neurons.
    """
    mu = pt.row_marginal.masses
    nu = pt.col_marginal.masses
    map_a, mass_a, split_a = _split_operators(pt.matched_row_mass(), mu)
    map_b, mass_b, split_b = _split_operators(pt.matched_col_mass(), nu)
    # matched copies keep their slot's row/column; leftover copies carry none
    pi = np.zeros((len(mass_a), len(mass_b)))
    pi[: len(mu), : len(nu)] = pt.matrix
    expanded = Coupling(pi, DiscreteMeasure(mass_a), DiscreteMeasure(mass_b), pt.alpha)
    iso_a, fused_a, iso_b, fused_b = _partition(expanded)
    directives = tuple(("A", int(i)) for i in split_a) + tuple(("B", int(i)) for i in split_b)
    if len(fused_a) == 0:
        kernels = KernelPair(np.zeros((0, 0)), np.zeros((0, 0)))
    elif len(iso_a) == 0 and len(iso_b) == 0 and not directives:
        # nothing isolated: plain full coupling against its nominal marginals
        kernels = coupling_to_kernels(expanded)
    else:
        kernels = coupling_to_kernels(
            restrict_normalize_partial(expanded, iso_a.tolist(), iso_b.tolist())
        )
    return MatchPlan(iso_a, fused_a, iso_b, fused_b, kernels, directives), map_a, map_b


def assemble_partial_layer(
    w_a: np.ndarray,
    w_b: np.ndarray,
    b_a: np.ndarray,
    b_b: np.ndarray,
    plan_in: MatchPlan,
    plan_out: MatchPlan,
    lam: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One partially fused layer: block rows (iso_A, fused_B, iso_B).

    The two zero blocks (isolated A from isolated B and vice versa) are
    stored as exact zeros.  The interpolation factor applies exactly where
    mass enters the fused part.
    """
    if w_a.shape != (plan_out.n_a, plan_in.n_a) or w_b.shape != (plan_out.n_b, plan_in.n_b):
        raise ShapeError("weight shapes do not match the plans")
    ia_o, fa_o = plan_out.isolated_a, plan_out.fused_a
    ib_o, fb_o = plan_out.isolated_b, plan_out.fused_b
    ia_i, fa_i = plan_in.isolated_a, plan_in.fused_a
    ib_i, fb_i = plan_in.isolated_b, plan_in.fused_b
    k_out = None if plan_out.kernels is None else plan_out.kernels.k_ab  # |F_B^out| x |F_A^out|
    k_in = None if plan_in.kernels is None else plan_in.kernels.k_ba  # |F_A^in| x |F_B^in|
    pa, pf, pb = len(ia_o), len(fb_o), len(ib_o)
    qa, qf, qb = len(ia_i), len(fb_i), len(ib_i)
    out = np.zeros((pa + pf + pb, qa + qf + qb))
    rows_f = slice(pa, pa + pf)
    cols_f = slice(qa, qa + qf)

    out[:pa, :qa] = w_a[np.ix_(ia_o, ia_i)]
    mid_a_cols = w_a[np.ix_(ia_o, fa_i)]
    out[:pa, cols_f] = mid_a_cols if k_in is None else mid_a_cols @ k_in

    moved = w_a[np.ix_(fa_o, ia_i)]
    out[rows_f, :qa] = lam * (moved if k_out is None else k_out @ moved)
    core = w_a[np.ix_(fa_o, fa_i)]
    if k_out is not None:
        core = k_out @ core
    if k_in is not None:
        core = core @ k_in
    out[rows_f, cols_f] = (1.0 - lam) * w_b[np.ix_(fb_o, fb_i)] + lam * core
    out[rows_f, qa + qf :] = (1.0 - lam) * w_b[np.ix_(fb_o, ib_i)]

    out[pa + pf :, cols_f] = w_b[np.ix_(ib_o, fb_i)]
    out[pa + pf :, qa + qf :] = w_b[np.ix_(ib_o, ib_i)]

    moved_bias = b_a[fa_o] if k_out is None else k_out @ b_a[fa_o]
    bias = np.concatenate(
        [b_a[ia_o], (1.0 - lam) * b_b[fb_o] + lam * moved_bias, b_b[ib_o]]
    )
    return out, bias


@dataclass(frozen=True)
class MatchedPair:
    """Both networks split to an alignment's match plans.

    Nothing here depends on lambda, so one pair fuses at every lambda.
    """

    net_a: DenseNetwork
    net_b: DenseNetwork
    plans: tuple

    def fuse(self, lam: float) -> DenseNetwork:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        a, b = self.net_a, self.net_b
        chain = [MatchPlan.boundary(a.input_dim), *self.plans, MatchPlan.boundary(a.output_dim)]
        layers = [
            assemble_partial_layer(
                a.weights[l], b.weights[l], a.biases[l], b.biases[l], chain[l], chain[l + 1], lam
            )
            for l in range(a.num_hidden + 1)
        ]
        return DenseNetwork(*zip(*layers), a.activation)


def match_pair(net_a: DenseNetwork, net_b: DenseNetwork, alignment: AlignResult) -> MatchedPair:
    """Split and partition both networks by a computed alignment."""
    check_compatible(net_a, net_b)
    if len(alignment.couplings) != net_a.num_hidden:
        raise ShapeError("one coupling per hidden layer required")
    plans, maps_a, maps_b = [], {}, {}
    for layer, coupling in enumerate(alignment.couplings, start=1):
        plan, maps_a[layer], maps_b[layer] = build_match_plan(coupling)
        plans.append(plan)
    return MatchedPair(remap_neurons(net_a, maps_a), remap_neurons(net_b, maps_b), tuple(plans))


def partial_fuse(
    net_a: DenseNetwork,
    net_b: DenseNetwork,
    cfg: FusionConfig,
    data: Optional[np.ndarray] = None,
) -> DenseNetwork:
    """Partially fuse two networks, leaving unmatched neurons isolated.

    Hidden layer l of the result has |I_A| + |F_B| + |I_B| neurons, about
    (1 + alpha_l) times the parent width.  alpha = 0 is ot_fuse;
    alpha = 1 reproduces the ensemble as a function.
    """
    return match_pair(net_a, net_b, align(net_a, net_b, cfg, data)).fuse(cfg.lam)


def ot_fuse(
    net_a: DenseNetwork,
    net_b: DenseNetwork,
    cfg: FusionConfig,
    data: Optional[np.ndarray] = None,
) -> DenseNetwork:
    """Full fusion into B's shape: W_c = (1-lam) W_b + lam K W_a K per layer.

    This is partial fusion at alpha = 0, where every neuron is fully matched
    and none is split or isolated.
    """
    return partial_fuse(net_a, net_b, replace(cfg, alpha=0.0), data)
