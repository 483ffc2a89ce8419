"""partfuse: merge, partially fuse, and generally prune dense feedforward networks.

Partial fusion matches only the most similar neurons of two networks via
partial optimal transport and keeps the rest isolated, interpolating between
weight aggregation and a full ensemble; generalized pruning compresses an
ensemble (or single network) by sandwiching each weight matrix between a
pair of transport kernels.
"""

from .analysis import (
    ParamReport,
    RunRecord,
    SimilarityReport,
    count_params,
    similarity_stats,
    tradeoff_sweep,
)
from .clustering import assignment_to_kernels, stochastic_ward
from .data import load_idx, split_rows, synthetic_blobs
from .fusion import (
    AlignMethod,
    AlignResult,
    FeatureKind,
    FusionConfig,
    MatchPlan,
    align,
    assemble_partial_layer,
    features_activation,
    features_weight,
    fixed_point_align,
    greedy_align,
    match_pair,
    ot_fuse,
    partial_fuse,
)
from .genprune import (
    PruneMethod,
    PruneSpec,
    apply_generalized_pruning,
    cluster_prune,
    prune,
    prune_with_postprocess,
    unstructured_prune,
)
from .netcore import (
    ActivationKind,
    DenseNetwork,
    LabeledDataset,
    activations,
    evaluate_accuracy,
    forward,
    load,
    make_ensemble,
    save,
)
from .train import TrainConfig, fine_tune, train_mlp
from .transport import (
    Coupling,
    DiscreteMeasure,
    KernelPair,
    cost_matrix,
    coupling_to_kernels,
    restrict_normalize_partial,
    solve_ot,
    solve_partial_ot,
)

__version__ = "0.1.0"
