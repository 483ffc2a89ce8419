"""The benchmark tracer wraps partfuse functions by name; keep them reachable.

perfbench/tracer.py lists in LAYERS the public functions it records and in
HOOKS the arguments and results it reads from some of them.  A rename here
would break the traced benchmark silently, so the contract is checked in the
main suite.  The tracer is only loaded, never installed.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import partfuse as pf
from partfuse import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions(tracer, span):
    module_name, names = tracer.LAYERS[span]
    module = importlib.import_module(f"partfuse.{module_name}")
    return [getattr(module, name) for name in names]


def test_every_layer_function_exists(tracer):
    for span, (module_name, names) in tracer.LAYERS.items():
        module = importlib.import_module(f"partfuse.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{span}: partfuse.{module_name}.{name}"


def test_hooked_functions_keep_their_parameter_names(tracer):
    for span, hook in tracer.HOOKS.items():
        source = inspect.getsource(hook)
        required = set(re.findall(r'args\["(\w+)"\]', source))
        optional = set(re.findall(r'args\.get\("(\w+)"\)', source))
        functions = _functions(tracer, span)
        params = [set(inspect.signature(fn).parameters) for fn in functions]
        for fn, names in zip(functions, params):
            assert required <= names, f"{span}: {fn.__name__} lacks {required - names}"
        for name in optional:
            assert any(name in names for names in params), f"{span}: no function takes {name}"


def test_hooked_results_keep_their_shape():
    mu = pf.DiscreteMeasure.uniform(3)
    cost = np.arange(9.0).reshape(3, 3)
    for coupling in (pf.solve_ot(mu, mu, cost), pf.solve_partial_ot(mu, mu, cost, alpha=0.5)):
        assert coupling.matrix.shape == (3, 3)
    plan = pf.fusion.build_match_plan(pf.solve_partial_ot(mu, mu, cost, alpha=0.5))[0]
    assert isinstance(plan.split_directives, tuple)


def _coupling():
    return pf.Coupling(np.eye(2) / 2, pf.DiscreteMeasure.uniform(2), pf.DiscreteMeasure.uniform(2))


# Every class that holds arrays compares and hashes by identity: the
# generated field-wise `==` would compare arrays and raise.  Each factory
# builds a new instance with the same content on every call.
ARRAY_HOLDERS = {
    "DiscreteMeasure": lambda: pf.DiscreteMeasure(np.full(3, 1 / 3)),
    "Coupling": _coupling,
    "KernelPair": lambda: pf.KernelPair(np.eye(2), np.eye(2)),
    "DenseNetwork": lambda: pf.DenseNetwork([np.eye(2)] * 2, [np.zeros(2)] * 2, pf.ActivationKind.RELU),
    "LabeledDataset": lambda: pf.LabeledDataset(np.zeros((2, 3)), np.array([0, 1])),
    "MatchPlan": lambda: pf.MatchPlan.boundary(3),
    "SimilarityReport": lambda: pf.SimilarityReport(1, {"nn_within_a": np.zeros(2)}, {}, {}),
    "AlignResult": lambda: pf.AlignResult((_coupling(),), 1),
    "MatchedPair": lambda: pf.fusion.MatchedPair(
        ARRAY_HOLDERS["DenseNetwork"](), ARRAY_HOLDERS["DenseNetwork"](), (pf.MatchPlan.boundary(2),)
    ),
}


@pytest.mark.parametrize("name", list(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# The names `import partfuse` exports besides its modules: adding or removing
# one edits this set on purpose.
PUBLIC_NAMES = {
    "ActivationKind", "AlignMethod", "AlignResult", "Coupling", "DenseNetwork", "DiscreteMeasure",
    "FeatureKind", "FusionConfig", "KernelPair", "LabeledDataset", "MatchPlan", "ParamReport",
    "PruneMethod", "PruneSpec", "RunRecord", "SimilarityReport", "TrainConfig",
    "activations", "align", "apply_generalized_pruning", "assemble_partial_layer",
    "assignment_to_kernels", "cluster_prune", "cost_matrix", "count_params", "coupling_to_kernels",
    "evaluate_accuracy", "features_activation", "features_weight", "fine_tune", "fixed_point_align",
    "forward", "greedy_align", "load", "load_idx", "make_ensemble", "match_pair", "ot_fuse",
    "partial_fuse", "prune", "prune_with_postprocess", "restrict_normalize_partial", "save",
    "similarity_stats", "solve_ot", "solve_partial_ot", "split_rows", "stochastic_ward",
    "synthetic_blobs", "tradeoff_sweep", "train_mlp", "unstructured_prune",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(pf).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES


# Every option below has a caller outside the tests (the CLI or the library's
# own pipeline).  A new option changes these lists on purpose, as does a new
# command-line flag in CLI_OPTIONS.
CONFIG_FIELDS = {
    pf.FusionConfig: ("lam", "alpha", "features", "align"),
    pf.PruneSpec: ("target_widths", "method", "lam"),
    pf.TrainConfig: ("epochs", "seed"),
}
PARAMETERS = {
    pf.train.init_network: ("dims", "seed"),
    pf.split_rows: ("data", "special_digit", "seed"),
    pf.activations: ("net", "batch"),
    pf.features_activation: ("net", "data"),
    pf.similarity_stats: ("net_a", "net_b", "data"),
    pf.load_idx: ("images_path", "labels_path", "rows"),
    pf.stochastic_ward: ("points", "masses", "m", "restarts", "seed"),
    pf.assignment_to_kernels: ("labels", "mu"),
    pf.cluster_prune: ("net", "spec", "data", "restarts", "seed"),
    pf.prune_with_postprocess: ("net", "spec"),
    pf.analysis.run_cell: (
        "net_a", "net_b", "method", "alpha", "lam", "feature_data", "seed",
        "cluster_restarts", "alignment",
    ),
    pf.tradeoff_sweep: (
        "net_a", "net_b", "alpha_grid", "lambda_grid", "methods", "eval_data",
        "feature_data", "seed", "cfg_base", "cluster_restarts", "measure_time",
    ),
}


# Each subcommand's option strings in parser order (--help included).
CLI_OPTIONS = {
    "train": (
        "-h", "--help", "--data-dir", "--out", "--pairs", "--split-digit", "--width", "--depth",
        "--epochs", "--seed-base",
    ),
    "fuse": (
        "-h", "--help", "--data-dir", "--timing", "--cluster-restarts", "--manifest", "--pair",
        "--alpha", "--lambda", "--features", "--align", "--method", "--out", "--records",
        "--export-couplings",
    ),
    "prune": (
        "-h", "--help", "--data-dir", "--cluster-restarts", "--net", "--method", "--factor",
        "--widths", "--seed", "--out",
    ),
    "sweep": (
        "-h", "--help", "--data-dir", "--timing", "--cluster-restarts", "--manifest", "--alphas",
        "--lambdas", "--methods", "--features", "--align", "--jobs", "--out",
    ),
    "stats": ("-h", "--help", "--data-dir", "--net-a", "--net-b", "--sample-count", "--out"),
}


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: tuple(opt for action in sub._actions for opt in action.option_strings)
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS


@pytest.mark.parametrize("config", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    assert tuple(f.name for f in dataclasses.fields(config)) == CONFIG_FIELDS[config]


@pytest.mark.parametrize("fn", list(PARAMETERS), ids=lambda f: f.__name__)
def test_option_parameters_are_pinned(fn):
    assert tuple(inspect.signature(fn).parameters) == PARAMETERS[fn]
