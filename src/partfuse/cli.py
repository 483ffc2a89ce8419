"""Command-line entry point: train, fuse, prune, sweep, stats.

Every command is reproducible byte-for-byte for fixed flags, seeds and
BLAS thread count (CI and perfbench pin one thread); wall-clock
measurement is therefore off unless --timing is passed.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure
or a computation that could not finish (a worker process died, or memory
ran out): the inputs were valid, but no result came of them.
"""

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

from . import analysis, data as datamod, fusion as fus, genprune as gp, netcore, train as trainmod
from .analysis import CSV_HEADER
from .netcore import PfnnFormatError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _entries(text: str, sep: str, flag: str, parse=str) -> list:
    """The entries of a list flag, each parsed; a blank entry (an empty list too) is a usage error."""
    entries = text.split(sep)
    if not all(p.strip() for p in entries):
        raise UsageError(f"{flag} has a blank entry in {text!r}")
    return [parse(p) for p in entries]


def _count(least: int):
    """An argparse type for integers of at least `least`."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a count of at least {least}, got {value}")
        return value

    return count


def _kept_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1], got {text}")
    return value


def _load_split(args, split: str, rows=None):
    """The first `rows` samples (all when None) of the "train" or "test" split of the MNIST directory.

    Only that split's files are opened; they are checked to the end whatever `rows` is.
    """
    paths = datamod.find_mnist(Path(args.data_dir) if args.data_dir else None)
    if paths is None:
        raise FileNotFoundError(
            "MNIST IDX files not found; point --data-dir or the "
            f"{datamod.DATA_DIR_ENV} environment variable at a directory "
            "holding train-images-idx3-ubyte etc."
        )
    return datamod.load_idx(paths[f"{split}_images"], paths[f"{split}_labels"], rows)


def _feature_inputs(args):
    """The training inputs that activation features and cluster pruning read: the first ACTIVATION_SAMPLES."""
    return _load_split(args, "train", fus.ACTIVATION_SAMPLES).inputs


def _reads_features(method: str, features: str) -> bool:
    """Whether a fuse or sweep cell of `method` reads training-split inputs."""
    return method == "cluster" or (method == "partial-ot" and features == "activations")


def _manifest_path_pairs(manifest: Path):
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise datamod.DataFormatError(f"{manifest}: not UTF-8 text ({exc})") from None
    pairs = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        path, _, role = line.rpartition(" ")
        if not path or "\0" in path or role[:1] not in ("A", "B") or not role[1:].isdecimal():
            raise datamod.DataFormatError(
                f"{manifest}, line {number}: expected '<checkpoint> A<k>' or "
                f"'<checkpoint> B<k>', got {line!r}"
            )
        idx = int(role[1:])
        entry = pairs.setdefault(idx, {})
        if role[0] in entry:
            raise datamod.DataFormatError(
                f"{manifest}, lines {entry[role[0]][0]} and {number}: both give {role[0]}{idx}"
            )
        entry[role[0]] = (number, manifest.parent / path)
    out = []
    for idx in sorted(pairs):
        entry = pairs[idx]
        if "A" not in entry or "B" not in entry:
            missing = "B" if "A" in entry else "A"
            raise datamod.DataFormatError(f"{manifest}: pair {idx} has no {missing}{idx} line")
        out.append((idx, entry["A"][1], entry["B"][1]))
    return out


def _fusion_config(args, lam: float, alpha) -> fus.FusionConfig:
    return fus.FusionConfig(
        lam=lam,
        alpha=alpha,
        features=fus.FeatureKind(args.features),
        align=fus.AlignMethod(args.align),
    )


def _balanced_shares(sizes, workers: int) -> list:
    """The indices of sizes dealt into `workers` lists: largest first, each to
    the list with the least total (the earliest on ties)."""
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for t in sorted(range(len(sizes)), key=lambda t: -sizes[t]):
        c = loads.index(min(loads))
        shares[c].append(t)
        loads[c] += sizes[t]
    return shares


def _spread(run, sizes, limit: int) -> list:
    """[run(t) for t in range(len(sizes))] on at most `limit` workers: the
    tasks dealt by size (_balanced_shares) to netcore.worker_map's workers.

    Each worker's products take as many BLAS threads as a serial run's, so
    only as many workers as leave every BLAS thread a CPU of its own.
    """
    workers = max(1, min(limit, len(sizes), netcore.available_cpus() // netcore.blas_threads()))
    shares = _balanced_shares(sizes, workers)
    done = netcore.worker_map(lambda share: [run(t) for t in share], shares)
    by_task = {t: result for share, results in zip(shares, done) for t, result in zip(share, results)}
    return [by_task[t] for t in range(len(sizes))]


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    # a dangling link exists too: it is no directory
    existing = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
    if not existing.is_dir():  # checked before any work; --out is made only after training
        raise NotADirectoryError(f"--out {out_dir}: {existing} is not a directory")
    train = _load_split(args, "train")
    if args.split_digit is not None and args.split_digit not in train.labels:
        raise UsageError(f"--split-digit {args.split_digit}: class not present in the training labels")
    dims = [train.inputs.shape[1], *([args.width] * args.depth), int(train.labels.max()) + 1]
    # one (checkpoint name, manifest role, seed, training rows) per network;
    # None rows train on the whole split
    nets = []
    for k in range(args.pairs):
        rows = (None, None)
        if args.split_digit is not None:
            rows = datamod.split_rows(train, args.split_digit, seed=args.seed_base + k)
        for side, seed, side_rows in zip("AB", (args.seed_base + 2 * k, args.seed_base + 2 * k + 1), rows):
            nets.append((f"pair{k}_{side}.pfnn", f"{side}{k}", seed, side_rows))

    def train_one(t):
        # every worker reads the one split: each minibatch gathers its rows
        _, _, seed, rows = nets[t]
        return trainmod.train_mlp(dims, train, trainmod.TrainConfig(epochs=args.epochs, seed=seed), rows=rows)

    trained = _spread(train_one, [len(train) if rows is None else rows.size for *_, rows in nets], len(nets))
    outputs = {}
    for (name, _, _, _), net in zip(nets, trained):
        outputs[out_dir / name] = lambda path, net=net: netcore.save(net, path)
    manifest = "".join(f"{name} {role}\n" for name, role, _, _ in nets)
    outputs[out_dir / "manifest.txt"] = lambda path: Path(path).write_text(manifest)
    # made only once every network is trained, and removed again, deepest
    # first, while still empty when the publish fails
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _publish(outputs)
    except BaseException:
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    for target in outputs:
        print(f"wrote {target}")
    return 0


def _publish(outputs) -> None:
    """Write every output, then move each into place: the one way a command writes a file.

    outputs maps each target path to a function that writes a given path;
    it writes a temporary file beside the target, which os.replace then
    renames over the target. A failing write leaves no output, and every old
    target as it was; a directory target fails before anything is renamed.
    """
    temps = {}
    try:
        for target, write in outputs.items():
            if os.path.isdir(target):
                raise IsADirectoryError(f"{target} is a directory")
            temps[target] = temp = Path(f"{target}.{os.getpid()}.tmp")
            write(temp)
        for target, temp in temps.items():
            os.replace(temp, target)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def cmd_fuse(args) -> int:
    if args.export_couplings and args.method != "partial-ot":
        raise UsageError("--export-couplings applies to --method partial-ot only")
    named = [os.path.realpath(p) for p in (args.out, args.export_couplings, args.records) if p]
    if len(set(named)) < len(named):
        raise UsageError("--out, --export-couplings and --records must name different files")
    pairs = _manifest_path_pairs(Path(args.manifest))
    chosen = [p for p in pairs if p[0] == args.pair]
    if not chosen:
        raise UsageError(f"pair {args.pair} not found in manifest")
    idx, path_a, path_b = chosen[0]
    net_a, net_b = netcore.load(path_a), netcore.load(path_b)
    alpha = _entries(args.alpha, ",", "--alpha", float)
    # every method's --lambda and --alpha are checked before any data is read;
    # the aligner flags are partial-ot's
    partial = args.method == "partial-ot"
    cfg = _fusion_config(args, args.lam, alpha) if partial else fus.FusionConfig(args.lam, alpha)
    cfg.alphas(net_a.num_hidden)
    reads_features = _reads_features(args.method, args.features)
    feature_data = eval_data = None
    if args.data_dir or datamod.data_dir():
        try:
            eval_data = _load_split(args, "test")
            if reads_features:
                feature_data = _feature_inputs(args)
        except FileNotFoundError:
            if args.data_dir:
                raise  # only a directory from the environment may lack MNIST
    if reads_features and feature_data is None:
        raise UsageError(f"method {args.method}/{args.features} needs data for features")
    start = time.perf_counter() if args.timing else None
    alignment = None  # aligned here so --export-couplings writes what was fused
    if partial:
        alignment = fus.align(net_a, net_b, cfg, data=feature_data)
    net = analysis.run_cell(
        net_a,
        net_b,
        args.method,
        alpha,
        args.lam,
        feature_data=feature_data,
        seed=idx,
        cluster_restarts=args.cluster_restarts,
        # a temporary: the split networks are freed before evaluation
        alignment=fus.match_pair(net_a, net_b, alignment) if alignment else None,
    )
    record = analysis.cell_record(net, args.method, alpha, args.lam, idx, eval_data, start)
    outputs = {}
    if args.export_couplings:
        lines = ["layer,row,col,mass"]
        for layer, coupling in enumerate(alignment.couplings, start=1):
            mat = coupling.matrix
            for i, j in zip(*mat.nonzero()):
                lines.append(f"{layer},{i},{j},{mat[i, j]:.17g}")
        text = "\n".join(lines) + "\n"
        outputs[args.export_couplings] = lambda path: Path(path).write_text(text)
    outputs[args.out] = lambda path: netcore.save(net, path)
    # opened before the publish, so a bad records path fails first; the row goes
    # last, and a records file this command created is removed if it fails
    new_records = args.records and not os.path.lexists(args.records)
    with open(args.records, "a") if args.records else contextlib.nullcontext() as records:
        try:
            _publish(outputs)
            if args.export_couplings:
                print(f"wrote {args.export_couplings}")
            print(f"wrote {args.out} widths={net.hidden_dims}")
            if records:
                records.write(("" if records.tell() else CSV_HEADER + "\n") + record.csv_row() + "\n")
        except BaseException:
            if new_records:
                os.remove(args.records)
            raise
    print(record.csv_row())
    return 0


def cmd_prune(args) -> int:
    net = netcore.load(args.net)
    if args.widths is not None:  # "" is an empty list, not the --factor default
        widths = tuple(_entries(args.widths, ",", "--widths", int))
    else:
        widths = tuple(max(1, round(args.factor * n)) for n in net.hidden_dims)
    spec = gp.PruneSpec(widths, gp.PruneMethod(args.method))
    spec.check_against(net)  # before the read
    feature_data = None
    if spec.method is gp.PruneMethod.CLUSTER:
        feature_data = _feature_inputs(args)
    pruned = gp.prune(net, spec, feature_data, restarts=args.cluster_restarts, seed=args.seed)
    _publish({args.out: lambda path: netcore.save(pruned, path)})
    print(f"wrote {args.out} widths={pruned.hidden_dims}")
    return 0


def cmd_sweep(args) -> int:
    alphas = _entries(args.alphas, ";", "--alphas", lambda a: _entries(a, ",", "--alphas", float))
    lambdas = _entries(args.lambdas, ",", "--lambdas", float)
    methods = _entries(args.methods, ",", "--methods")
    # the whole grid is checked before the first cell; only an alpha list's
    # length depends on the pair, so a mismatch there stays an error row
    for method in methods:
        if method != "partial-ot":
            gp.PruneMethod(method)
    cfg_base = _fusion_config(args, 0.5, 0.0) if "partial-ot" in methods else None
    for alpha in alphas:
        fus.FusionConfig(alpha=alpha)
    for lam in lambdas:
        fus.FusionConfig(lam=lam)
    pairs = _manifest_path_pairs(Path(args.manifest))
    test = _load_split(args, "test")
    reads_features = any(_reads_features(m, args.features) for m in methods)
    feature_data = _feature_inputs(args) if reads_features else None

    def run_pair(t):
        idx, path_a, path_b = pairs[t]
        net_a, net_b = netcore.load(path_a), netcore.load(path_b)
        return analysis.tradeoff_sweep(
            net_a,
            net_b,
            alphas,
            lambdas,
            methods,
            test,
            feature_data=feature_data,
            seed=idx,
            cfg_base=cfg_base,
            cluster_restarts=args.cluster_restarts,
            measure_time=args.timing,
        )

    per_pair = _spread(run_pair, [1] * len(pairs), args.jobs)
    lines = [CSV_HEADER]
    if per_pair:
        cells = len(per_pair[0])
        # grid-major, seed (pair) innermost, independent of completion order
        for i in range(cells):
            for records in per_pair:
                lines.append(records[i].csv_row())
    return _write_report(args.out, lines)


def _stat_label(key: str) -> str:
    """"network,statistic" of a SimilarityReport key <statistic>_<side>: sides a and ab are A."""
    stat, side = key.rsplit("_", 1)
    return f"{side[0].upper()},{stat}"


def cmd_stats(args) -> int:
    net_a, net_b = netcore.load(args.net_a), netcore.load(args.net_b)
    a, b = ((net.input_dim, net.num_hidden) for net in (net_a, net_b))
    if a != b:  # checked before the read: the statistics compare layer by layer
        raise UsageError(f"networks of (input width, depth) {a} and {b} cannot be compared")
    sample = _load_split(args, "train", args.sample_count).inputs
    lines = ["block,layer,network,statistic,neuron,value"]
    reports = analysis.similarity_stats(net_a, net_b, sample)
    for rep in reports:
        for key, values in rep.values.items():
            netcore.finite(values, f"layer {rep.layer} neuron distances")
            for neuron, value in enumerate(values):
                lines.append(f"all,{rep.layer},{_stat_label(key)},{neuron},{value:.9g}")
    for block in ("conditional80", "difference"):
        for rep in reports:
            for key, value in getattr(rep, block).items():
                lines.append(f"{block},{rep.layer},{_stat_label(key)},,{value:.9g}")
    return _write_report(args.out, lines)


def _write_report(out, lines) -> int:
    """Publish the lines as the file `out`, or write them to stdout when `out` is None."""
    text = "\n".join(lines) + "\n"
    if out:
        _publish({out: lambda path: Path(path).write_text(text)})
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="partfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, timing=False, restarts=False):
        p.add_argument("--data-dir", default=None, help="directory with MNIST IDX files")
        if timing:
            p.add_argument("--timing", action="store_true", help="measure wall time (breaks byte reproducibility)")
        if restarts:
            p.add_argument("--cluster-restarts", type=_count(1), default=1000)

    p_train = sub.add_parser("train", help="train seeded pairs of MLPs")
    add_common(p_train)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--pairs", type=_count(1), default=5)
    p_train.add_argument("--split-digit", type=_count(0), default=None, help="heterogeneous split; omit to train on the full data")
    p_train.add_argument("--width", type=_count(1), default=100)
    p_train.add_argument("--depth", type=_count(1), default=3)
    p_train.add_argument("--epochs", type=_count(0), default=50)
    p_train.add_argument("--seed-base", type=_count(0), default=0)

    p_fuse = sub.add_parser("fuse", help="fuse or ensemble-prune one checkpoint pair")
    add_common(p_fuse, timing=True, restarts=True)
    p_fuse.add_argument("--manifest", required=True)
    p_fuse.add_argument("--pair", type=int, default=0)
    p_fuse.add_argument("--alpha", default="0", help="scalar or comma list per layer")
    p_fuse.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_fuse.add_argument("--features", choices=["weights", "activations"], default="weights")
    p_fuse.add_argument("--align", choices=["greedy", "fixed-point"], default="fixed-point")
    p_fuse.add_argument("--method", choices=["partial-ot", "cluster", "prune", "prune-post"], default="partial-ot")
    p_fuse.add_argument("--out", required=True)
    p_fuse.add_argument("--records", default=None, help="CSV file to append the run record to")
    p_fuse.add_argument("--export-couplings", default=None, help="CSV file for the per-layer transport plans")

    p_prune = sub.add_parser("prune", help="generalized pruning of a single network")
    add_common(p_prune, restarts=True)
    p_prune.add_argument("--net", required=True)
    p_prune.add_argument("--method", choices=["cluster", "prune", "prune-post"], default="prune")
    p_prune.add_argument("--factor", type=_kept_fraction, default=0.5, help="kept fraction of each hidden layer")
    p_prune.add_argument("--widths", default=None, help="explicit comma list of target widths")
    p_prune.add_argument("--seed", type=_count(0), default=0)
    p_prune.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="full grid over methods, alphas, lambdas, pairs")
    add_common(p_sweep, timing=True, restarts=True)
    p_sweep.add_argument("--manifest", required=True)
    p_sweep.add_argument("--alphas", default="0;0.2;0.4;0.5;0.6;0.8;1", help="semicolon-separated alpha entries (each scalar or comma list)")
    p_sweep.add_argument("--lambdas", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p_sweep.add_argument("--methods", default="partial-ot")
    p_sweep.add_argument("--features", choices=["weights", "activations"], default="weights")
    p_sweep.add_argument("--align", choices=["greedy", "fixed-point"], default="fixed-point")
    p_sweep.add_argument("--jobs", type=_count(1), default=1)
    p_sweep.add_argument("--out", default=None)

    p_stats = sub.add_parser("stats", help="neuron similarity report for two checkpoints")
    add_common(p_stats)
    p_stats.add_argument("--net-a", required=True)
    p_stats.add_argument("--net-b", required=True)
    p_stats.add_argument("--sample-count", type=_count(1), default=1000, help="read the first N training rows")
    p_stats.add_argument("--out", default=None)

    return parser


_HANDLERS = {
    "train": cmd_train,
    "fuse": cmd_fuse,
    "prune": cmd_prune,
    "sweep": cmd_sweep,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        if isinstance(exc, (PfnnFormatError, datamod.DataFormatError)):
            print(f"data error: {exc}", file=sys.stderr)
            return 2
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # unreadable or missing paths, directories given as files
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (netcore.NumericalFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (netcore.WorkerDied, MemoryError) as exc:
        print(f"could not finish: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
