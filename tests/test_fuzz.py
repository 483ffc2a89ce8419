"""Fuzzed command lines: every input exits 0 with valid output or with its documented code.

Each example calls `cli.main` in process on tiny networks and IDX files.  The
exit codes are the CLI's (1 usage error, 2 data error); an exception out of
`cli.main`, which the command line would print as a traceback, fails the
test.  The profile is derandomized with a fixed example count, so every run
tries the same inputs.
"""

import contextlib
import gzip
import io
import shutil
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import partfuse as pf  # noqa: E402
from partfuse import cli  # noqa: E402
from partfuse.data import (  # noqa: E402
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    write_idx_images,
    write_idx_labels,
)

from conftest import pfnn_header, rand_net  # noqa: E402

settings.register_profile(
    "partfuse-fuzz", derandomize=True, max_examples=60, deadline=None, database=None
)
FUZZ = settings.get_profile("partfuse-fuzz")

PREFIX = {1: "usage error: ", 2: "data error: "}
U32 = st.integers(0, 2**32 - 1)
NUMBERS = st.one_of(
    st.text(alphabet="0123456789.,;-+eEinfa_ ", max_size=10),
    st.floats().map(repr),
    st.lists(st.sampled_from(["0", "0.2", "0.5", "1", "1e-12", "1.5", "-0", "nan"]), max_size=3).map(
        ",".join
    ),
    st.lists(st.integers(-1, 5).map(str), max_size=3).map(",".join),
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Two 6-4-3-3 networks, their manifest, and 2x3-pixel IDX splits of 3 classes."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    data = root / "data"
    data.mkdir()
    for prefix, n in (("train", 30), ("t10k", 12)):
        images = rng.integers(0, 256, size=(n, 2, 3), dtype=np.uint8)
        write_idx_images(data / f"{prefix}-images-idx3-ubyte", images)
        write_idx_labels(data / f"{prefix}-labels-idx1-ubyte", np.arange(n) % 3)
    for seed, side in enumerate("AB"):
        pf.save(rand_net((6, 4, 3, 3), seed=seed), root / f"net_{side}.pfnn")
    (root / "manifest.txt").write_text("net_A.pfnn A0\nnet_B.pfnn B0\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("PARTFUSE_DATA_DIR", raising=False)
        yield root


def call(argv, codes):
    """Run the CLI; the exit code must be in `codes`, with a one-line error message."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in codes, (argv, err.getvalue())
    if code:
        assert err.getvalue().startswith(PREFIX[code]), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    return code


def prune_checkpoint(work, blob: bytes):
    net, out = work / "fuzzed.pfnn", work / "pruned.pfnn"
    net.write_bytes(blob)
    if call(["prune", "--net", net, "--method", "prune", "--out", out], (0, 2)) == 0:
        assert pf.load(out).num_hidden == pf.load(net).num_hidden


@FUZZ
@given(st.data())
def test_corrupted_checkpoint(work, data):
    blob = bytearray((work / "net_A.pfnn").read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":
        header_bits = st.integers(0, 8 * 37 - 1)  # magic to the dims of a 2-hidden-layer net
        bits = st.lists(header_bits | st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)
        for bit in data.draw(bits):
            blob[bit // 8] ^= 1 << (bit % 8)
    else:
        blob += data.draw(st.binary(min_size=1, max_size=64))
    prune_checkpoint(work, bytes(blob))


@FUZZ
@given(
    version=st.just(1) | U32,
    activation=st.integers(0, 3) | st.integers(0, 255),
    layers=st.integers(0, 3) | U32,
    dims=st.lists(st.integers(0, 5) | U32, max_size=5),
    tail=st.binary(max_size=300),
)
def test_random_checkpoint_header(work, version, activation, layers, dims, tail):
    prune_checkpoint(work, pfnn_header(dims, version, activation, layers) + tail)


@FUZZ
@given(st.data())
def test_random_idx_file(work, data):
    split = work / "split"
    shutil.rmtree(split, ignore_errors=True)
    shutil.copytree(work / "data", split)
    which = data.draw(st.sampled_from(["images", "labels"]))
    ndim = 3 if which == "images" else 1
    magic = data.draw(st.just(IDX_IMAGES_MAGIC if ndim == 3 else IDX_LABELS_MAGIC) | U32)
    if data.draw(st.booleans()):  # a payload of the declared size, often 30 samples as in the pair
        count = data.draw(st.just(30) | st.integers(1, 4))
        dims = [count, *data.draw(st.lists(st.integers(1, 4), min_size=ndim - 1, max_size=ndim - 1))]
        size = int(np.prod(dims))
        payload = data.draw(st.binary(min_size=size, max_size=size))
    else:
        dims = data.draw(st.lists(st.integers(0, 40) | U32, min_size=ndim, max_size=ndim))
        payload = data.draw(st.binary(max_size=200))
    blob = struct.pack(f">I{ndim}I", magic, *dims) + payload
    path = split / f"train-{which}-idx{ndim}-ubyte"
    if data.draw(st.booleans()):
        path.unlink()
        path = path.with_name(path.name + ".gz")
        blob = gzip.compress(blob)
    path.write_bytes(blob)
    out = work / "trained"
    argv = ["train", "--data-dir", split, "--out", out, "--pairs", "1", "--width", "2",
            "--depth", "1", "--epochs", "0"]
    if call(argv, (0, 2)) == 0:
        assert pf.load(out / "pair0_A.pfnn").num_hidden == 1


# an explicit alphabet: hypothesis builds its Unicode tables (seconds) for any other
MANIFEST_TEXT = st.text(alphabet="AB01-_ .\t\r\x00/\\xé\u2028\x85pfn", max_size=20)
MANIFEST_LINE = st.one_of(
    st.sampled_from(["net_A.pfnn A1", "net_B.pfnn B1", "net_B.pfnn A2"]),
    MANIFEST_TEXT,
    st.builds(
        "{} {}".format,
        st.sampled_from(["net_A.pfnn", "net_B.pfnn", "missing.pfnn", ".", "manifest.txt"]),
        st.sampled_from(["A0", "B0", "A1", "B1", "A", "Bx", "C0", "A-1"]) | MANIFEST_TEXT,
    ),
)


@FUZZ
@given(
    valid=st.booleans(),
    lines=st.lists(MANIFEST_LINE, max_size=4),
    prefix=st.just(b"") | st.binary(max_size=3),
)
def test_random_manifest(work, valid, lines, prefix):
    manifest, out = work / "fuzzed_manifest.txt", work / "fused.pfnn"
    if valid:  # pair 0 as it stands, then the fuzzed lines
        lines = ["net_A.pfnn A0", "net_B.pfnn B0", *lines]
    manifest.write_bytes(prefix + "\n".join(lines).encode())
    argv = ["fuse", "--manifest", manifest, "--align", "greedy", "--out", out]
    if call(argv, (0, 1, 2)) == 0:
        assert pf.load(out).num_hidden == 2


@FUZZ
@given(alpha=NUMBERS)
def test_random_fuse_alpha(work, alpha):
    out = work / "fused.pfnn"
    argv = ["fuse", "--manifest", work / "manifest.txt", "--align", "greedy", f"--alpha={alpha}",
            "--out", out]
    if call(argv, (0, 1)) == 0:
        assert pf.load(out).num_hidden == 2


@FUZZ
@given(alphas=NUMBERS, lambdas=NUMBERS)
def test_random_sweep_grid(work, alphas, lambdas):
    out = work / "sweep.csv"
    argv = ["sweep", "--data-dir", work / "data", "--manifest", work / "manifest.txt",
            "--align", "greedy", f"--alphas={alphas}", f"--lambdas={lambdas}", "--out", out]
    if call(argv, (0, 1)) == 0:
        header, *rows = out.read_text().splitlines()
        assert header == cli.CSV_HEADER
        assert all(len(row.split(",")) == 9 for row in rows)


@FUZZ
@given(widths=NUMBERS)
def test_random_prune_widths(work, widths):
    out = work / "pruned.pfnn"
    argv = ["prune", "--net", work / "net_A.pfnn", f"--widths={widths}", "--out", out]
    if call(argv, (0, 1)) == 0:  # no widths: half of each layer (4, 3)
        want = tuple(int(w) for w in widths.split(",")) if widths else (2, 2)
        assert pf.load(out).hidden_dims == want
