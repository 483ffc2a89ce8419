"""Dense feedforward networks: evaluation, ensembling, serialization.

Also the workers that every CPU-parallel step shares: worker_map runs the
networks of `train`, the pairs of `sweep` and the Ward restarts on forked
processes or threads, and thread_pool builds every thread pool, a sweep's
evaluation thread included.
"""

import functools
import os
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Callable, Iterator, List, Optional, Sequence

import numpy as np

_GELU_CUBIC = 0.044715
_GELU_SCALE = np.sqrt(2.0 / np.pi)

PFNN_MAGIC = b"PFNN"
PFNN_VERSION = 1


class ShapeError(ValueError):
    """Raised when array dimensions do not chain."""


class PfnnFormatError(ValueError):
    """Raised when a PFNN file cannot be parsed; names the bad field."""


class NumericalFailure(RuntimeError):
    """A training loss or a network's activations or logits became non-finite."""


class ActivationKind(Enum):
    GELU = 0
    RELU = 1
    IDENTITY = 2

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self is ActivationKind.RELU:
            return np.maximum(x, 0.0)
        if self is ActivationKind.IDENTITY:
            return x
        t = _gelu_tanh(x)
        t += 1.0
        return np.multiply(0.5 * x, t, out=t)

    def value_and_derivative(self, x: np.ndarray):
        """Both at once; the GELU path shares one tanh evaluation."""
        if self is ActivationKind.RELU:
            return np.maximum(x, 0.0), (x > 0.0).astype(np.float64)
        if self is ActivationKind.IDENTITY:
            return x, np.ones_like(x)
        t = _gelu_tanh(x)
        deriv = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_SCALE * (
            1.0 + 3.0 * _GELU_CUBIC * (x * x)
        )
        t += 1.0
        return np.multiply(0.5 * x, t, out=t), deriv


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(scale * (x + cubic * x**3)), the tanh approximation of GELU with
    the usual fixed constants, evaluated in that order into a new buffer."""
    t = np.multiply(x, x)
    t *= x
    t *= _GELU_CUBIC
    t += x
    t *= _GELU_SCALE
    return np.tanh(t, out=t)


def _as_f64(a, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class DenseNetwork:
    """An MLP built from its layers: weights[l] maps layer l to layer l + 1.

    weights[l] has shape (dims[l+1], dims[l]) for the dimension chain
    dims = (input_dim, *hidden_dims, output_dim), which is read off the
    weights; biases[l] matches the rows of weights[l].  The activation is
    applied after every layer except the last.  Instances are immutable:
    the arrays are marked read-only so they can be shared freely across
    threads.

    origins, when present, tags each hidden neuron of each layer with the
    parent it came from (0 = A, 1 = B) for ensembles built by
    make_ensemble.  It is not serialized.
    """

    weights: tuple
    biases: tuple
    activation: ActivationKind
    origins: Optional[tuple] = None

    def __post_init__(self):
        if len(self.weights) < 2 or len(self.biases) != len(self.weights):
            raise ShapeError("expected one bias per weight matrix and at least one hidden layer")
        ws, bs = [], []
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = _as_f64(w, f"weights[{l}]")
            b = _as_f64(b, f"biases[{l}]")
            if w.ndim != 2 or (ws and w.shape[1] != ws[-1].shape[0]):
                raise ShapeError(f"weights[{l}] has shape {w.shape}, which does not chain")
            if b.shape != w.shape[:1]:
                raise ShapeError(f"biases[{l}] has shape {b.shape}, expected ({w.shape[0]},)")
            w.flags.writeable = False
            b.flags.writeable = False
            ws.append(w)
            bs.append(b)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "biases", tuple(bs))
        if self.origins is not None:
            if len(self.origins) != self.num_hidden:
                raise ShapeError("origins must tag every hidden layer")
            object.__setattr__(
                self,
                "origins",
                tuple(np.asarray(o, dtype=np.int64) for o in self.origins),
            )

    @property
    def dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def hidden_dims(self) -> tuple:
        return tuple(w.shape[0] for w in self.weights[:-1])

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_hidden(self) -> int:
        return len(self.weights) - 1

    def __reduce__(self):
        # rebuilt through the constructor, so the arrays come back read-only
        return DenseNetwork, (self.weights, self.biases, self.activation, self.origins)

    def equals(self, other: "DenseNetwork") -> bool:
        """Bitwise equality of architecture and parameters (`==` compares identity)."""
        if self.dims != other.dims or self.activation is not other.activation:
            return False
        mine, theirs = self.weights + self.biases, other.weights + other.biases
        return all(np.array_equal(a, b) for a, b in zip(mine, theirs))


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = _as_f64(self.inputs, "inputs")
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or labels.ndim != 1 or inputs.shape[0] != labels.shape[0]:
            raise ShapeError("inputs must be N x d with one label per row")
        if inputs.shape[0] < 1:
            raise ShapeError("dataset is empty")
        if labels.min() < 0:
            raise ValueError("negative label")
        inputs.flags.writeable = False  # checked once here; evaluate_accuracy trusts them
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _check_batch(net: DenseNetwork, batch: np.ndarray) -> np.ndarray:
    batch = _as_f64(batch, "batch")
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ShapeError(f"batch has shape {batch.shape}, expected (N, {net.input_dim})")
    return batch


def _step(net: DenseNetwork, z: np.ndarray, l: int) -> np.ndarray:
    """Weight layer l's bias on its product z, in place (z is a new array),
    then the activation unless it is the output layer."""
    z += net.biases[l]
    return net.activation.apply(z) if l < net.num_hidden else z


def _propagate(net: DenseNetwork, h: np.ndarray) -> np.ndarray:
    """Every weight layer on a checked batch: the logits.

    Each product replaces the state below it before the bias and the
    activation build their temporaries, so that state is freed first.
    """
    for l, w in enumerate(net.weights):
        h = h @ w.T
        h = _step(net, h, l)
    return h


def finite(values: np.ndarray, what: str) -> np.ndarray:
    """The values, or NumericalFailure naming `what` when one is not finite."""
    if not np.isfinite(values).all():
        raise NumericalFailure(f"{what} are not finite")
    return values


def forward(net: DenseNetwork, batch: np.ndarray) -> np.ndarray:
    """Evaluate the network, returning an N x output_dim matrix of logits."""
    return _propagate(net, _check_batch(net, batch))


def activations(net: DenseNetwork, batch: np.ndarray) -> tuple:
    """Post-activation hidden states from one forward pass: entry l - 1 is hidden layer l's.

    Column i of an entry is neuron i's feature vector over the batch.  Raises
    NumericalFailure at the first layer whose activations are not finite.
    """
    states = [_check_batch(net, batch)]
    for l in range(net.num_hidden):
        h = _step(net, states[-1] @ net.weights[l].T, l)
        states.append(finite(h, f"layer {l + 1} activations"))
    return tuple(states[1:])


def check_compatible(net_a: DenseNetwork, net_b: DenseNetwork):
    """Two parents can be fused or ensembled only with equal boundary dims, depth and activation."""
    if (
        net_a.input_dim != net_b.input_dim
        or net_a.output_dim != net_b.output_dim
        or net_a.num_hidden != net_b.num_hidden
        or net_a.activation is not net_b.activation
    ):
        raise ShapeError("networks must share boundary dims, depth and activation")


def make_ensemble(net_a: DenseNetwork, net_b: DenseNetwork, lam: float) -> DenseNetwork:
    """Block-diagonal ensemble computing lam*f_A + (1-lam)*f_B.

    Hidden layers stack both parents untouched; the output layer carries the
    convex weighting.  Hidden neurons keep origin tags so importance-weighted
    pruning can tell the parents apart later.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    check_compatible(net_a, net_b)
    L = net_a.num_hidden
    weights, biases = [], []
    for l in range(L + 1):
        wa, wb = net_a.weights[l], net_b.weights[l]
        ba, bb = net_a.biases[l], net_b.biases[l]
        if l == 0:
            w = np.vstack([wa, wb])
            b = np.concatenate([ba, bb])
        elif l == L:
            w = np.hstack([lam * wa, (1.0 - lam) * wb])
            b = lam * ba + (1.0 - lam) * bb
        else:
            w = np.zeros((wa.shape[0] + wb.shape[0], wa.shape[1] + wb.shape[1]))
            w[: wa.shape[0], : wa.shape[1]] = wa
            w[wa.shape[0] :, wa.shape[1] :] = wb
            b = np.concatenate([ba, bb])
        weights.append(w)
        biases.append(b)
    origins = tuple(
        np.concatenate([np.zeros(na, dtype=np.int64), np.ones(nb, dtype=np.int64)])
        for na, nb in zip(net_a.hidden_dims, net_b.hidden_dims)
    )
    return DenseNetwork(weights, biases, net_a.activation, origins)


def remap_neurons(net: DenseNetwork, maps) -> DenseNetwork:
    """Rebuild hidden layers from old neurons by a {layer: (src, scale)} map.

    New neuron k of hidden `layer` (1-based) copies old neuron src[k]: its
    incoming weights and bias are multiplied by scale[k] (scale None leaves
    them as they are) and its outgoing weights are copied unchanged.
    Deleting, permuting and splitting neurons are all such maps.  Origin
    tags are not carried over.
    """
    weights, biases = list(net.weights), list(net.biases)
    for layer, (src, scale) in maps.items():
        w, b = weights[layer - 1][src, :], biases[layer - 1][src]
        if scale is not None:
            w, b = scale[:, None] * w, scale * b
        weights[layer - 1], biases[layer - 1] = w, b
        weights[layer] = weights[layer][:, src]
    return DenseNetwork(weights, biases, net.activation)


def evaluate_accuracy(net: DenseNetwork, dataset: LabeledDataset) -> float:
    """Fraction of samples whose argmax logit equals the label.

    Ties break toward the lowest class index (np.argmax convention).
    Raises NumericalFailure when a logit is not finite.
    """
    if dataset.inputs.shape[1] != net.input_dim:
        raise ShapeError("dataset feature dimension does not match the network")
    if dataset.labels.max() >= net.output_dim:
        raise ValueError("label outside the network's output range")
    logits = finite(_propagate(net, dataset.inputs), "logits")
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == dataset.labels))


def available_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> int:
    """Threads the BLAS library runs a matrix product on, counted as this
    process's threads that Python did not start: the caller and the pool
    BLAS starts when it loads (Linux; 1 where threads cannot be counted)."""
    try:
        return max(1, len(os.listdir("/proc/self/task")) - threading.active_count() + 1)
    except OSError:
        return 1


def thread_pool(workers: int) -> ThreadPoolExecutor:
    """A pool of `workers` threads that take the calling thread's
    floating-point error policy; leaving it as a context manager waits for them."""
    return ThreadPoolExecutor(workers, initializer=functools.partial(np.seterr, **np.geterr()))


def _send_result(conn, fn: Callable, item) -> None:
    """Child side of _fork_map: send fn(item), or the exception it raised."""
    try:
        result = fn(item)
    except Exception as exc:  # raised again in the parent
        result = exc
    conn.send(result)
    conn.close()


def _fork_map(fn: Callable, items: Sequence) -> List:
    """[fn(x) for x in items], the caller running items[0] and a forked child
    each later item.

    Each child pipes back its result, or the exception it raised, which is
    raised again here.  Every child is joined before this returns or raises.
    Fork only from a process with no other thread.
    """
    import multiprocessing  # only this route starts processes

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for item in items[1:]:
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_result, args=(send, fn, item))
            child.start()
            children.append((child, receive))
            send.close()
        results = [fn(items[0])]
        for child, receive in children:
            try:
                result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a worker process exited with code {child.exitcode}") from None
            if isinstance(result, BaseException):
                raise result
            results.append(result)
        return results
    except BaseException:
        for child, _ in children:  # a share failed: the others are of no use
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()


def worker_map(fn: Callable, shares: Sequence) -> List:
    """[fn(s) for s in shares], each share on a worker of its own, the caller
    running shares[0]; pass at most available_cpus() shares.

    This is the one place that decides how work runs in parallel.  One
    share runs in the caller alone.  On Linux, when the calling process
    runs no other thread, the other workers are forked child processes,
    which get round the GIL; each pipes back its result, which must pickle,
    and its memory is not in the caller's resident set.  Otherwise they are
    thread_pool threads, in which numpy releases the GIL inside the array
    work.  Either way every worker is done before this returns or raises,
    and an error a share raises, the earliest share's first, is raised
    again here.
    """
    if len(shares) == 1:
        return [fn(shares[0])]
    if sys.platform == "linux" and threading.active_count() == 1:
        return _fork_map(fn, shares)
    with thread_pool(len(shares) - 1) as pool:
        rest = pool.map(fn, shares[1:])
        return [fn(shares[0]), *rest]


# ---------------------------------------------------------------------------
# PFNN serialization: magic "PFNN", u32 version, u8 activation code,
# u32 L, u32 dims[L+2], then per layer the row-major f64 weights followed by
# the f64 biases.  All integers and floats are little-endian.


def save(net: DenseNetwork, path) -> None:
    with open(path, "wb") as fh:
        fh.write(PFNN_MAGIC + struct.pack("<IBI", PFNN_VERSION, net.activation.value, net.num_hidden))
        fh.write(struct.pack(f"<{len(net.dims)}I", *net.dims))
        for w, b in zip(net.weights, net.biases):
            fh.write(w.astype("<f8").tobytes(order="C"))
            fh.write(b.astype("<f8").tobytes())


# A corrupt header can declare any size: reads go in chunks of at most this
# many bytes, so no more is allocated than the file holds plus one chunk.
READ_CHUNK = 1 << 26


def read_chunks(fh: BinaryIO, count: int, what: str, error: type, size: int) -> Iterator[bytes]:
    """The next `count` bytes of fh in chunks of at most `size` bytes.

    Raises `error` (a format error) when the file ends first.
    """
    while count > 0:
        chunk = fh.read(min(count, size))
        if not chunk:
            raise error(f"truncated payload while reading {what}")
        yield chunk
        count -= len(chunk)


def read_exact(fh: BinaryIO, count: int, what: str, error: type) -> bytes:
    """Exactly `count` bytes of fh; `error` (a format error) when the file ends first."""
    return b"".join(read_chunks(fh, count, what, error, READ_CHUNK))


def _read_pfnn(fh: BinaryIO) -> DenseNetwork:
    read = functools.partial(read_exact, fh, error=PfnnFormatError)
    magic = read(4, "magic")
    if magic != PFNN_MAGIC:
        raise PfnnFormatError(f"bad magic {magic!r}, expected {PFNN_MAGIC!r}")
    (version,) = struct.unpack("<I", read(4, "version"))
    if version != PFNN_VERSION:
        raise PfnnFormatError(f"unsupported version {version}")
    (act_code,) = struct.unpack("<B", read(1, "activation"))
    try:
        act = ActivationKind(act_code)
    except ValueError:
        raise PfnnFormatError(f"unknown activation code {act_code}") from None
    (L,) = struct.unpack("<I", read(4, "hidden layer count"))
    if L < 1:
        raise PfnnFormatError(f"hidden layer count {L} must be >= 1")
    dims = struct.unpack(f"<{L + 2}I", read(4 * (L + 2), "dims"))
    if any(d < 1 for d in dims):
        raise PfnnFormatError(f"non-positive entry in dims {dims}")
    weights, biases = [], []
    for l in range(L + 1):
        rows, cols = dims[l + 1], dims[l]
        raw = read(8 * rows * cols, f"weights[{l}]")
        weights.append(np.frombuffer(raw, dtype="<f8").reshape(rows, cols))
        biases.append(np.frombuffer(read(8 * rows, f"biases[{l}]"), dtype="<f8"))
    if fh.read(1):
        raise PfnnFormatError("trailing data after final bias block")
    return DenseNetwork(weights, biases, act)


def load(path) -> DenseNetwork:
    """The network in a PFNN file; any corrupt file raises PfnnFormatError naming it."""
    with open(path, "rb") as fh:
        try:
            return _read_pfnn(fh)
        except ValueError as exc:  # a bad header, or bad content such as NaN weights
            raise PfnnFormatError(f"{path}: {exc}") from None
