import collections
import contextlib
import multiprocessing
import struct
import threading

import numpy as np
import pytest

from partfuse import ActivationKind, DenseNetwork, netcore
from partfuse.fusion import MatchPlan
from partfuse.transport import KernelPair
from partfuse.train import init_network


def rand_net(dims, activation=ActivationKind.GELU, seed=0, bias_scale=0.1):
    """Random network with generic (nonzero) biases."""
    net = init_network(dims, seed=seed)  # GELU; its uniform draws ignore the activation
    rng = np.random.default_rng(seed + 977)
    biases = tuple(bias_scale * rng.standard_normal(b.shape) for b in net.biases)
    return DenseNetwork(net.weights, biases, activation)


def random_plan(rng, n_a, n_b):
    """Plan with random partitions and kernels derived from a random coupling."""
    ia = np.sort(rng.choice(n_a, size=int(rng.integers(0, n_a - 1)), replace=False))
    ib = np.sort(rng.choice(n_b, size=int(rng.integers(0, n_b - 1)), replace=False))
    fa = np.setdiff1d(np.arange(n_a), ia)
    fb = np.setdiff1d(np.arange(n_b), ib)
    raw = rng.random((len(fa), len(fb))) + 0.05
    kernels = KernelPair(
        k_ab=(raw / raw.sum(axis=1)[:, None]).T, k_ba=raw / raw.sum(axis=0)[None, :]
    )
    return MatchPlan(isolated_a=ia, fused_a=fa, isolated_b=ib, fused_b=fb, kernels=kernels)


def pfnn_header(dims, version=1, activation=0, layers=None):
    """The PFNN header of a dimension chain; layers defaults to len(dims) - 2."""
    layers = len(dims) - 2 if layers is None else layers
    head = b"PFNN" + struct.pack("<IBI", version, activation, layers)
    return head + struct.pack(f"<{len(dims)}I", *dims)


# a corrupt header may declare more than any machine holds: weights[0] of
# these dims is 8 * (2**32 - 1)**2 bytes, above 2**63
HUGE_PFNN_DIMS = (2**32 - 1, 2**32 - 1, 10)
# 5 * 2**62 image bytes: above 2**63, and 2**62 once wrapped to int64
HUGE_IDX_DIMS = (5 * 2**20, 2**21, 2**21)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@contextlib.contextmanager
def idle_thread():
    """A second thread stays alive, so netcore.worker_map may not fork."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# route -> a context in which netcore.worker_map takes it
ROUTES = {"fork": contextlib.nullcontext, "threads": idle_thread}


@pytest.fixture
def started(monkeypatch):
    """Workers netcore.worker_map starts beside the caller, by route."""
    started = collections.Counter()

    class RecordingPool(netcore.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started["threads"] += max_workers
            super().__init__(max_workers, **kwargs)

    fork = multiprocessing.context.ForkProcess.start

    def recording_fork(process):
        started["fork"] += 1
        fork(process)

    monkeypatch.setattr(netcore, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording_fork)
    return started
