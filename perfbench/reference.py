"""A fixed reference loop that measures how fast the host runs right now.

The host this benchmark was written on is shared, and its speed drifts:
the same fuse command took a median of 1.19 s in one half-minute and 0.82 s
three minutes later, in CPU time as well as in wall time, because other
tenants load the physical cores.  The end-to-end time metrics therefore
divide each command's wall time by the median time of passes of this loop
run just before and just after the command in the same process.  The
quotient is the command's time in "refs": one ref is one pass of the
workload's reference loop.

The loop does not touch partfuse, so no change to the program can speed it
up or slow it down.  Its parts mimic the kinds of work the program does: an
interpreted Python loop, many numpy calls on ~100-element arrays (the shape
of the transport solver's Dijkstra steps), single-threaded BLAS matrix
products (the shape of feature and evaluation passes) and vectorized
passes over the 19,900 pairs of 200 points (the shape of a Ward restart).
Each kind of work slows down by its own amount when the host is busy, so a
workload's reference loop is made of the parts that match its work.
"""

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_VEC_A = _RNG.random(101)
_VEC_B = _RNG.random(101)
_SQUARE = _RNG.random((101, 101))
_BATCH = _RNG.random((200, 784))
_WEIGHTS = _RNG.random((784, 100))
_PAIRS = _RNG.random(200 * 199 // 2)


def _python_part() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _small_array_part() -> int:
    done = np.zeros(101, dtype=bool)
    last = 0
    for step in range(3_000):
        dist = np.where(done, np.inf, _VEC_A)
        last = int(np.argmin(dist))
        relaxed = _VEC_A[last] + _SQUARE[last] - _VEC_B
        done[step % 101] = bool((relaxed < _VEC_A)[step % 101])
    return last


def _blas_part() -> float:
    total = 0.0
    for _ in range(20):
        total += float((_BATCH @ _WEIGHTS)[0, 0])
    return total


def _pair_array_part() -> int:
    pick = 0
    for step in range(150):
        weights = np.exp((_PAIRS.min() - _PAIRS) / 0.3)
        cum = np.cumsum(weights)
        pick = int(np.searchsorted(cum, cum[-1] * (step % 10) / 10.0))
    return pick


PARTS = {
    "python": _python_part,
    "small_array": _small_array_part,
    "blas": _blas_part,
    "pair_array": _pair_array_part,
}


def part_seconds(names=tuple(PARTS)) -> dict:
    """Wall time of one pass of each named part of the reference loop."""
    times = {}
    for name in names:
        start = time.perf_counter()
        PARTS[name]()
        times[name] = time.perf_counter() - start
    return times
