"""Host speed, sampled with a fixed reference slice between ops.

The reference machine is a virtual machine on a shared host, and its CPU
speed drifts with the host's load: the same ops on the same inputs run
up to 1.8x faster in one minute than in the next, in CPU time, for
minutes at a time.  Ten runs made one after another then differ by the
host's state more than by anything the code does.

The runner therefore runs a short reference slice, which calls nothing
of the library, between ops about every ``EVERY_S`` seconds, and divides
each op's time by the host factor around it: the typical time of the
``AROUND`` slices on either side (``typical``) over ``NOMINAL_S``.  A
scaled time is the op's CPU time at the host speed at which one slice
takes ``NOMINAL_S``.  The slice is made of the kinds of work the library
does: a Python loop of small numpy calls, small dense LAPACK calls, and
dict and string work.  Unscaled times are printed beside the scaled ones.

numpy is imported here, so this module is imported only after the
runner has pinned the BLAS pool.
"""

from __future__ import annotations

import gc
import json
from time import thread_time

import numpy as np

NOMINAL_S = 0.0009  # one slice's CPU time on the reference machine in its usual state
EVERY_S = 0.05  # wall seconds between slices during a timed phase
AROUND = 10  # slices on either side of an op that give its local host factor

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(8, 8))
_V = _rng.normal(size=8)


def _slice():
    x = _V
    for _ in range(40):
        x = np.maximum(_A @ x, 0.0) + 0.1
        x = x / np.linalg.norm(x)
    for _ in range(4):
        np.linalg.solve(_A, x)
        np.linalg.svd(_A)
    table = {f"k{i}": [i, (i * 7) % 13, str(i)] for i in range(150)}
    json.dumps(table, sort_keys=True)


def slice_seconds() -> float:
    """CPU seconds of one reference slice on this thread, its caches warm.

    The slice runs twice and only the second run is timed, so what the
    op before it left in the caches does not count, and the garbage
    collector is off while it runs, so the objects the workload holds do
    not count either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _slice()
        t0 = thread_time()
        _slice()
        return thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def typical(times: list[float]) -> float:
    """Mean of the slice times without the slowest and fastest tenth."""
    ordered = sorted(times)
    cut = len(ordered) // 10
    return sum(ordered[cut : len(ordered) - cut]) / (len(ordered) - 2 * cut)


def sample(seconds: float) -> float:
    """Typical slice time over slices run back to back for ``seconds`` of CPU time."""
    times: list[float] = []
    while sum(times) < seconds:
        times.append(slice_seconds())
    return typical(times)
