"""Host-speed calibration.

On a small shared host the speed of the same code drifts by tens of
percent within minutes (CPU time drifts with it, so it is the host, not
scheduling).  Before every op the benchmark times ``seconds()``: a fixed
piece of work that does not touch tasksim, mixing pure-Python float
arithmetic (the exact clipper in ``reference``), numpy sorting and
cumulative sums on 20k elements, and numpy calls on tiny arrays, which
is the mix tasksim spends its time in.  Reported times are wall times
scaled by ``REF_S / calibration``: seconds on a host that runs the
calibration in ``REF_S``.  A change to tasksim moves them; a change in
host speed moves op and calibration alike and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import reference

# Median calibration time on the 2-core Xeon host the baseline was taken on.
REF_S = 0.0125

_SORTED = np.random.default_rng(0).random(20000)
_TINY = [np.random.default_rng(1).random((4, 2)) for _ in range(50)]


def seconds() -> float:
    """Wall time of the fixed calibration work (about 15 ms)."""
    t0 = time.perf_counter()
    reference.builtin_block(37.0)
    for _ in range(4):
        np.cumsum(_SORTED[np.argsort(_SORTED, kind="stable")])
    for _ in range(20):
        for a in _TINY:
            a[:, 0].max() <= a[:, 1].min()
    return time.perf_counter() - t0


def smoothed(values: list[float], half_width: int = 2) -> list[float]:
    """Running median over each value's neighbours, so one disturbed calibration
    does not rescale its op."""
    return [
        statistics.median(values[max(0, i - half_width): i + half_width + 1])
        for i in range(len(values))
    ]
