"""Host-speed sampling, so that call times can be read at one fixed speed.

The benchmark shares a few cores of a host whose speed drifts between phases
that last seconds to minutes and differ by up to a factor of 2 (NOTES.md,
"Steadiness").  A `Sampler` runs a fixed pure-Python slice every
`INTERVAL_S` of wall time from a SIGALRM handler, in the process being
measured and on the core it runs on.  A slice that takes `REFERENCE_SLICE_S`
means speed 1; one that takes twice as long means speed 0.5.

The work done in a stretch of wall time T is about T x (mean speed of the
slices taken in it), so

    adjusted = (T - time spent in slices) x mean speed

is the time the stretch would have taken at speed 1, in seconds.  The mean
of the speeds (not of the slice times) keeps one slice that was preempted
from counting for more than its share.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.03
SLICE_LOOPS = 1500
# Duration of one slice at speed 1: about its duration inside a CLI call on a
# 2-vCPU Intel Xeon VM (Python 3.11).  It only sets the scale of the
# adjusted times, so it never changes.
REFERENCE_SLICE_S = 0.0007


def _step(x, y):
    return x * 0.5 + math.sin(y)


def _slice():
    """Time a fixed mix of calls, float maths, dict and list work.

    A mix of this kind tracked the host's phases better than a bare integer
    loop or small numpy operations: on 1.5 s saddle-suite calls timed for six
    noisy minutes on a 2-vCPU Intel Xeon VM, it cut the spread of the call
    times (quartile distance over median) from 0.32 to 0.06.
    """
    t0 = time.perf_counter()
    table, items, acc = {}, [], 0.0
    for i in range(SLICE_LOOPS):
        value = _step(i * 0.001, acc)
        table[i & 63] = value
        items.append(value)
        acc += table.get((i * 7) & 63, 0.0) * 0.01
    items.sort()
    return time.perf_counter() - t0


class Sampler:
    """Slice timings taken every INTERVAL_S of wall time while installed."""

    def __init__(self):
        self.slices = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.slices.append(_slice())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(slices, wall_s, cpu_s=None):
    """Speed and times of a stretch in which `slices` were taken.

    `wall_s` in the result is the raw wall time less the time spent in
    slices; `adj_s` and `adj_cpu_s` are the wall and CPU times less that
    time, at speed 1.
    """
    spent = sum(slices)
    taken = slices or [_slice()]  # a stretch shorter than INTERVAL_S
    speed = sum(REFERENCE_SLICE_S / s for s in taken) / len(taken)
    out = {"speed": speed, "wall_s": wall_s - spent, "adj_s": (wall_s - spent) * speed}
    if cpu_s is not None:
        out["adj_cpu_s"] = (cpu_s - spent) * speed
    return out
