"""Host speed probe, for timings that do not swing with the speed of a shared host.

On a shared virtual machine the same code runs at different speeds from one
minute to the next, and the speed can switch within seconds.  The probe
times two fixed loops: pure-Python arithmetic, and small numpy arrays
indexed from a Python loop, the pattern of kaclab's proposal and replay
loops.  It calls no kaclab code, so a change to the program cannot change
it.  Timing it right before and right after each op measures how fast the
host ran around that op, and

    op_s * REF_PROBE_S / probe_s

is the op's time on a host whose probe takes REF_PROBE_S: its time in
reference seconds.  A program that does twice the work still reads twice
as slow; a host that runs at half speed for a minute does not.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

# probe() on the reference host (a 2-core x86 microVM, Python 3.11, numpy
# 2.4) in its faster state; only the scale of reference seconds depends on it
REF_PROBE_S = 0.004

_ROWS = np.random.default_rng(0).standard_normal((10_000, 3))


def _python() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += i * 0.5
    return time.perf_counter() - t0


def _small_arrays() -> float:
    t0 = time.perf_counter()
    r = random.Random(0)
    acc = 0.0
    for _ in range(1_500):
        i, j = int(r.random() * 10_000), int(r.random() * 10_000)
        d = _ROWS[i] - _ROWS[j]
        acc += math.sqrt(float(d @ d))
        _ROWS[j] = _ROWS[j] * 1.0
    return time.perf_counter() - t0


_LOOPS = (_python, _small_arrays)
for _loop in _LOOPS:  # warm up: the first round of each runs slower
    _loop()


def probe(reps: int = 8) -> float:
    """Geometric mean of the two loops' mean times over `reps` rounds (about 0.1 s in all).

    Means, not medians: when the host switches speed during the probe, a
    mean follows the share of time spent at each speed, as an op does.
    """
    parts = [statistics.fmean(loop() for _ in range(reps)) for loop in _LOOPS]
    return math.prod(parts) ** (1 / len(parts))


def to_reference(seconds: float, probe_s: float) -> float:
    """`seconds` measured on a host whose probe took `probe_s`, in reference seconds."""
    return seconds * REF_PROBE_S / probe_s
