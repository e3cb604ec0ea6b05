"""Host-speed probe: scale wall times to a nominal host speed.

On a shared virtual machine the speed of a vCPU drifts by +-20% over
seconds, independently per vCPU, which swamps the differences the benchmark
exists to detect.  A fixed probe timed right next to the work tracks that
drift: the probe takes longer exactly when the vCPU is slowed.  It mixes a
pure-Python loop (interpreter speed), a NumPy transcendental kernel (vector
compute) and a reduction over an 8 MB array (memory bandwidth), the three
kinds of work a compile does.  Timed work is reported multiplied by
``NOMINAL_PROBE_S / probe``, i.e. as the time it would take on a host where
the probe runs in exactly ``NOMINAL_PROBE_S``.  The probe is the benchmark's
own code, so no change to the program under test can move it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import numpy as np

#: The probe's duration on the nominal host the times are scaled to.
NOMINAL_PROBE_S = 0.002
_LOOP_ITERATIONS = 8_000


@functools.lru_cache(maxsize=1)
def _arrays():
    rng = np.random.default_rng(0)
    return rng.random(1 << 15), rng.random(1 << 20)


def probe() -> float:
    """Seconds the fixed probe takes on this vCPU right now."""
    small, large = _arrays()
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i % 7
    np.sin(small).sum()
    large.sum()
    return time.perf_counter() - start


def speed_factor(*probes: float) -> float:
    """Multiplier that scales a wall time measured next to ``probes``."""
    return NOMINAL_PROBE_S * len(probes) / sum(probes)


def scaled_seconds(fn) -> float:
    """Wall seconds ``fn()`` takes, at nominal host speed."""
    before = probe()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return elapsed * speed_factor(before, probe())


@contextlib.contextmanager
def one_vcpu():
    """Pin this process, and the processes it starts, to one vCPU for a block.

    The probes then time the vCPU the work runs on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
