"""Host speed probe: the benchmark's defence against VM speed drift.

This host's speed drifts by tens of percent over seconds to minutes
(other tenants share the machine), and every timing moves with it.  A
fixed calibration kernel, run between phases while the program is idle,
measures the speed of the moment.  Timings are then reported scaled to
:data:`REFERENCE` speed: ``normalized = raw * speed / REFERENCE``.

The kernel does what the serving hot path does at small scale (index
gathers, ``unique``/``searchsorted``, segment sums, elementwise math and
dict churn in Python) and never calls BLAS, so no program setting of
BLAS threads can change it.  It uses its own fixed data, never the
program's.

A probe runs in the program's process, so the program's own threads
could slow it: OpenBLAS workers keep spinning for about 0.1-0.15 s
after a BLAS call returns.  A try counts only if the process's other
threads used next to no CPU while it ran; a busy try waits past the
spin and tries again, and a probe whose tries were all busy is
dropped.  So the scaling never depends on the program's own threads,
and the counts of retried and dropped probes go into the report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel repetitions per second on the reference host (2-vCPU Intel
#: Xeon VM, Python 3.11, numpy 2.4) at its typical speed.
REFERENCE = 5000.0

#: Kernel repetitions per round, and rounds per try (their median counts).
PROBE_REPS = 40
PROBE_ROUNDS = 3
#: A try counts if the process's other threads used at most this share
#: of its wall time in CPU time.
OTHER_THREADS_MAX = 0.05
#: Wait after a busy try, and tries per probe: together they outlast
#: OpenBLAS's spin.
SETTLE_S = 0.05
PROBE_TRIES = 6

_rng = np.random.default_rng(0)
_IDS = _rng.integers(0, 5000, size=4096)
_ROWS = _rng.normal(size=(2000, 24))


def _kernel(reps: int) -> float:
    """Repetitions per second of the calibration work."""
    started = time.perf_counter()
    total = 0.0
    for i in range(reps):
        offset = (i * 7) % 3000
        ids = _IDS[offset:offset + 600]
        unique = np.unique(ids)
        positions = np.searchsorted(unique, ids)
        rows = _ROWS[unique[unique < 2000]]
        sums = np.add.reduceat(rows, np.arange(0, rows.shape[0], 8), axis=0)
        total += float(np.tanh(sums).sum()) + int(positions[-1])
        churn = {}
        for j in range(200):
            churn[j & 63] = j
    return reps / (time.perf_counter() - started)


def _try() -> float | None:
    """Repetitions per second, or None if other threads were busy."""
    wall = time.perf_counter()
    cpu, own = time.process_time(), time.thread_time()
    rate = statistics.median(_kernel(PROBE_REPS) for _ in range(PROBE_ROUNDS))
    wall = time.perf_counter() - wall
    others = (time.process_time() - cpu) - (time.thread_time() - own)
    return rate if others <= OTHER_THREADS_MAX * wall else None


class Probes:
    """Measures host speed and counts how each probe went."""

    def __init__(self):
        self.counts = {"taken": 0, "retried": 0, "dropped": 0}

    def measure(self) -> float | None:
        """Host speed now, in kernel repetitions per second; None when
        the process's other threads stayed busy through every try."""
        for tries in range(PROBE_TRIES):
            if tries:
                time.sleep(SETTLE_S)
            rate = _try()
            if rate is not None:
                self.counts["taken"] += 1
                self.counts["retried"] += tries > 0
                return rate
        self.counts["dropped"] += 1
        return None
