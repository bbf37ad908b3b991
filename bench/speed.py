"""Machine speed, measured next to every op with a fixed reference loop.

The benchmark runs on shared machines whose effective CPU speed drifts
between regimes 30-70% apart, each lasting seconds, which is longer than
most ops and a sizeable part of a run.  Every end-to-end time is therefore
reported at reference speed: its measured wall-clock time times
NOMINAL_S / (the reference loop's time measured around it).  An op longer
than SAMPLE_EVERY_S is also sampled while it runs, from a timer signal, so a
change of regime inside a multi-second op is seen.  The loop does the same
kind of work as the library (numpy scalar math on complex numbers, small
tuples, dict inserts, number formatting, hashing), so it slows down with the
library when the machine does.  It never calls the library, and the garbage
collector is off while it runs, so the size of the heap the library leaves
around it does not enter its time.  The medians of the loops run between ops
and of those run during ops are both kept in the result file, with the raw
times, so that any pull of the library's state on the in-op samples shows.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
from time import perf_counter

import numpy as np

#: Time of one reference_loop() call on the reference machine.
NOMINAL_S = 1.0e-3
#: Interval of the in-op samples.
SAMPLE_EVERY_S = 0.25


def reference_loop() -> complex:
    acc, table = 0j, {}
    for i in range(300):
        x = 1e-3 * (i % 37)
        z = complex(np.cos(x), np.sin(x))
        m = (z, 1j * z, z / (1 + x), z.conjugate())
        acc += m[0] * m[3] - m[1] * m[2]
        table[x] = acc
        acc += len(",".join(format(v.real, ".6g") for v in m))
    arr = np.array(list(table.values()))
    return acc + complex(arr.sum()) + len(hashlib.sha256(repr(acc).encode()).hexdigest())


def reference_seconds(repeats: int = 3) -> float:
    """Median time of a few warm reference_loop() calls, in seconds.

    One untimed call comes first: the first call after other work runs with
    cold caches and branch predictors and takes up to 40% longer.  The
    garbage collector is off throughout, so no collection of the heap the
    library left behind falls into a timed call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_loop()
        times = []
        for _ in range(repeats):
            start = perf_counter()
            reference_loop()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Times reference_loop() every SAMPLE_EVERY_S while the block runs.

    The samples run in the main thread from SIGALRM, between the library's
    bytecodes, warm as between ops (one untimed call, then one timed);
    ``spent`` is their total time, with the warm-ups, to be taken off the
    op's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(reference_seconds(1))
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
