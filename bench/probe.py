"""Host-normalized timing with an in-process speed probe.

The virtual CPUs of a shared host change speed within seconds, by up to
half, when their physical cores get busy neighbours; raw wall times of one
workload then spread by 15-40 % between runs.  While a timed region runs,
SIGALRM fires every ``INTERVAL_S`` and the handler times one of two fixed
loops, in turn: pure interpreter work, and small numpy calls.  Both slow
down with the host, so the region's *host-normalized* time is

    (wall - time spent in probes) x mean over loops of mean_k(NOMINAL_S / probe_k)

the seconds the region would take on a host where each loop takes its
``NOMINAL_S``.  The slowest 5 % of each loop's probes (preempted ones) are
dropped.  Both loops also run once as the region opens, so a region
shorter than the interval still has samples.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
TRIM = 0.05
_SMALL = np.arange(8.0)


def _interpreter() -> int:
    acc = 0
    for i in range(6000):
        acc += (i * i) % 7
    return acc


def _numpy_calls() -> float:
    acc = 0.0
    for i in range(80):
        acc += float(np.max(np.abs(_SMALL - i)))
    return acc


# each loop with its time on an uncontended core of the host the bounds were
# tuned on (10th percentile of 4000 timings), so normalized seconds read as
# wall seconds there when no neighbour competes for the core
LOOPS = ((_interpreter, 3.8e-4), (_numpy_calls, 3.3e-4))


class Probe:
    """Times one region.

    After ``stop``: ``wall`` is the region's wall time minus the time spent
    in probes, ``normalized`` its host-normalized time.  Regions do not nest:
    each owns SIGALRM while it is open.
    """

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in LOOPS]
        self.spent = 0.0
        self.wall = self.normalized = 0.0
        self._previous = None
        self._start = 0.0

    def _sample(self, *_signal) -> None:
        k = sum(map(len, self.samples)) % len(LOOPS)
        t = time.perf_counter()
        LOOPS[k][0]()
        took = time.perf_counter() - t
        self.samples[k].append(took)
        self.spent += took

    def start(self, since: float | None = None) -> "Probe":
        """Open the region now, or at an earlier ``perf_counter`` reading."""
        self._start = time.perf_counter() if since is None else since
        for _ in LOOPS:
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> "Probe":
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        speed = []
        for (_, nominal), samples in zip(LOOPS, self.samples):
            kept = sorted(samples)[:max(1, int(len(samples) * (1 - TRIM)))]
            speed.append(statistics.fmean(nominal / p for p in kept))
        self.normalized = self.wall * statistics.fmean(speed)
        return self

    def __enter__(self) -> "Probe":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
