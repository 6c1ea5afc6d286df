"""How fast the host runs right now, from a fixed probe timed in-process.

A shared host slows every process on it, for stretches of seconds to
minutes and by up to ~2x, and process CPU time slows with it (the lost
time is not steal).  The benchmark times a fixed bytecode probe between
the requests, in the same thread as the program (and during set-up from
a ``SetupProbe`` thread on the same CPU), and divides the times it
measures by the probe's slowdown ``factor = probe time / NOMINAL_S`` over
the same stretch.  The figures it reports are then what the program does
at the speed at which the probe takes ``NOMINAL_S``: a change to the
program moves them, a change of host speed mostly does not.

Measured on a 2-vCPU x86-64 VM, serving goodput per half second tracked
the probe with a correlation of -0.9, and dividing by the factor cut the
spread of goodput over seeds from 0.3-0.5 of its median to about 0.05.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Sequence

#: Seconds one probe takes at the reference speed (about its time on an
#: idle 2-vCPU x86-64 VM, so that reported figures there read as measured).
NOMINAL_S = 70e-6
#: Seconds between probes, in the serving loop and during set-up.
PERIOD = 0.01

_LOOP = 600


def _work() -> int:
    total = 0
    seen = {}
    for i in range(_LOOP):
        seen[i & 63] = i
        total += seen.get((i * 7) & 63, 0) & 1
    return total


def probe() -> float:
    """Seconds the fixed probe took just now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def factor(samples: Sequence[float]) -> float:
    """The host's slowdown over ``samples`` probe times: median / nominal."""
    return statistics.median(samples) / NOMINAL_S


class SetupProbe:
    """Probes the host every ``PERIOD`` seconds while the caller runs
    synchronous code, from a thread pinned to the caller's CPU.

    The two vCPUs of a small VM slow independently (their probe times
    did not correlate), so the probe thread must share the caller's CPU;
    it runs whenever the caller yields the GIL.
    """

    def __init__(self, period: float = 0.01):
        self._period = period
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._affinity = None

    def _run(self) -> None:
        while not self._stop.wait(self._period):
            self.samples.append(probe())

    def __enter__(self) -> "SetupProbe":
        try:
            with open("/proc/thread-self/stat") as stat:
                cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {cpu})
        except (OSError, AttributeError, ValueError, IndexError):
            self._affinity = None
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def slowdown(self) -> float:
        """Elapsed time over work done at the reference speed: the
        harmonic mean of the sampled factors (the host flips between a
        fast and a slow state within a set-up)."""
        samples = self.samples or [probe()]
        return len(samples) / sum(NOMINAL_S / sample for sample in samples)
