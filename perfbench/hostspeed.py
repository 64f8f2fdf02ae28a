"""How fast the host runs right now, sampled alongside the measurement.

On a shared host the same work can take a fifth more or less time from
one moment to the next: on a 2-vCPU x86-64 VM a fixed Python loop took
anywhere from 0.147 s to 0.219 s within a few seconds. The benchmark's
own process runs a :class:`HostSampler` thread throughout a run: every
:data:`INTERVAL_SECONDS` it times a fixed slice of Python work by the
thread's CPU time, which the program's processes cannot inflate by
taking the CPU away (only a slower host can). Slices take turns on each
CPU the benchmark may use, because contention on the host can slow one
virtual CPU and not the other. Timings of a window are then scaled by
:meth:`HostSampler.slowdown` over that window, so a run on a slow minute
and a run on a fast minute report close values for the same program.
The sampler is busy about 5% of one CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: Median CPU seconds of one slice on the machine the bounds were set on
#: (2 vCPUs, x86-64 at 2.1 GHz, Python 3.11). Only the scale of the
#: reported values depends on it.
REFERENCE_SLICE_SECONDS = 0.003
#: Seconds between slices. The estimate of how much of a window the host
#: spent slow has a binomial error, so short windows need many slices:
#: at 0.2 s, scaling a 1.5 s latency added a fifth of noise.
INTERVAL_SECONDS = 0.05
#: Fewest slices a window's slowdown is averaged over.
MIN_SAMPLES = 5


def _slice() -> float:
    """Dictionary, string and float work, like the program's own mix."""
    table: dict[str, int] = {}
    total = 0.0
    for i in range(8000):
        key = f"k{i % 503}"
        table[key] = table.get(key, 0) + 1
        total += (i % 7) * 0.5
    return total + len(table)


class HostSampler:
    """Background thread recording ``(time, CPU seconds of one slice)``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        while not self._stop.wait(INTERVAL_SECONDS):
            # Pins this thread only (pid 0 is the calling thread on Linux).
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            started = time.thread_time()
            _slice()
            self.samples.append((time.perf_counter(), time.thread_time() - started))

    def slowdown(self, start: float, end: float) -> float:
        """Mean slice time around ``[start, end]`` relative to the
        reference: above 1 when the host ran slower than it.

        The mean, not the median: slice times are bimodal (a virtual CPU
        runs at one of two speeds at a time), and work done in a window
        takes longer in proportion to the share of it spent slow. A window
        holding fewer than :data:`MIN_SAMPLES` slices is widened on both
        sides until it holds that many.
        """
        if not self.samples:
            return 1.0
        margin = 0.0
        while True:
            inside = [cpu for at, cpu in self.samples
                      if start - margin <= at <= end + margin]
            if len(inside) >= min(MIN_SAMPLES, len(self.samples)):
                return statistics.mean(inside) / REFERENCE_SLICE_SECONDS
            margin += INTERVAL_SECONDS
