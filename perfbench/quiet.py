"""Which stretches of a run had the host's CPUs to themselves.

On a virtual machine the hypervisor can take a vCPU away for seconds at a
time; the guest reports that as *steal* time in ``/proc/stat``.  A stolen
stretch stretches every wall-clock figure inside it although the program did
the same work, and on a shared host it comes in bursts that last seconds.

:class:`StealMonitor` samples the host's steal counter in a background
thread while a phase runs.  The timing metrics are then taken over the quiet
stretches only: sample intervals, ops or audit passes during which the
guest lost at most :data:`QUIET_STEAL` of its CPU time.  When ``/proc/stat``
has no steal counter every stretch counts as quiet.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

#: Seconds between two samples of the steal counter.  Steal comes in
#: bursts of tens of milliseconds even on a busy host, so samples this fine
#: still find quiet stretches between them.
SAMPLE_SECONDS = 0.05

#: Largest share of the guest's CPU time stolen during a stretch that still
#: counts as quiet: none, not one clock tick between the enclosing samples.
QUIET_STEAL = 0.0


def _read_steal():
    """(steal ticks summed over CPUs, CPU count), or None without the counter."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
            cpus = sum(1 for line in handle if line.startswith("cpu"))
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]), max(cpus, 1)


class StealMonitor:
    """Samples the steal counter every :data:`SAMPLE_SECONDS` until stopped.

    Times are ``time.perf_counter()`` values, which on Linux share
    ``CLOCK_MONOTONIC`` across processes, so a child's op times can be
    compared with the parent's samples.
    """

    def __init__(self):
        first = _read_steal()
        self.available = first is not None
        self.cpus = first[1] if first else 1
        self.hz = os.sysconf("SC_CLK_TCK")
        self._times: list[float] = []
        self._ticks: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _record(self) -> None:
        reading = _read_steal()
        if reading is not None:
            self._times.append(time.perf_counter())
            self._ticks.append(reading[0])

    def _sample(self) -> None:
        self._record()
        while not self._stop.wait(SAMPLE_SECONDS):
            self._record()
        self._record()

    def __enter__(self):
        if self.available:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self.available:
            self._stop.set()
            self._thread.join()

    def steal_share(self, begin: float, end: float) -> float:
        """Share of CPU time stolen between the samples enclosing
        ``[begin, end]``; 1.0 when no samples enclose it."""
        if not self.available:
            return 0.0
        low = bisect.bisect_right(self._times, begin) - 1
        high = bisect.bisect_left(self._times, end)
        if low < 0 or high >= len(self._times):
            return 1.0
        span = self._times[high] - self._times[low]
        stolen = (self._ticks[high] - self._ticks[low]) / self.hz
        return stolen / (self.cpus * span) if span > 0 else 0.0

    def _intervals(self, begin: float, end: float) -> list:
        """(steal share, start, end) of every sample interval inside
        ``[begin, end]``."""
        times, ticks = self._times, self._ticks
        first = bisect.bisect_left(times, begin)
        return [
            ((ticks[i + 1] - ticks[i]) / self.hz / (self.cpus * (times[i + 1] - times[i])),
             times[i], times[i + 1])
            for i in range(first, len(times) - 1)
            if times[i + 1] <= end
        ]

    def quiet_rate(self, done, begin: float, end: float, minimum: float) -> float:
        """Ops completed per second of quiet time inside ``[begin, end]``.

        ``done`` are the ops' completion times.  When less than ``minimum``
        seconds were quiet, the least-stolen sample intervals that add up to
        ``minimum`` seconds stand in for them.
        """
        intervals = self._intervals(begin, end)
        if not intervals:
            return len(done) / (end - begin)
        calm = [interval for interval in intervals if interval[0] <= QUIET_STEAL]
        if sum(stop - start for _, start, stop in calm) < minimum:
            calm, seconds = [], 0.0
            for interval in sorted(intervals):
                calm.append(interval)
                seconds += interval[2] - interval[1]
                if seconds >= minimum:
                    break
        done = sorted(done)
        count = sum(
            bisect.bisect_left(done, stop) - bisect.bisect_left(done, start)
            for _, start, stop in calm
        )
        return count / sum(stop - start for _, start, stop in calm)

    def quiet(self, items, interval, minimum: int) -> list:
        """The ``items`` whose ``interval(item)`` was quiet.

        When fewer than ``minimum`` were, the ``minimum`` least-stolen
        instead, so a run on a busy host still reports its calmest part.
        """
        scored = [(self.steal_share(*interval(item)), index, item)
                  for index, item in enumerate(items)]
        calm = [item for share, _, item in scored if share <= QUIET_STEAL]
        if len(calm) >= minimum:
            return calm
        return [item for _, _, item in sorted(scored)[:minimum]]

    def quiet_share(self, begin: float, end: float) -> float:
        """Share of ``[begin, end]`` that was quiet (recorded with the
        result, not a metric)."""
        if not self.available:
            return 1.0
        intervals = self._intervals(begin, end)
        calm = sum(stop - start for share, start, stop in intervals if share <= QUIET_STEAL)
        return calm / (end - begin)
