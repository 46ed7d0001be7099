"""Wall time rescaled by the host's speed around each unit of work.

On a shared host the speed of the CPU the benchmark runs on moves by up to
1.7x, in phases that last from milliseconds to minutes, and every timing of
a run follows it.  :class:`HostClock` measures that speed with a short probe
loop run between units of work, and rescales each unit's wall time towards
what it would have taken on a reference host, one on which the probe loop
takes :data:`REFERENCE_PROBE_S`.  The probe is plain Python and calls
nothing in ``repro``, so a change to the program does not move it.

The probe allocates no containers, so it never starts a garbage collection;
its keys are tuples of ints, which hash the same in every process; and it
is the fastest of :data:`PROBE_REPEATS` timings of the loop, so a
preemption that hits one of them does not count.
"""

from __future__ import annotations

import bisect
import itertools
import time
from array import array
from typing import List, Optional, Tuple

#: The probe loop's time on the reference host.  The scale is a convention:
#: it is close to the loop's usual time on the 2-core x86 box the workload
#: rates were set on, so rescaled figures read close to wall time there.
REFERENCE_PROBE_S = 100e-6
PROBE_REPEATS = 3
#: The host is probed after a unit once this much wall time has passed
#: since the last probe.
PROBE_EVERY_S = 0.01
#: A unit is rescaled by the mean probe time over the probes taken from this
#: long before it started to this long after it ended.
WINDOW_S = 1.0
#: The program slows down less than the probe loop does: across runs on a
#: shared 2-core x86 VM, the log of a workload's wall time moved by 0.7 to
#: 0.8 times the log of the probe time (README.md, "Host speed").  A unit's
#: wall time is rescaled by the probed speed ratio to this power.
SPEED_EXPONENT = 0.8

_KEYS = tuple((i, 7 * i) for i in range(256))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def _probe_loop() -> int:
    table = _TABLE
    total = 0
    for _ in range(4):
        for key in _KEYS:
            total += table[key]
    return total


class HostClock:
    """Probes the host's speed and rescales the units of work timed meanwhile.

    Callers time each unit in wall time and :meth:`add` it, which probes
    the host when one is due.  :meth:`settle` rescales every unit added
    since the last settle and appends its rescaled time to the unit's
    sample array.
    """

    def __init__(self) -> None:
        #: Instant (``perf_counter``) and duration of every probe taken.
        self.probe_at = array("d")
        self.probes = array("d")
        # Pending units as C arrays, to keep them out of the measured memory
        # and away from the garbage collector: start, end, and the index in
        # ``_targets`` of the sample array each goes to (-1 for none).
        self._starts = array("d")
        self._ends = array("d")
        self._dests = array("b")
        self._targets: List[array] = []
        self.probe()

    def probe(self) -> None:
        """Time the probe loop now."""
        clock = time.perf_counter
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            started = clock()
            _probe_loop()
            best = min(best, clock() - started)
        self.probe_at.append(clock())
        self.probes.append(best)

    def add(self, samples: Optional[array], started: float, ended: float) -> None:
        """Book a unit timed from ``started`` to ``ended``; ``samples`` gets its rescaled time."""
        self._starts.append(started)
        self._ends.append(ended)
        self._dests.append(self._target(samples))
        if ended - self.probe_at[-1] >= PROBE_EVERY_S:
            self.probe()

    def _target(self, samples: Optional[array]) -> int:
        if samples is None:
            return -1
        for index, target in enumerate(self._targets):
            if target is samples:
                return index
        self._targets.append(samples)
        return len(self._targets) - 1

    def settle(self) -> Tuple[float, float]:
        """Probe, rescale the pending units, and return their (rescaled, wall) totals."""
        self.probe()
        sums = list(itertools.accumulate(self.probes, initial=0.0))
        rescaled = wall = 0.0
        for started, ended, dest in zip(self._starts, self._ends, self._dests):
            lo = bisect.bisect_left(self.probe_at, started - WINDOW_S)
            hi = bisect.bisect_right(self.probe_at, ended + WINDOW_S)
            mean_probe = (sums[hi] - sums[lo]) / (hi - lo)
            took = (ended - started) * (REFERENCE_PROBE_S / mean_probe) ** SPEED_EXPONENT
            if dest >= 0:
                self._targets[dest].append(took)
            rescaled += took
            wall += ended - started
        del self._starts[:], self._ends[:], self._dests[:]
        self._targets.clear()
        return rescaled, wall
