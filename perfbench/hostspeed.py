"""Host speed: a fixed pure-Python probe, timed between ops.

On a shared virtual machine the whole host runs faster or slower for
minutes at a time: runs of the same browse_cold code minutes apart had
median pages 1.6 times apart. Taking each op's best over several passes
(``run.py``) removes bursts of a second or so, not such stretches. So a
run also times a fixed probe every :data:`EVERY_S` of real time, outside
every op timer, and expresses each real-time metric in *reference
milliseconds*: the measured time scaled by :data:`REFERENCE_S` over the
run's probe time (:meth:`HostSpeed.probe_s`).

The probe does a little of what the program does per request (string
keys in a dict, a sort, a JSON round trip, base64, SHA-256, small
objects), and none of the program's own code, so a change to the program
cannot change the probe. The cyclic garbage collector is off while it
runs, so its time does not depend on how much the program keeps alive.
"""

from __future__ import annotations

import base64
import gc
import hashlib
import json
import statistics
import time
from typing import List

__all__ = ["HostSpeed", "probe", "REFERENCE_S", "EVERY_S"]

#: The probe time, as :meth:`HostSpeed.probe_s` takes it, on the host the
#: benchmark was tuned on (2 vCPUs of an Intel Xeon at 2.0 GHz, shared;
#: Python 3.11). Scaled values are milliseconds on that host in a quiet
#: stretch.
REFERENCE_S = 0.0025
#: Least real time from the end of one probe to the start of the next;
#: a probe takes about 2.5 ms, so about 5 % of a run.
EVERY_S = 0.05

_BLOCK = bytes(range(256)) * 32


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def probe() -> int:
    """A fixed amount of interpreter work; the result is irrelevant."""
    table = {}
    for index in range(3000):
        table["k%d" % index] = (index * 7919) % 1013
    items = sorted(table.items(), key=lambda item: item[1])
    json.loads(json.dumps(items[:300]))
    base64.b64decode(base64.b64encode(_BLOCK * 2))
    digest = hashlib.sha256()
    for _ in range(8):
        digest.update(_BLOCK)
    return sum(_Pair(index, index).a for index in range(1500))


class HostSpeed:
    """Probe times of one run, by pass, and the factor they give.

    The probe time is reduced the way op times are: the *j*-th probe of
    every pass is one position, its best over the passes counts, and the
    median over positions is the run's probe time. Ops and probe then
    draw on the same quiet moments of the host. A lower decile over all
    probes read one run's host as 40 % slower than its ops did: its
    quiet moments were few, but spread over every pass.
    """

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        #: Probe times of each pass so far.
        self.passes: List[List[float]] = []
        self._next = 0.0

    @property
    def times(self) -> List[float]:
        return [elapsed for times in self.passes for elapsed in times]

    def next_pass(self) -> None:
        """Start the probe times of a new pass."""
        self.passes.append([])

    def maybe_probe(self) -> None:
        """Run the probe if :attr:`every_s` has passed since the last."""
        if time.perf_counter() < self._next:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        if not self.passes:
            self.next_pass()
        self.passes[-1].append(elapsed)
        self._next = time.perf_counter() + self.every_s

    def probe_s(self) -> float:
        """Median over probe positions of their best over the passes."""
        passes = [times for times in self.passes if times]
        if not passes:
            raise RuntimeError("no probe ran")
        count = min(len(times) for times in passes)
        return statistics.median(min(times[j] for times in passes) for j in range(count))

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get reference
        time (divide a rate by it)."""
        return REFERENCE_S / self.probe_s()
