"""Host-speed probe and the correction it defines.

The machine the benchmark runs on is shared, so the same code can take
twice as long from one minute to the next.  The probe is a fixed piece
of work, written here and never in the program, that mixes what the
program spends its time on: Python-object churn (dict inserts, tuple
and frozenset builds) and a numpy array pass.  It is timed with nothing
else in flight, right before and right after each timed batch op or
serve burst, and a raw timing is corrected to a nominal host speed::

    corrected = raw * P0_MS / mean(adjacent probe times)

so corrected values stay in seconds and milliseconds.  ``P0_MS`` is a
constant of the benchmark: changing it rescales every corrected timing
and invalidates comparisons with earlier runs.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Nominal time of one probe round in ms (about its median on a 2-core
#: x86-64 container); corrected timings read as if every round took this.
P0_MS = 10.0

#: One probe reading is the median of this many back-to-back rounds,
#: so a single descheduling spike does not set the correction.
PROBE_ROUNDS = 3

_DICT_KEYS = 6_000
_FROZENSETS = 1_500
_ARRAY_LEN = 60_000


def probe_work() -> int:
    """One round of the fixed probe work; returns a checksum."""
    table = {}
    for i in range(_DICT_KEYS):
        table[(i, i & 63)] = i
    sets = [frozenset(range(i % 97, i % 97 + 12)) for i in range(_FROZENSETS)]
    pairs = [tuple(sorted(s))[:2] for s in sets]
    keys = np.arange(_ARRAY_LEN, dtype=np.int64)
    mixed = (keys * 7919 + 13) % _ARRAY_LEN
    order = np.argsort(mixed, kind="stable")
    counts = np.bincount(mixed[order] % 251, minlength=251)
    return len(table) + len(pairs) + int(counts.max())


class HostProbe:
    """Times the probe and refuses to run while an op is in flight.

    Callers bracket each timed region with :meth:`op_started` /
    :meth:`op_finished`.  :meth:`measure` raises if any region is open,
    and both kinds of interval are kept so :meth:`overlaps` can show,
    after the run, that no probe shared time with an op.

    With ``cpus`` unset a reading runs wherever the scheduler puts it,
    like a single-threaded op.  With ``cpus`` (for work that keeps every
    CPU busy) it is pinned to each CPU in turn and the per-CPU times are
    averaged: the CPUs of a shared host slow down independently, and an
    unpinned probe lands on the faster one.
    """

    def __init__(
        self,
        work: Callable[[], int] = probe_work,
        rounds: int = PROBE_ROUNDS,
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        self._work = work
        self._rounds = rounds
        self._cpus = list(cpus) if cpus else []
        self._lock = threading.Lock()
        self._open: List[float] = []
        self.readings_ms: List[float] = []
        #: With ``cpus``, each reading's per-CPU times (shows a lopsided host).
        self.per_cpu_ms: List[List[float]] = []
        self.probe_intervals: List[Tuple[float, float]] = []
        self.op_intervals: List[Tuple[float, float]] = []

    def op_started(self) -> None:
        with self._lock:
            self._open.append(time.perf_counter())

    def op_finished(self) -> None:
        with self._lock:
            if not self._open:
                raise RuntimeError("op_finished without op_started")
            self.op_intervals.append((self._open.pop(0), time.perf_counter()))

    def measure(self) -> float:
        """One probe reading in ms: the median of ``rounds`` timed rounds
        (with ``cpus``, the mean over the CPUs of that median)."""
        if self._open:
            raise RuntimeError(
                f"probe requested with {len(self._open)} op(s) in flight"
            )
        first = time.perf_counter()
        if not self._cpus:
            reading = self._median_round()
        else:
            allowed = os.sched_getaffinity(0)
            try:
                per_cpu = []
                for cpu in self._cpus:
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(self._median_round())
            finally:
                os.sched_setaffinity(0, allowed)
            reading = statistics.mean(per_cpu)
            self.per_cpu_ms.append(per_cpu)
        self.probe_intervals.append((first, time.perf_counter()))
        self.readings_ms.append(reading)
        return reading

    def _median_round(self) -> float:
        times = []
        for _ in range(self._rounds):
            start = time.perf_counter()
            self._work()
            times.append((time.perf_counter() - start) * 1000.0)
        return statistics.median(times)

    def overlaps(self) -> int:
        """How many (probe, op) interval pairs share any time."""
        return count_overlaps(self.probe_intervals, self.op_intervals)


def all_cpus() -> List[int]:
    """The CPUs this process may run on ([] where affinity is unknown)."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


_SPIN = """
import os, sys
parent = int(sys.argv[2])
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print("ready", flush=True)
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextmanager
def keep_awake(cpus: Sequence[int]) -> Iterator[None]:
    """Keep each CPU busy with a ``SCHED_IDLE`` spinner while inside.

    On a virtual machine an idle vCPU halts, and waking it for the next
    thread hop waits on the host scheduler: a request/response workload
    then slows with host load far more than the probe does (on a shared
    2-vCPU VM, raw serve latency grew 2.4x while the probe grew 1.4x).  A
    spinner at idle priority keeps the vCPU running and yields to any
    other thread at once, so hops stay inside the guest.  A spinner
    whose parent is gone stops by itself.
    """
    spinners = []
    try:
        for cpu in cpus:
            proc = subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(cpu), str(os.getpid())],
                stdout=subprocess.PIPE,
                text=True,
            )
            spinners.append(proc)
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"spinner for CPU {cpu} did not start")
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait(timeout=30)
            proc.stdout.close()


def count_overlaps(
    probes: Sequence[Tuple[float, float]], ops: Sequence[Tuple[float, float]]
) -> int:
    """Pairs of a probe interval and an op interval that intersect."""
    return sum(
        1 for p_start, p_end in probes for o_start, o_end in ops
        if p_start < o_end and o_start < p_end
    )


def correction_factor(adjacent_probes_ms: Sequence[float]) -> float:
    """``P0 / mean(adjacent probes)``: multiply a raw time by this."""
    if not adjacent_probes_ms:
        raise ValueError("need at least one adjacent probe")
    mean = sum(adjacent_probes_ms) / len(adjacent_probes_ms)
    if mean <= 0:
        raise ValueError(f"probe mean must be positive, got {mean}")
    return P0_MS / mean


def corrected(raw: float, adjacent_probes_ms: Sequence[float]) -> float:
    """A raw time (any unit) scaled to the nominal host speed."""
    return raw * correction_factor(adjacent_probes_ms)
