"""How fast the shared host runs this process right now.

On a small shared virtual machine the same Python code runs up to 1.9 times
slower for a second or a minute at a time while other tenants are busy; the
process is not preempted (CPU time equals wall time), it just runs slower.
The benchmark therefore times a fixed pure-Python kernel between short
slices of operations and scales each slice's times by ``REFERENCE_NS`` over
the kernel's time around that slice: a time then reads as it would on a
host where the kernel takes ``REFERENCE_NS``.  The kernel does the kind of
work the engine does (recursive copies of small dicts and lists) but calls
no turklex code, so a change to the program cannot change it.
"""

from __future__ import annotations

import copy
import gc
import random
import signal
import statistics
import time

# The kernel's time on the host the benchmark was tuned on (2 vCPUs of an
# Intel Xeon at 2.1 GHz, Python 3.11) while that host was not busy: the
# kernel's times there fall in two bands, about 140 and 235 us.
REFERENCE_NS = 140_000

_ENTRIES = [{f"k{i}": {"v": [i, str(i)], "w": {"x": "y", "z": [None, True]}}}
            for i in range(400)]
_ORDER = random.Random(5).sample(range(len(_ENTRIES)), 40)
_TREE = {"a": [{f"k{i}": {"x": [1, 2, {"y": "z" * 5}]} for i in range(12)}]}


def _copy(value):
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy(item) for item in value]
    return value


def kernel() -> None:
    for i in _ORDER:
        _copy(_ENTRIES[i])
    copy.deepcopy(_TREE)


def sample(repeats: int = 3) -> int:
    """Median CPU time of the kernel, in ns.

    The cyclic garbage collector is paused meanwhile: the kernel makes no
    cycles, and a collection of the engine's heap would say nothing about
    the host.
    """
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.thread_time_ns()
            kernel()
            times.append(time.thread_time_ns() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def factor(*samples: int) -> float:
    """Scale for a time measured among these kernel samples."""
    return REFERENCE_NS * len(samples) / sum(samples)


class During:
    """Kernel samples taken while a long block of work runs.

    A timer signal interrupts the block after every ``every_s`` of CPU time
    and times the kernel from the signal handler, so a set-up that lasts
    seconds is scaled by the speed the host had meanwhile.  ``spent_ns`` is
    the CPU time the handler took, to be taken off the block's time.
    """

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples = []
        self.spent_ns = 0

    def _handler(self, signum, frame) -> None:
        start = time.thread_time_ns()
        self.samples.append(sample())
        self.spent_ns += time.thread_time_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
