"""The machine's speed, read from a fixed reference task, and times taken
at a reference speed.

On a shared VM the speed of a core is not steady: neighbours on the host
slow it by up to a half, in bursts of a second and in phases of a minute or
more, and a process then runs slower while it is on the CPU the whole time.
No run is long enough to average such phases away. So every time the
benchmark reports is taken at a reference speed: the measured time of an
interval times REF_NOMINAL_S over the median time the reference task took
in readings right before, during and right after that interval. A change to
the program moves these times as it moves wall-clock time; the speed of the
host moves them much less. The task is the benchmark's own code and never
changes with the program.

Readings during an interval come from a SIGVTALRM handler, every
SAMPLE_EVERY_S of the process's CPU time, while `sampling()` is active:
a call of many seconds can change speed half-way. The handler runs between
bytecodes of the main thread, never inside a C call. `clock()` leaves out
the time the handler spends, so intervals timed with it hold only the
program's own time. The handler costs about 2% of the run.

A neighbour slows each kind of work by its own factor, so the task mixes
the kinds the workloads do, in five parts of 0.4-0.9 ms each: an integer
loop, Python dicts and lists, small dense numpy products, tensordots on a
24³ array and a 2 MB numpy stream. README.md gives the run-to-run spreads
this leaves, next to those of wall-clock time.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from time import perf_counter

import numpy as np

# The task's time at the reference speed: about what it took on a 2-vCPU
# x86_64 VM with Python 3.11 and numpy 2.4, so that times at reference speed
# come within a quarter or so of wall-clock seconds there.
REF_NOMINAL_S = 3.3e-3

# fixed, dense operands; numpy.random is left out, as importing it alone
# adds about 9 MB to the peak RSS the benchmark reports
_SMALL = np.cos(np.arange(40 * 40)).reshape(40, 40) + 0j
_CUBE = np.sin(np.arange(24 ** 3)).reshape(24, 24, 24) + 0j
_U = np.cos(np.arange(24 * 24) * 0.7).reshape(24, 24) + 0j
_STREAM = np.ones(1 << 17, complex)


def _integers():
    s = 0
    for i in range(8000):
        s += i * i
    return s


def _objects():
    d = {}
    for i in range(800):
        d[(i, i % 7)] = [i, str(i)]
    return sorted(d.items(), key=lambda kv: kv[0][1])


def _small_products():
    x = _SMALL
    for _ in range(20):
        x = _SMALL @ x
        x = x / np.abs(x).max()
    return x


def _tensordots():
    x = _CUBE
    for axis in (0, 1, 2, 0, 1):
        x = np.moveaxis(np.tensordot(_U, x, axes=([1], [axis])), 0, axis)
    return x


def _stream():
    return np.negative(_STREAM, out=_STREAM)


_PARTS = (_integers, _objects, _small_products, _tensordots, _stream)


def reference_s(repeats: int = 3) -> float:
    """Time of the reference task now: the sum over its parts of each
    part's median time. The garbage collector is held off meanwhile: a
    collection set off by the task's allocations would walk the program's
    heap, which on `compile-large` holds millions of objects."""
    total = 0.0
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for part in _PARTS:
            times = []
            for _ in range(repeats):
                t0 = perf_counter()
                part()
                times.append(perf_counter() - t0)
            total += statistics.median(times)
    finally:
        if gc_was_on:
            gc.enable()
    return total


def scale(readings) -> float:
    """Factor that takes a time measured among these readings of
    reference_s to the reference speed. The median keeps one reading
    caught in a burst from moving a long call's scale."""
    return REF_NOMINAL_S / statistics.median(readings)


SAMPLE_EVERY_S = 0.5

readings: list[float] = []   # of reference_s, in the order taken
_spent_s = 0.0               # time spent in the handler


def clock() -> float:
    """perf_counter() without the time spent taking readings in the
    SIGVTALRM handler."""
    return perf_counter() - _spent_s


def read() -> int:
    """Take a reading now; return its index in `readings`."""
    readings.append(reference_s())
    return len(readings) - 1


def scale_since(index: int) -> float:
    """scale() of the readings from `index` on."""
    return scale(readings[index:])


def _on_timer(signum, frame):
    global _spent_s
    t0 = perf_counter()
    readings.append(reference_s())
    _spent_s += perf_counter() - t0


@contextlib.contextmanager
def sampling():
    """Take a reading every SAMPLE_EVERY_S of CPU time inside the block."""
    previous = signal.signal(signal.SIGVTALRM, _on_timer)
    signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)
