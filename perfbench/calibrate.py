"""A fixed reference workload that tracks the host's current speed.

The benchmark shares its machine with other jobs, and their load makes
the same pure-Python work run 20-40% slower for minutes at a time.
:func:`calibrate` times a small interpreter-bound loop that does not
depend on the code under test: dict and attribute traffic, method calls,
a generator driven by ``send`` and a sort.  Every pass is bracketed by
two calibrations, and its times are scaled by ``REFERENCE_S`` over their
mean, to the power :data:`EXPONENT`: they are reported at the speed of
the machine on which the loop takes ``REFERENCE_S`` seconds.

A workload that keeps several cores busy (the process pool) is
calibrated on as many cores at once: :class:`Calibrator` runs the loop in
forked helper processes alongside the driver and averages their times.
The helpers are forked rather than spawned: spawning starts
multiprocessing's resource tracker, a process that outlives the driver.

Changing the loop, ``REFERENCE_S`` or ``EXPONENT`` changes every scaled
figure: do it only in a change that re-measures the baseline.
"""

from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter
from typing import Any, List, Tuple

#: the loop's time on the reference machine (2.1 GHz x86-64 VM core,
#: CPython 3.11, quiet host); scaled times read as seconds on it
REFERENCE_S = 0.005
#: timed repetitions per calibration (the median is used)
REPEATS = 5
#: how the benchmark's times follow the loop's time.  The host's load
#: slows the allocation-heavy loop more than it slows the workloads: over
#: ten seeds per workload, their times moved as the loop's to a power of
#: 0.75-1.0 by workload and phase.  0.85 gave the smallest largest run_s
#: spread (IQR/median 2-5% per workload, against 2-9% at 1.0).
EXPONENT = 0.85


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt

    def depth(self):
        node, n = self, 0
        while node is not None:
            n += 1
            node = node.next
        return n


def _consumer():
    total = 0
    while True:
        item = yield total
        total += item


def _loop() -> int:
    table = {}
    head = None
    for i in range(12000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        head = _Node(key, i, head if i % 50 else None)
    gen = _consumer()
    next(gen)
    acc = 0
    for value in table.values():
        acc = gen.send(value)
    order = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return acc + len(order) + head.depth()


def calibrate() -> float:
    """Median seconds of :data:`REPEATS` runs of the reference loop."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(calibration: float) -> float:
    """Factor that takes seconds measured at ``calibration`` to reference
    speed."""
    return (REFERENCE_S / calibration) ** EXPONENT


def _helper(conn: Any) -> None:
    """Helper process: one calibration per request until told to stop."""
    while conn.recv():
        conn.send(calibrate())


class Calibrator:
    """Calibrates on ``cores`` cores: the driver plus ``cores - 1`` helpers.

    Helpers are forked once and stopped by :meth:`close`, which waits
    until each has ended.
    """

    def __init__(self, cores: int = 1) -> None:
        self._helpers: List[Tuple[Any, Any]] = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(cores - 1):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._helpers.append((proc, parent))

    def __call__(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [calibrate()] + [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for proc, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass  # the helper has already gone
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._helpers = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
