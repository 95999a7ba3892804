"""Passes over a workload: timing, the correctness oracle, memory.

A *pass* builds and runs every case of a workload once.  Per case it
runs the ``SequentialSystem`` reference (timed: ``csp.sequential_s``),
builds the optimistic system (timed: ``setup_s``), runs it (timed:
``run_s``) and checks the committed output against the reference.  Every
system run in any pass is checked; a failing check or an exception counts
toward ``failed``.
"""

from __future__ import annotations

import gc
import statistics
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.analyze.soundness import check_system
from repro.core.invariants import validate_run
from repro.errors import ProtocolError, TraceMismatchError
from repro.obs import pool_report, wasted_work
from repro.trace import assert_equivalent

from perfbench.calibrate import Calibrator, scale
from perfbench.tracing import SpanRecorder
from perfbench.workloads import Case

#: a calibration follows the first case that ends this many seconds or
#: more after the previous calibration
CALIBRATE_EVERY = 0.1


@dataclass
class SystemRun:
    """One case of one pass."""

    label: str
    size: int
    setup_s: float = 0.0
    run_s: float = 0.0
    seq_s: float = 0.0
    makespan: float = 0.0
    seq_makespan: float = 0.0
    peak_bytes: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    threads_live: int = 0
    records_live: int = 0
    protocol_events: int = 0
    #: virtual-time waste ledger (traced passes only: needs spans)
    wasted: float = 0.0
    work_total: float = 0.0
    #: mean pool-worker utilization (traced pool passes only)
    utilization: Optional[float] = None
    #: calibrate.scale of the host calibrations around this case (1.0: not
    #: scaled)
    scale: float = 1.0


def check(case: Case, system, result, reference) -> List[str]:
    """Every way the committed run can disagree with the reference."""
    problems = []
    for sink in sorted(reference.sinks):
        if result.sink_output(sink) != reference.sink_output(sink):
            problems.append(f"sink {sink!r} output differs from sequential")
    if sorted(result.completion_times) != sorted(reference.completion_times):
        problems.append(
            f"completed processes {sorted(result.completion_times)} != "
            f"sequential {sorted(reference.completion_times)}")
    for name, state in sorted(result.final_states.items()):
        if dict(state) != dict(reference.final_states.get(name, {})):
            problems.append(f"final state of {name!r} differs from sequential")
    if case.compare_traces:
        try:
            assert_equivalent(result.trace, reference.trace,
                              label_b="sequential",
                              free_interleaving=case.free_interleaving)
        except TraceMismatchError as exc:
            problems.append(str(exc))
    if result.unresolved:
        problems.append(f"unresolved processes: {result.unresolved}")
    try:
        validate_run(system)
    except ProtocolError as exc:
        problems.extend(str(exc).splitlines())
    if case.certify:
        problems.extend(v.describe() for v in check_system(system))
    problems.extend(f"exec failure: {f}" for f in result.exec_failures)
    return problems


def _collect(row: SystemRun, system, result) -> None:
    row.makespan = result.makespan
    row.counters = dict(result.stats.counters)
    row.threads_live = sum(len(rt.threads) for rt in system.runtimes.values())
    row.records_live = sum(len(rt.records) for rt in system.runtimes.values())
    row.protocol_events = len(result.protocol_log)
    if result.spans:
        waste = wasted_work(result.spans)
        row.wasted, row.work_total = waste.wasted, waste.total
        records = getattr(system.backend, "wall_records", None)
        if records:
            row.utilization = pool_report(
                result.spans, records,
                backend=system.backend).mean_utilization()


def run_case(index: int, case: Case, recorder: Optional[SpanRecorder] = None,
             memory: bool = False) -> SystemRun:
    """Reference, set-up, run and check of one case."""
    row = SystemRun(case.label, case.size)
    try:
        reference_system = case.build_reference()
        t0 = perf_counter()
        reference = reference_system.run()
        row.seq_s = perf_counter() - t0
        row.seq_makespan = reference.makespan
        if memory:
            tracemalloc.start()
        if recorder is not None:
            recorder.install()
            recorder.system = index
            recorder.phase = "setup"
            root = recorder.open("build", "csp")
        system = None
        try:
            t0 = perf_counter()
            system = case.build()
            row.setup_s = perf_counter() - t0
            if recorder is not None:
                recorder.close(root)
                recorder.phase = "run"
            if memory:
                tracemalloc.reset_peak()
            t0 = perf_counter()
            result = system.run()
            row.run_s = perf_counter() - t0
            if memory:
                row.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            if recorder is not None:
                recorder.uninstall()
            if memory:
                tracemalloc.stop()
            if system is not None:
                # a run that raised or stopped early leaves pool workers
                system.backend.shutdown()
        row.problems = check(case, system, result, reference)
        _collect(row, system, result)
    except Exception:  # a crashing system is a failed system, not a crash
        row.problems = ["exception:\n" + traceback.format_exc()]
    for problem in row.problems:
        print(f"FAIL {case.label}: {problem}", file=sys.stderr)
    return row


def run_pass(cases: Sequence[Case], recorder: Optional[SpanRecorder] = None,
             memory: bool = False,
             calibrator: Optional[Calibrator] = None) -> List[SystemRun]:
    """Every case once.

    With a ``calibrator``, calibrate before the first case and after every
    :data:`CALIBRATE_EVERY` seconds of cases, and give each case the scale
    of the mean of the two calibrations around it.
    """
    rows: List[SystemRun] = []
    since: List[SystemRun] = []
    last = _calibrate(calibrator) if calibrator else 0.0
    mark = perf_counter()
    for index, case in enumerate(cases):
        row = run_case(index, case, recorder, memory)
        rows.append(row)
        since.append(row)
        if calibrator and (perf_counter() - mark >= CALIBRATE_EVERY
                           or index == len(cases) - 1):
            now = _calibrate(calibrator)
            for done in since:
                done.scale = scale((last + now) / 2)
            since, last, mark = [], now, perf_counter()
    return rows


def _calibrate(calibrator: Calibrator) -> float:
    # collect cyclic garbage first: the calibration must not pay for the
    # last case's, and the next case starts from a clean heap
    gc.collect()
    return calibrator()


# ------------------------------------------------------------- statistics

def tail_percentile(values: Sequence[float]):
    """``(p, value)`` for the highest percentile with >= 10 samples beyond.

    ``None`` when the sample is too small for any percentile above the
    median (fewer than 20 samples).
    """
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return p, cuts[p - 1]


def total(rows: Sequence[SystemRun], attr: str) -> float:
    return sum(getattr(row, attr) for row in rows)


def scaled(rows: Sequence[SystemRun], attr: str) -> float:
    """A time summed over the cases, at reference speed."""
    return sum(getattr(row, attr) * row.scale for row in rows)


def counter_total(rows: Sequence[SystemRun], key: str) -> float:
    return sum(row.counters.get(key, 0) for row in rows)
