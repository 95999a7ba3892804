"""Turn passes into metrics, print them, and build the result object.

Times are reported at reference speed: the cases of a pass are bracketed
by calibrations (:mod:`perfbench.calibrate`) and each case's seconds are
scaled by :func:`perfbench.calibrate.scale` of the mean of the two around
it.  The raw medians are printed alongside.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import RecordingTracer

from perfbench.calibrate import Calibrator
from perfbench.catalogue import END_TO_END, PER_LAYER
from perfbench.measure import (
    SystemRun,
    counter_total,
    run_case,
    run_pass,
    scaled,
    tail_percentile,
    total,
)
from perfbench.tracing import SpanRecorder, inclusive_time, layer_self_times
from perfbench.workloads import SIZE_LADDERS, WORKLOADS, Case

#: sample passes a run makes at least, however long a pass takes
MIN_PASSES = 3


@dataclass
class Pass:
    """Every case built and run once."""

    rows: List[SystemRun]
    recorder: Optional[SpanRecorder] = None

    def seconds(self, attr: str) -> float:
        """A time summed over the cases, at reference speed."""
        return scaled(self.rows, attr)


def timed_passes(cases: Sequence[Case], budget: float, minimum: int,
                 make_recorder: Optional[Callable[[], SpanRecorder]] = None,
                 ) -> List[Pass]:
    """Passes until ``budget`` seconds have gone, and at least ``minimum``."""
    out: List[Pass] = []
    with Calibrator(max(case.cores for case in cases)) as calibrator:
        start = perf_counter()
        while len(out) < minimum or perf_counter() - start < budget:
            recorder = make_recorder() if make_recorder else None
            out.append(Pass(run_pass(cases, recorder, calibrator=calibrator),
                            recorder))
    return out


def note_nondeterminism(reference: Pass, passes: Sequence[Pass]) -> None:
    """Virtual makespans are deterministic: a pass that differs fails."""
    for p in passes:
        for ref, row in zip(reference.rows, p.rows):
            if not ref.problems and not row.problems \
                    and (row.makespan, row.seq_makespan) \
                    != (ref.makespan, ref.seq_makespan):
                row.problems.append(
                    f"virtual makespan {row.makespan} differs from the "
                    f"first pass's {ref.makespan}")


def host_exponent(workload: str, cases: Sequence[Case],
                  passes: Sequence[Pass]) -> float:
    """log-log slope of run time against size across a size ladder."""
    if workload not in SIZE_LADDERS:
        return 0.0
    small, large = 0, len(cases) - 1
    runs = [median([p.rows[i].run_s * p.rows[i].scale for p in passes])
            for i in (small, large)]
    return (math.log(runs[1] / runs[0])
            / math.log(cases[large].size / cases[small].size))


def end_to_end(passes: Sequence[Pass], memory: Pass) -> Dict[str, float]:
    first = passes[0].rows
    return {
        "setup_s": median([p.seconds("setup_s") for p in passes]),
        "run_s": median([p.seconds("run_s") for p in passes]),
        "virtual_speedup": (total(first, "seq_makespan")
                            / total(first, "makespan")),
        "peak_mem_mb": max(row.peak_bytes for row in memory.rows) / 2**20,
    }


# --------------------------------------------------------------- per layer

RUN_LAYERS = {
    "core.resolution_s": "core.resolution",
    "core.runtime_s": "core",
    "state.s": "core.state",
    "transport.s": "core.transport",
    "sim.kernel_s": "sim",
    "obs.s": "obs",
}


def attributed(p: Pass) -> Dict[Tuple[str, str], float]:
    """Self seconds per ``(phase, layer)``, pool gate waits moved to exec.

    A pool backend's gate runs as a scheduler event, outside any wrapped
    call, so its blocking wait lands in the ``core`` root span; the
    backend's own ``wall.gate_block_ms`` ledger gives it back to ``exec``.
    Seconds are at reference speed (each system's spans by its scale).
    """
    selfs = layer_self_times(p.recorder.spans,
                             [row.scale for row in p.rows])
    for row in p.rows:
        gate = row.counters.get("wall.gate_block_ms", 0) / 1e3 * row.scale
        if gate:
            selfs[("run", "core")] = selfs.get(("run", "core"), 0.0) - gate
            selfs[("run", "exec")] = selfs.get(("run", "exec"), 0.0) + gate
    return selfs


def _traced_times(p: Pass) -> Dict[str, float]:
    """Time-valued per-layer figures of one traced pass."""
    selfs = attributed(p)
    run = p.seconds("run_s")
    setup = p.seconds("setup_s")
    out = {name: selfs.get(("run", layer), 0.0)
           for name, layer in RUN_LAYERS.items()}
    out["analyze.s"] = sum(v for (_, layer), v in selfs.items()
                           if layer == "analyze")
    out["analyze.setup_share"] = (selfs.get(("setup", "analyze"), 0.0)
                                  / setup if setup else 0.0)
    out["core.resolution_share"] = out["core.resolution_s"] / run
    out["exec.submit_s"] = sum(
        seconds * p.rows[system].scale
        for name in p.recorder.layer_of if name.endswith(".submit_segment")
        for system, seconds in inclusive_time(p.recorder.spans, name,
                                              "run").items())
    gate = sum(row.counters.get("wall.gate_block_ms", 0) / 1e3 * row.scale
               for row in p.rows)
    out["exec.gate_block_s"] = gate
    out["exec.serial_fraction"] = 1.0 - gate / run
    utilization = [r.utilization for r in p.rows if r.utilization is not None]
    out["exec.worker_utilization"] = (sum(utilization) / len(utilization)
                                      if utilization else 0.0)
    out["traced_run_s"] = run
    return out


def per_layer(workload: str, cases: Sequence[Case], passes: Sequence[Pass],
              traced: Sequence[Pass]) -> Dict[str, float]:
    untraced_run = median([p.seconds("run_s") for p in passes])
    sequential = median([p.seconds("seq_s") for p in passes])
    per_pass = [_traced_times(p) for p in traced]
    out = {key: median([t[key] for t in per_pass]) for key in per_pass[0]}
    rows, recorder = traced[0].rows, traced[0].recorder
    forks = counter_total(rows, "opt.forks")
    aborts = counter_total(rows, "opt.aborts")
    events = counter_total(rows, "sim.events_processed")
    work = total(rows, "work_total")
    out.update({
        "core.status_calls": recorder.calls["SystemView.status"],
        "core.guard_tag_units": counter_total(rows, "opt.guard_tag_units"),
        "core.forks": forks,
        "core.commits": counter_total(rows, "opt.commits"),
        "core.aborts": aborts,
        "core.abort_ratio": aborts / forks if forks else 0.0,
        "core.protocol_events": total(rows, "protocol_events"),
        "core.host_cost_ratio": untraced_run / sequential,
        "state.captures": counter_total(rows, "snap.captures"),
        "state.restores": counter_total(rows, "snap.restores"),
        "state.full_copies": counter_total(rows, "snap.full_copies"),
        "state.threads_live": total(rows, "threads_live"),
        "state.records_live": total(rows, "records_live"),
        "transport.msgs_data": counter_total(rows, "net.msgs.data"),
        "transport.msgs_control": counter_total(rows, "net.msgs.control"),
        "transport.retransmits": counter_total(rows, "net.retransmits"),
        "sim.events": events,
        "sim.us_per_event": untraced_run / events * 1e6,
        "sim.wheel_timers_armed": counter_total(rows,
                                                "sim.wheel_timers_armed"),
        "exec.tasks_submitted": counter_total(rows, "exec.tasks_submitted"),
        "exec.tasks_cancelled": counter_total(rows, "exec.tasks_cancelled"),
        "analyze.calls": sum(n for name, n in recorder.calls.items()
                             if recorder.layer_of[name] == "analyze"),
        "csp.sequential_s": sequential,
        "obs.wasted_work_fraction": (total(rows, "wasted") / work
                                     if work else 0.0),
        "obs.tracer_overhead": out["traced_run_s"] / untraced_run - 1.0,
        "scale.host_exponent": host_exponent(workload, cases, passes),
    })
    return out


def layer_table(p: Pass) -> List[str]:
    """Self seconds, share of the phase and calls per (phase, layer)."""
    selfs = attributed(p)
    phase_time = {"setup": p.seconds("setup_s"), "run": p.seconds("run_s")}
    calls: Dict[str, int] = {}
    for name, n in p.recorder.calls.items():
        layer = p.recorder.layer_of[name]
        calls[layer] = calls.get(layer, 0) + n
    lines = [f"  {'phase':<6} {'layer':<16} {'self_s':>9} {'share':>7} "
             f"{'calls':>9}"]
    for (phase, layer), seconds in sorted(selfs.items()):
        share = seconds / phase_time[phase] if phase_time[phase] else 0.0
        n = calls.get(layer, 0) if phase == "run" or layer == "analyze" else 0
        lines.append(f"  {phase:<6} {layer:<16} {seconds:>9.4f} "
                     f"{share:>6.1%} {n:>9}")
    return lines


# ------------------------------------------------------------------ report

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seed: int, seconds: float, traced: bool,
           out_dir: str) -> dict:
    cases = WORKLOADS[workload](seed)
    # one untimed system first: lazy imports and first-call caches
    warm = [run_case(0, cases[0])]
    untraced = timed_passes(cases, seconds / 2 if traced else seconds,
                            MIN_PASSES)
    note_nondeterminism(untraced[0], untraced[1:])
    every: List[List[SystemRun]] = [warm] + [p.rows for p in untraced]
    scales = [row.scale for p in untraced for row in p.rows]
    print(f"{workload} seed {seed}: {len(cases)} systems per pass, "
          f"{len(untraced)} untraced passes; host speed "
          f"{_fmt(median(scales))}x reference "
          f"(range {_fmt(min(scales))}-{_fmt(max(scales))})")

    if traced:
        traced_passes = timed_passes(
            cases, seconds / 2, 1,
            lambda: SpanRecorder(tracer_factory=RecordingTracer))
        note_nondeterminism(untraced[0], traced_passes)
        every += [p.rows for p in traced_passes]
        values = per_layer(workload, cases, untraced, traced_passes)
        first = traced_passes[0]
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir,
                                  f"{workload}-seed{seed}.spans.jsonl")
        first.recorder.write_jsonl(spans_path)
        print(f"per-layer attribution, first of {len(traced_passes)} traced "
              f"passes ({len(first.recorder.spans)} spans in {spans_path}):")
        for line in layer_table(first):
            print(line)
        for name, metric in PER_LAYER.items():
            moves = "; ".join(f"{e2e} on {', '.join(w)}"
                              for e2e, w in metric.moves)
            print(f"  {name:<26} {_fmt(values[name]):>12} {metric.unit:<8}"
                  + (f" moves {moves}" if moves else ""))
        print(f"  obs.tracer_overhead: traced run_s "
              f"{_fmt(values['traced_run_s'])} s vs untraced "
              f"{_fmt(median([p.seconds('run_s') for p in untraced]))} s")
        metrics = {name: {"value": values[name], "unit": metric.unit}
                   for name, metric in PER_LAYER.items()}
    else:
        memory = Pass(run_pass(cases, memory=True))
        note_nondeterminism(untraced[0], [memory])
        every.append(memory.rows)
        values = end_to_end(untraced, memory)
        runs = [p.seconds("run_s") for p in untraced]
        tail = tail_percentile(runs)
        raw = {attr: median([total(p.rows, attr) for p in untraced])
               for attr in ("setup_s", "run_s")}
        print(f"  setup_s          {_fmt(values['setup_s'])} s "
              f"(median of {len(untraced)} passes; raw "
              f"{_fmt(raw['setup_s'])} s)")
        print(f"  run_s            {_fmt(values['run_s'])} s "
              f"(median of {len(runs)} passes; raw {_fmt(raw['run_s'])} s; "
              + (f"p{tail[0]} {_fmt(tail[1])} s)" if tail else
                 "too few passes for a tail percentile)"))
        first = untraced[0].rows
        print(f"  virtual_speedup  {_fmt(values['virtual_speedup'])} x "
              f"(sequential {_fmt(total(first, 'seq_makespan'))} / "
              f"optimistic {_fmt(total(first, 'makespan'))} virtual units)")
        print(f"  peak_mem_mb      {_fmt(values['peak_mem_mb'])} MB "
              f"(tracemalloc peak over the run phase, largest system)")
        metrics = {name: {"value": values[name], "unit": metric.unit}
                   for name, metric in END_TO_END.items()}

    attempted = sum(len(rows) for rows in every)
    failed = sum(1 for rows in every for row in rows if row.problems)
    print(f"  error_rate       {_fmt(failed / attempted)} "
          f"({failed} of {attempted} systems failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
