"""Every metric the benchmark prints: unit, direction and what it explains.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` keeps
the two in step.  ``PER_LAYER`` records, before any optimisation is
measured, which end-to-end metric each layer metric is expected to move
and on which workload.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Metric(NamedTuple):
    unit: str
    better: str
    #: (end-to-end metric, workloads) pairs this metric should move
    moves: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: regression bound (end-to-end metrics only)
    bound: float = 0.0


ALL = ("stream_chain", "duplex_rollback", "chaos_zoo", "pool_cpu")
CHAIN, DUPLEX, CHAOS, POOL = ALL

END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", bound=0.25),
    "run_s": Metric("s", "lower", bound=0.25),
    "virtual_speedup": Metric("x", "higher", bound=0.05),
    "peak_mem_mb": Metric("MB", "lower", bound=0.1),
}

PER_LAYER: Dict[str, Metric] = {
    # core: resolution (histories, incarnations, CDG)
    "core.resolution_s": Metric("s", "lower",
                                (("run_s", (CHAIN, DUPLEX)),)),
    "core.resolution_share": Metric("fraction", "lower",
                                    (("run_s", (CHAIN,)),)),
    "core.status_calls": Metric("count", "lower", (("run_s", (CHAIN,)),)),
    "core.guard_tag_units": Metric("count", "lower", (("run_s", (CHAIN,)),)),
    "core.forks": Metric("count", "higher",
                         (("virtual_speedup", (DUPLEX,)),
                          ("run_s", (DUPLEX,)))),
    "core.commits": Metric("count", "higher",
                           (("virtual_speedup", (DUPLEX,)),
                            ("run_s", (DUPLEX,)))),
    "core.aborts": Metric("count", "lower",
                          (("virtual_speedup", (DUPLEX,)),
                           ("run_s", (DUPLEX,)))),
    "core.abort_ratio": Metric("fraction", "lower",
                               (("virtual_speedup", (DUPLEX,)),
                                ("run_s", (DUPLEX,)))),
    "core.protocol_events": Metric("count", "lower",
                                   (("run_s", (CHAIN,)),
                                    ("peak_mem_mb", (CHAIN,)))),
    "core.host_cost_ratio": Metric("x", "lower", (("run_s", (CHAIN,)),)),
    # core: the rest of the runtime (dispatch, threads, guards, glue)
    "core.runtime_s": Metric("s", "lower", (("run_s", ALL),)),
    # core: state (snapshots, journals)
    "state.s": Metric("s", "lower", (("run_s", (DUPLEX,)),)),
    "state.captures": Metric("count", "lower", (("run_s", (DUPLEX,)),)),
    "state.restores": Metric("count", "lower", (("run_s", (DUPLEX,)),)),
    "state.full_copies": Metric("count", "lower", (("run_s", (DUPLEX,)),)),
    "state.threads_live": Metric("count", "lower",
                                 (("peak_mem_mb", (CHAIN,)),)),
    "state.records_live": Metric("count", "lower",
                                 (("peak_mem_mb", (CHAIN,)),)),
    # core: transport (reliable framing, network sends)
    "transport.s": Metric("s", "lower", (("run_s", (CHAOS,)),)),
    "transport.msgs_data": Metric("count", "lower", (("run_s", (CHAOS,)),)),
    "transport.msgs_control": Metric("count", "lower",
                                     (("run_s", (CHAOS,)),)),
    "transport.retransmits": Metric("count", "lower",
                                    (("run_s", (CHAOS,)),)),
    # sim kernel
    "sim.kernel_s": Metric("s", "lower", (("run_s", (CHAOS,)),)),
    "sim.events": Metric("count", "lower", (("run_s", ALL),)),
    "sim.us_per_event": Metric("us", "lower", (("run_s", ALL),)),
    "sim.wheel_timers_armed": Metric("count", "lower",
                                     (("run_s", (CHAOS,)),)),
    # exec backends
    "exec.submit_s": Metric("s", "lower", (("run_s", (POOL,)),)),
    "exec.gate_block_s": Metric("s", "lower", (("run_s", (POOL,)),)),
    "exec.serial_fraction": Metric("fraction", "lower",
                                   (("run_s", (POOL,)),)),
    "exec.tasks_submitted": Metric("count", "lower", (("run_s", (POOL,)),)),
    "exec.tasks_cancelled": Metric("count", "lower", (("run_s", (POOL,)),)),
    "exec.worker_utilization": Metric("fraction", "higher",
                                      (("run_s", (POOL,)),)),
    # static analysis
    "analyze.s": Metric("s", "lower", (("setup_s", (CHAOS,)),)),
    "analyze.calls": Metric("count", "lower", (("setup_s", (CHAOS,)),)),
    "analyze.setup_share": Metric("fraction", "lower",
                                  (("setup_s", (CHAOS,)),)),
    # csp reference interpreter (denominator of core.host_cost_ratio)
    "csp.sequential_s": Metric("s", "lower"),
    # observability
    "obs.s": Metric("s", "lower"),
    "obs.wasted_work_fraction": Metric("fraction", "lower",
                                       (("virtual_speedup", (DUPLEX,)),)),
    "obs.tracer_overhead": Metric("fraction", "lower"),
    # host-cost scaling: log2 of the run-time ratio for a doubled chain
    "scale.host_exponent": Metric("log2", "lower", (("run_s", (CHAIN,)),)),
}
