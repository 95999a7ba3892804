"""Experiment C11 — the anatomy of speculation under increasing fault rates.

Uses the protocol-log analysis tools to expose the quantities the paper
reasons about informally: how deep speculation runs, how long guesses stay
in doubt, how large the abort cascades get as guesses degrade — and, via
the forensics layer, how much traced segment time each fault rate wastes
and how much of the makespan the committed critical path explains
(:mod:`repro.obs.forensics`, :mod:`repro.obs.critical_path`; the same
quantities ``make bench-obs`` gates in ``BENCH_obs.json``).
"""

import numpy as np

from repro.bench import Table, emit
from repro.core.analysis import summarize
from repro.obs.critical_path import critical_path
from repro.obs.forensics import wasted_work
from repro.obs.tracer import RecordingTracer
from repro.workloads.generators import ChainSpec, run_chain_optimistic


def run_point(p_fail: float, seeds=range(5)):
    rows = []
    for seed in seeds:
        spec = ChainSpec(n_calls=10, n_servers=2, latency=5.0,
                         service_time=0.5, p_fail=p_fail, seed=seed)
        tracer = RecordingTracer()
        res = run_chain_optimistic(spec, tracer=tracer)
        rows.append((summarize(res),
                     wasted_work(res.spans),
                     critical_path(res.spans)))
    return rows


def test_c11_speculation_anatomy(benchmark):
    table = Table(
        "C11: speculation anatomy vs fault rate (10-call chain, 5 seeds)",
        ["p_fail", "forks/run", "aborts/run", "max depth",
         "mean doubt time", "largest cascade", "wasted frac", "cp util"],
    )
    depths = {}
    wasted = {}
    for p_fail in [0.0, 0.2, 0.5, 0.8]:
        rows = run_point(p_fail)
        summaries = [s for s, _, _ in rows]
        table.add(
            p_fail,
            float(np.mean([s.forks for s in summaries])),
            float(np.mean([s.aborts for s in summaries])),
            max(s.max_depth for s in summaries),
            float(np.mean([s.mean_doubt_time for s in summaries])),
            max(s.largest_cascade for s in summaries),
            float(np.mean([w.wasted_fraction for _, w, _ in rows])),
            float(np.mean([cp.utilization for _, _, cp in rows])),
        )
        depths[p_fail] = max(s.max_depth for s in summaries)
        wasted[p_fail] = float(np.mean([w.wasted_fraction
                                        for _, w, _ in rows]))
    # fault-free runs speculate to the full chain depth
    assert depths[0.0] == 9
    # ... and, having nothing to roll back, waste no segment time
    assert wasted[0.0] == 0.0
    # degrading guesses destroy an increasing share of the traced work
    assert wasted[0.8] > wasted[0.2] > 0.0
    # a failure truncates speculation, so cascades appear
    high = run_point(0.8)
    assert max(s.largest_cascade for s, _, _ in high) >= 2
    table.note("max depth = outstanding guesses at once; a cascade is one "
               "abort event taking its nested speculative tail with it; "
               "wasted frac / cp util come from the forensics layer "
               "(python -m repro explain, make bench-obs)")
    emit(table, "c11_anatomy.txt")

    benchmark(lambda: run_point(0.5, seeds=[0]))
