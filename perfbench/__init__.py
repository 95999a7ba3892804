"""End-to-end benchmark of the optimistic CSP runtime.

One command (``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``) runs a workload through the public API —
program builders -> ``OptimisticSystem`` -> ``sim`` kernel -> executor
backend -> committed output — checks every committed output against
``SequentialSystem`` and prints its metrics.  ``--trace 1`` adds a separate
pass that attributes host time to the package's layers by wrapping their
public classes from outside (:mod:`perfbench.tracing`).

See ``perfbench/README.md`` for the workloads, metrics and first values.
"""
