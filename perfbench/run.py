"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_chain --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off).  ``--trace
1`` measures untraced passes for half the time, then traced passes for
the other half, prints the per-layer table and writes the first traced
pass's spans to ``.perfbench_out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exit status is 0 only when every system run matched its sequential
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: set and dict iteration orders (and with them how much work the runtime's
#: sweeps do) follow the string hash seed; fixing it makes host work and
#: every count repeat from one run to the next
HASH_SEED = "0"


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}/repro; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [p for p in (ROOT, SRC) if p not in sys.path]

    from perfbench.report import report
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    try:
        result = report(args.workload, args.seed, args.seconds,
                        traced=bool(args.trace),
                        out_dir=os.path.join(ROOT, ".perfbench_out"))
    finally:
        reap_children()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def reap_children() -> None:
    """Stop every process the run started and wait until each has ended."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()


if __name__ == "__main__":
    sys.exit(main())
