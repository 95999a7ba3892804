"""The benchmark's own contract: seeds, names, self times, wrappers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from repro.obs import RecordingTracer

from perfbench.catalogue import END_TO_END, PER_LAYER
from perfbench.measure import run_pass
from perfbench.report import Pass, per_layer
from perfbench.tracing import (
    HOT,
    ID,
    PARENT,
    START,
    END,
    TARGETS,
    SpanRecorder,
    layer_self_times,
    self_times,
)
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: deterministic per-layer figures: counts and virtual-time ledgers
COUNTED = [name for name, m in PER_LAYER.items()
           if name.split(".")[0] in ("core", "state", "sim", "transport")
           and m.unit in ("count", "fraction")
           and name != "core.resolution_share"] + ["obs.wasted_work_fraction"]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _references(cases):
    out = []
    for case in cases:
        result = case.build_reference().run()
        out.append((result.makespan, result.trace, result.final_states))
    return out


# ------------------------------------------------------------------ names

def test_metric_names_match_pattern():
    spec = _benchmark_json()
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]]
             + list(END_TO_END) + list(PER_LAYER))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_catalogue():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == {
        name: (m.unit, m.better, m.bound) for name, m in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (m.unit, m.better) for name, m in PER_LAYER.items()}


# ------------------------------------------------------------------ seeds

@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = WORKLOADS[workload](5)
    again = WORKLOADS[workload](5)
    assert [c.inputs for c in first] == [c.inputs for c in again]
    assert _references(first[:3]) == _references(again[:3])
    if workload != "chaos_zoo":  # replays fixed schedules (see chaos_zoo)
        other = WORKLOADS[workload](6)
        assert [c.inputs for c in other] != [c.inputs for c in first]


def _deterministic(workload, seed, limit=None):
    cases = WORKLOADS[workload](seed)[:limit]
    untraced = [Pass(run_pass(cases))]
    recorder = SpanRecorder(tracer_factory=RecordingTracer)
    traced = [Pass(run_pass(cases, recorder), recorder)]
    assert not any(row.problems for p in untraced + traced for row in p.rows)
    values = per_layer(workload, cases, untraced, traced)
    first = untraced[0].rows
    speedup = (sum(r.seq_makespan for r in first)
               / sum(r.makespan for r in first))
    return speedup, {name: values[name] for name in COUNTED}


@pytest.mark.parametrize("workload,limit", [
    ("stream_chain", None), ("duplex_rollback", 2), ("chaos_zoo", 6)])
def test_same_seed_same_deterministic_metrics(workload, limit):
    assert _deterministic(workload, 3, limit) \
        == _deterministic(workload, 3, limit)


def _command(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_counts_repeat_between_processes():
    """Set order follows the hash seed; the command pins it."""
    runs = []
    for _ in range(2):
        proc = _command("duplex_rollback", 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({name: result["metrics"][name]["value"]
                     for name in COUNTED})
    assert runs[0] == runs[1]


# ------------------------------------------------------------- self times

def _span(span_id, parent, start, end, hot=0.0):
    span = [span_id, f"s{span_id}", "layer", "run", 0, parent, start, end,
            hot, 0]
    assert (span[ID], span[PARENT], span[START], span[END], span[HOT]) \
        == (span_id, parent, start, end, hot)
    return span


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, -1, 0.0, 10.0),          # root
        _span(1, 0, 1.0, 4.0),            # child
        _span(2, 1, 2.0, 3.0),            # grandchild
        _span(3, 0, 5.0, 9.0, hot=1.0),   # child with folded hot calls
        _span(4, 0, 8.5, 9.5),            # overlaps 3 and overhangs it
    ]
    selfs = self_times(spans)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    # root covered by [1,4] u [5,9.5] = 7.5 of its 10 seconds
    assert selfs[0] == pytest.approx(2.5)


def test_layer_self_times_count_hot_as_resolution():
    spans = [_span(0, -1, 0.0, 4.0, hot=1.5), _span(1, 0, 1.0, 2.0)]
    spans[1][2] = "sim"
    assert layer_self_times(spans) == pytest.approx(
        {("run", "layer"): 1.5, ("run", "sim"): 1.0,
         ("run", "core.resolution"): 1.5})


def test_traced_pass_self_times_add_up_to_run_time():
    cases = WORKLOADS["stream_chain"](1)[:1]
    recorder = SpanRecorder()
    rows = run_pass(cases, recorder)
    run_self = sum(v for (phase, _), v in
                   layer_self_times(recorder.spans).items() if phase == "run")
    assert run_self == pytest.approx(rows[0].run_s, rel=0.02)


# --------------------------------------------------------------- wrappers

def _originals():
    import importlib

    out = {}
    for module_name, cls_name, attrs, _, _ in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls_name) if cls_name else module
        for attr in attrs + ("__init__", "receiver") if cls_name else attrs:
            out[(module_name, cls_name, attr)] = getattr(owner, attr, None)
    return out


def test_recorder_restores_every_target():
    before = _originals()
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert _originals() != before
    finally:
        recorder.uninstall()
    assert _originals() == before


# ---------------------------------------------------------------- command

def test_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command("stream_chain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
