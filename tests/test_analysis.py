"""Protocol-log analysis utilities."""

from repro.core.analysis import (
    abort_cascades,
    guess_lifetimes,
    max_speculation_depth,
    rollback_counts,
    speculation_depth_series,
    summarize,
)
from repro.workloads.generators import ChainSpec, run_chain_optimistic
from repro.workloads.scenarios import run_fig3_streaming, run_fig5_value_fault


def test_lifetimes_fig3():
    res = run_fig3_streaming().optimistic
    lts = guess_lifetimes(res)
    assert len(lts) == 1
    lt = lts[0]
    assert lt.outcome == "committed"
    assert lt.site == "call0"
    assert lt.forked_at == 0.0
    assert lt.in_doubt_for == 11.0


def test_lifetimes_fig5_abort_reason():
    res = run_fig5_value_fault().optimistic
    lts = guess_lifetimes(res)
    assert lts[0].outcome == "aborted"
    assert lts[0].abort_reason == "value_fault"


def test_depth_series_streaming_chain():
    spec = ChainSpec(n_calls=6, n_servers=2, latency=5.0, service_time=0.5)
    res = run_chain_optimistic(spec)
    series = speculation_depth_series(res)
    # all five forks at t=0 push depth to 5, then commits drain it to 0
    assert max_speculation_depth(res) == 5
    assert series[-1][1] == 0


def test_abort_cascades_group_nested_aborts():
    spec = ChainSpec(n_calls=6, n_servers=1, latency=4.0, service_time=0.5,
                     p_fail=1.0, seed=1)
    res = run_chain_optimistic(spec)
    cascades = abort_cascades(res)
    assert cascades, "always-failing chain must abort"
    # the first fault takes the whole speculative tail down with it
    assert max(len(c) for c in cascades) >= 2


def test_rollback_counts_by_process():
    res = run_fig5_value_fault().optimistic
    counts = rollback_counts(res)
    assert counts.get("Z", 0) == 1


def test_summary_lines_render():
    spec = ChainSpec(n_calls=8, n_servers=2, latency=5.0, service_time=0.5,
                     p_fail=0.4, seed=7)
    res = run_chain_optimistic(spec)
    summary = summarize(res)
    assert summary.forks == summary.commits + summary.aborts
    assert summary.mean_doubt_time > 0
    text = "\n".join(summary.lines())
    assert "forks=" in text and "cascades=" in text
