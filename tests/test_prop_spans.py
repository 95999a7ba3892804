"""Span well-formedness over the random duplex space.

Every traced optimistic run — whatever the workload throws at the
protocol (wrong guesses on both sides, cross-process guard dependencies,
rollback chains) — must produce a structurally sound trace: stable ids,
closed intervals, every fork resolved by exactly one commit or abort,
and exporters that stay deterministic.  An untraced run's protocol log,
replayed through the same entry-to-span mapping, must give the protocol
spans the traced run recorded live.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import summarize
from repro.obs import spans as ob
from repro.obs.export import chrome_trace_json, spans_to_jsonl
from repro.obs.forensics import build_provenance
from repro.obs.spans import spans_from_protocol_log
from repro.obs.tracer import RecordingTracer
from repro.obs.validate import validate_chrome, validate_spans
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system
from repro.workloads.scenarios import run_fig4_time_fault, run_fig7_cycle

specs = st.builds(
    DuplexSpec,
    n_steps=st.integers(1, 6),
    n_signals=st.integers(0, 3),
    n_servers=st.integers(1, 3),
    latency=st.floats(0.5, 10.0),
    service_time=st.floats(0.0, 2.0),
    seed=st.integers(0, 100_000),
    wrong_guess_bias=st.sampled_from([1, 3, 5]),
)


def traced_run(spec):
    tracer = RecordingTracer()
    system = build_duplex_system(spec, optimistic=True, tracer=tracer)
    result = system.run()
    return result, tracer.spans()


@settings(max_examples=50, deadline=None)
@given(spec=specs)
def test_duplex_spans_well_formed(spec):
    result, spans = traced_run(spec)
    # strict: every guess must resolve (runs quiesce, nothing truncated)
    counts = validate_spans(spans, strict=True)
    assert counts["guesses"] == counts["commits"] + counts["aborts"]

    guesses = [s for s in spans if s.kind == ob.GUESS]
    for span in guesses:
        assert span.end is not None and span.end >= span.start
        assert span.attrs["outcome"] in ("commit", "abort")
        if span.attrs["outcome"] == "abort":
            assert span.attrs.get("reason")

    # spans must agree with the runtime's own accounting
    stats = result.stats.counters
    assert counts["guesses"] == stats.get("opt.forks", 0)
    assert counts["commits"] == stats.get("opt.commits", 0)
    assert counts["aborts"] == stats.get("opt.aborts", 0)


#: span kinds derived from protocol-log entries (live or replayed)
PROTOCOL_KINDS = (ob.GUESS, ob.ROLLBACK, ob.CONTINUATION, ob.ORPHAN,
                  ob.COMPLETE)


def protocol_view(spans):
    """Protocol spans minus sids and the traced-only guard lists."""
    return [
        (s.kind, s.name, s.process, s.start, s.end,
         {k: v for k, v in s.attrs.items() if k != "guard"})
        for s in spans if s.kind in PROTOCOL_KINDS
    ]


@settings(max_examples=25, deadline=None)
@given(spec=specs)
def test_duplex_span_analysis_matches_protocol_log(spec):
    """An untraced run's replayed log == the traced run's protocol spans."""
    _, spans = traced_run(spec)
    untraced = build_duplex_system(spec, optimistic=True).run()
    assert untraced.spans == []
    replayed = spans_from_protocol_log(untraced.protocol_log)
    assert protocol_view(replayed) == protocol_view(spans)

    from_spans = summarize(spans)
    from_log = summarize(untraced)
    assert (from_spans.forks, from_spans.commits, from_spans.aborts) == \
        (from_log.forks, from_log.commits, from_log.aborts)
    assert from_spans.max_depth == from_log.max_depth
    assert abs(from_spans.mean_doubt_time - from_log.mean_doubt_time) < 1e-9
    assert from_spans.rollbacks == from_log.rollbacks


@pytest.mark.parametrize("scenario", [run_fig4_time_fault, run_fig7_cycle])
def test_untraced_provenance_matches_traced(scenario):
    """Forensics read the same causes from the log as from live spans."""
    def optimistic(result):
        return getattr(result, "optimistic", result)

    traced = build_provenance(optimistic(scenario(tracer=RecordingTracer())))
    untraced = build_provenance(optimistic(scenario()))
    assert traced.guesses.keys() == untraced.guesses.keys()
    assert any(g.orphans_caused and g.rollbacks_caused and g.cycle
               for g in traced.guesses.values())
    for key, want in traced.guesses.items():
        got = untraced.guesses[key]
        assert (got.orphans_caused, got.rollbacks_caused, got.cycle,
                got.root, got.attribution) == \
            (want.orphans_caused, want.rollbacks_caused, want.cycle,
             want.root, want.attribution)
    assert untraced.attribution_counts() == traced.attribution_counts()


@settings(max_examples=20, deadline=None)
@given(spec=specs)
def test_duplex_exports_deterministic_and_valid(spec):
    _, first = traced_run(spec)
    _, second = traced_run(spec)
    chrome = chrome_trace_json(first)
    assert chrome == chrome_trace_json(second)
    assert spans_to_jsonl(first) == spans_to_jsonl(second)
    validate_chrome(json.loads(chrome))
