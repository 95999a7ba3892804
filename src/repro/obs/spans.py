"""The span schema: typed intervals and instants of a simulated run.

A :class:`Span` is one interval of virtual time attributed to a process —
the unit every execution mode (optimistic, sequential, pipelining,
promises, time warp) reports through, so traces from different runtimes
can be compared, merged and exported with the same tools.

Two span shapes exist:

* **interval spans** (``end > start`` possible): a guess's fork→resolution
  window, a segment execution, a server servicing one request;
* **instant events** (``end == start``): sends, receives, control
  messages, rollbacks, replays, orphan discards, timer firings.

Span ids are small integers assigned in creation order by the tracer, and
all primary timestamps are *virtual* time, so a trace of a deterministic
run is itself deterministic — byte-identical across repetitions — and can
be golden-tested.

Dual-clock spans
----------------

On a real executor backend (:mod:`repro.exec.pool`) a span may *also*
carry wall-clock observations: ``wall_start``/``wall_end`` (seconds, from
``time.perf_counter``) and the ``worker`` that performed the real labor.
The wall fields are strictly additive — they never appear in the virtual
fields or attrs, so the virtual-time projection of a trace stays
byte-identical across backends.  :meth:`Span.to_dict` only includes them
when present, which keeps virtual-backend JSONL exports unchanged.

A long-lived span can accumulate *several* labor bursts — a server's
``serve`` segment is one span but services many requests, each a separate
pool task.  The stamps then hold the burst *envelope* (first start, last
end, last worker) while ``wall_busy`` accumulates the exact busy seconds,
so :attr:`Span.wall_labor` never counts a server's idle gaps as labor.

The kind vocabulary is deliberately shared across modes: a promise that
has not resolved yet and a Time Warp event that may still roll back are
both "guesses in doubt" in the paper's sense, so they emit ``GUESS``
spans too and the same analysis (:mod:`repro.core.analysis`) reads all of
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

# --------------------------------------------------------------- span kinds

#: Speculation interval: fork→commit/abort for the optimistic runtime,
#: issue→resolve for a promise, process→commit/rollback for Time Warp.
#: Closed with ``outcome="commit"`` or ``outcome="abort"`` (plus
#: ``reason=`` for aborts).
GUESS = "guess"
#: One thread (or sequential process) executing one program segment.
SEGMENT = "segment"
#: A server servicing one request (pipelining/promise baselines).
SERVICE = "service"

#: Instant events.
SEND = "send"
RECV = "recv"
EMIT = "emit"
CONTROL = "control"
ROLLBACK = "rollback"
REPLAY = "replay"
CONTINUATION = "continuation"
ORPHAN = "orphan"
TIMER = "timer"
CDG_EDGE = "cdg_edge"
COMPLETE = "complete"

#: Kinds that are interval spans (may have positive duration).
INTERVAL_KINDS = frozenset({GUESS, SEGMENT, SERVICE})
#: Kinds that are zero-duration instants.
EVENT_KINDS = frozenset({
    SEND, RECV, EMIT, CONTROL, ROLLBACK, REPLAY, CONTINUATION,
    ORPHAN, TIMER, CDG_EDGE, COMPLETE,
})
#: The full shared vocabulary.
ALL_KINDS = INTERVAL_KINDS | EVENT_KINDS

#: ``outcome=`` attribute values a resolved GUESS span closes with.
COMMIT_OUTCOME = "commit"
ABORT_OUTCOME = "abort"


@dataclass(slots=True)
class Span:
    """One interval (or instant) of a run, in virtual time."""

    sid: int                         #: stable id, creation order
    kind: str                        #: one of the module-level kind names
    name: str                        #: display name (guess key, segment...)
    process: str                     #: owning process ("" = the substrate)
    start: float                     #: virtual start time
    end: Optional[float] = None      #: virtual end time (None while open)
    parent: Optional[int] = None     #: sid of the enclosing span, if any
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: wall-clock observations (real backends only; see module docstring)
    wall_start: Optional[float] = None   #: perf_counter() of real labor start
    wall_end: Optional[float] = None     #: perf_counter() of real labor end
    worker: Optional[str] = None         #: pool worker (or "driver")
    wall_busy: Optional[float] = None    #: accumulated busy seconds (bursts)

    @property
    def duration(self) -> Optional[float]:
        """Virtual-time length, or ``None`` while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def instant(self) -> bool:
        """True for zero-duration event spans."""
        return self.end == self.start

    @property
    def wall_duration(self) -> Optional[float]:
        """Wall-clock envelope length, or ``None`` without both stamps."""
        if self.wall_start is None or self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    @property
    def wall_labor(self) -> Optional[float]:
        """Exact busy seconds when bursts were tallied, else the envelope.

        Single-burst spans (a client segment's one compute task) have
        identical busy and envelope; multi-burst spans (a server's serve
        loop) differ, and driver-annotated guess windows — stamped start
        and end separately — carry only the envelope.
        """
        if self.wall_busy is not None:
            return self.wall_busy
        return self.wall_duration

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL exporter.

        Wall-clock fields are emitted only when captured, so virtual-only
        traces serialize exactly as they did before the dual-clock layer.
        """
        out = {
            "sid": self.sid,
            "kind": self.kind,
            "name": self.name,
            "process": self.process,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }
        if self.wall_start is not None or self.worker is not None:
            out["wall_start"] = self.wall_start
            out["wall_end"] = self.wall_end
            out["worker"] = self.worker
            if self.wall_busy is not None:
                out["wall_busy"] = self.wall_busy
        return out


def span_from_dict(data: Dict[str, Any]) -> Span:
    """Inverse of :meth:`Span.to_dict` (used to reload JSONL traces)."""
    return Span(
        sid=data["sid"], kind=data["kind"], name=data["name"],
        process=data["process"], start=data["start"], end=data.get("end"),
        parent=data.get("parent"), attrs=dict(data.get("attrs", {})),
        wall_start=data.get("wall_start"), wall_end=data.get("wall_end"),
        worker=data.get("worker"), wall_busy=data.get("wall_busy"),
    )


# ------------------------------------------------------ protocol-log spans

#: log kind -> (instant span kind, entry key naming the span; ``None``
#: names it after the span kind).  Kinds missing here and from the
#: fork/commit/abort guess lifecycle map to no span.
_INSTANTS = {
    "rollback": (ROLLBACK, None),
    "continuation": (CONTINUATION, "guess"),
    "orphan_discard": (ORPHAN, None),
    "tentative_complete": (COMPLETE, "kind"),
    "committed_complete": (COMPLETE, "kind"),
}
#: entry keys that never become attrs: the header, and ``msg_id`` — a
#: process-global counter that would make traces nondeterministic
_NOT_ATTRS = frozenset({"time", "process", "kind", "msg_id"})


class ProtocolSpans:
    """The one mapping from protocol-log entries to spans.

    A traced run feeds each entry through it as the entry is written;
    :func:`spans_from_protocol_log` replays it over a finished log, so
    both get the same protocol spans.  A ``fork`` opens a GUESS span that
    its ``commit``/``abort`` closes with ``outcome=`` plus the entry's
    other keys.  ``guard`` is the traced-only guard list handed over with
    a fork or orphan entry (never stored in it); ``wall`` reads the
    driver's wall clock for the guess window (real backends only).
    """

    __slots__ = ("tracer", "wall", "_open")

    def __init__(self, tracer: Any,
                 wall: Optional[Callable[[], Optional[float]]] = None):
        self.tracer = tracer
        self.wall = wall
        self._open: Dict[str, int] = {}   # guess key -> open GUESS sid

    def __call__(self, entry: Dict[str, Any],
                 guard: Optional[List[str]] = None) -> None:
        kind = entry["kind"]
        if kind in ("fork", "commit", "abort"):
            name_key: Optional[str] = "guess"
        elif kind in _INSTANTS:
            span_kind, name_key = _INSTANTS[kind]
        else:
            return
        attrs = {k: v for k, v in entry.items()
                 if k not in _NOT_ATTRS and k != name_key}
        if guard is not None:
            attrs["guard"] = guard
        if kind == "fork":
            sid = self.tracer.start_span(GUESS, entry["process"],
                                         entry["time"], name=entry["guess"],
                                         **attrs)
            self._open[entry["guess"]] = sid
            self._stamp_wall(sid, "start")
        elif kind in ("commit", "abort"):
            sid = self._open.pop(entry["guess"], None)
            if sid is not None:
                self.tracer.end_span(sid, entry["time"], outcome=kind,
                                     **attrs)
                self._stamp_wall(sid, "end")
        else:
            self.tracer.event(span_kind, entry["process"], entry["time"],
                              name=entry[name_key] if name_key else "",
                              **attrs)

    def _stamp_wall(self, sid: int, edge: str) -> None:
        """Stamp the guess window's ``edge`` on the driver's wall lane."""
        wall = self.wall() if self.wall is not None else None
        if wall is not None:
            self.tracer.annotate_wall(sid, worker="driver", **{edge: wall})


def spans_from_protocol_log(protocol_log: Iterable[dict]) -> List[Span]:
    """Replay :class:`ProtocolSpans` over a finished protocol log."""
    from .tracer import RecordingTracer  # tracer imports this module

    tracer = RecordingTracer()
    mapping = ProtocolSpans(tracer)
    for entry in protocol_log:
        mapping(entry)
    return tracer.spans()


def as_spans(source: Any) -> List[Span]:
    """Coerce any supported trace source into a span list.

    Accepts a span list, a run-result object (anything with ``spans``
    and/or ``protocol_log`` attributes), or ``None``.  Result objects
    prefer real tracer spans and otherwise replay the protocol log, so
    analyses work whether or not tracing was enabled for the run.
    """
    if source is None:
        return []
    if hasattr(source, "spans") or hasattr(source, "protocol_log"):
        spans = getattr(source, "spans", None)
        if spans:
            return list(spans)
        return spans_from_protocol_log(getattr(source, "protocol_log", []))
    items = list(source)
    if items and not isinstance(items[0], Span):
        raise TypeError(f"cannot interpret trace source {source!r}")
    return items
