"""Layer attribution from outside: wrap each layer's public entry points.

:class:`SpanRecorder` installs wrappers on the public classes and
functions listed in :data:`TARGETS` for the duration of a traced pass and
restores the originals afterwards.  Nothing under ``src/`` changes.

Three kinds of wrapper:

* ``span`` — every call records a span ``[id, name, layer, phase,
  system, parent, start, end, hot, hot_calls]`` in memory.
* ``hot`` — resolution-layer methods.  A call entering the layer from
  outside is timed and its duration folded into the enclosing span's
  ``hot`` field (no span record); a call made from inside the layer is
  only counted.
* ``count`` — the resolution queries called hundreds of thousands of times
  per run (``SystemView.status`` and friends).  They are counted, not
  timed, by a C-level counter (``functools.lru_cache(maxsize=0)`` counts
  every call as a miss), so nested queries cost almost nothing extra.
  Their time is measured where the runtime calls into the layer: each
  runtime's ``view`` is replaced by a :class:`TimedView` that times every
  query and folds it into the enclosing span like a ``hot`` call.

A layer's self time is the duration of its spans minus the part of each
interval covered by child spans and folded hot calls (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

# span record fields
ID, NAME, LAYER, PHASE, SYSTEM, PARENT, START, END, HOT, HOT_CALLS = range(10)

#: the SystemView methods the runtime calls; timed by :class:`TimedView`
VIEW_QUERIES = ("status", "is_committed", "is_aborted", "any_aborted",
                "all_committed", "note_commit", "note_abort", "note_unknown")

#: (module, class or None, attributes, layer, kind).  A method is patched
#: on the class of the MRO that defines it, so base-class and override
#: entries both get wrapped exactly once.
TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str, str], ...] = (
    ("repro.core.system", "OptimisticSystem",
     ("__init__", "add_program", "add_sink", "run"), "core", "span"),
    ("repro.core.runtime", "ProcessRuntime", ("on_network",), "core", "span"),
    ("repro.core.history", "SystemView", VIEW_QUERIES, "core.resolution",
     "count"),
    ("repro.core.guess", "IncarnationTable", ("learn_start", "learn_abort"),
     "core.resolution", "count"),
    ("repro.core.cdg", "CommitDependencyGraph",
     ("add_node", "has_node", "add_edge", "add_precedence", "remove_node",
      "nodes", "successors", "predecessors", "descendants", "cycle_through",
      "find_any_cycle", "edge_count", "edges"), "core.resolution", "hot"),
    ("repro.core.snapshot", "Snapshotter", ("capture", "derive", "restore"),
     "core.state", "span"),
    ("repro.core.journal", "Journal",
     ("append", "begin_replay", "next_replay_slot", "consume_replay_slot",
      "slots_after"), "core.state", "span"),
    ("repro.core.transport", "ReliableTransport", ("send",),
     "core.transport", "span"),
    ("repro.sim.network", "Network", ("send",), "core.transport", "span"),
    ("repro.sim.faults", "FaultyNetwork", ("send",), "core.transport", "span"),
    ("repro.sim.events", "EventQueue",
     ("push", "schedule", "pop_entry", "pop", "peek_time", "compact"),
     "sim", "span"),
    ("repro.sim.scheduler", "Scheduler", ("at", "after", "post", "timer"),
     "sim", "span"),
    ("repro.sim.wheel", "TimerWheel", ("after",), "sim", "span"),
    ("repro.exec.virtual", "VirtualTimeBackend",
     ("submit_segment", "cancel", "drain"), "exec", "span"),
    ("repro.exec.pool", "ProcessPoolBackend",
     ("submit_segment", "cancel", "drain"), "exec", "span"),
    ("repro.analyze.effects", None, ("infer_program_effects",),
     "analyze", "span"),
    ("repro.analyze.summary", None, ("summarize_program",), "analyze",
     "span"),
    ("repro.analyze.rules", None, ("run_rules",), "analyze", "span"),
    ("repro.obs.tracer", "RecordingTracer",
     ("start_span", "end_span", "event", "annotate_wall", "close_open"),
     "obs", "span"),
)

#: whose ``__init__`` is wrapped to attach a tracer / a timed view
SYSTEM_INIT = ("repro.core.system", "OptimisticSystem")
RUNTIME_INIT = ("repro.core.runtime", "ProcessRuntime")

#: ``ReliableTransport.receiver`` returns a per-endpoint handler closure;
#: the handler (not the factory) is what runs on every frame.
RECEIVER = ("repro.core.transport", "ReliableTransport", "receiver")


class SpanRecorder:
    """In-memory spans and counts for one traced pass."""

    def __init__(self, tracer_factory: Optional[Callable[[], Any]] = None):
        #: attached to every OptimisticSystem built while installed
        self.tracer_factory = tracer_factory
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.phase = "setup"
        self.system = -1
        self.in_hot = False
        #: calls per wrapped name, spans and hot/nested calls alike
        self.calls: Counter = Counter()
        #: wrapped name -> layer
        self.layer_of: Dict[str, str] = {}
        self._saved: List[Tuple[Any, str, Any]] = []
        #: C-level call counters installed for ``count`` targets
        self._counters: List[Tuple[str, Any]] = []
        self.epoch = perf_counter()

    # ----------------------------------------------------------- recording

    def open(self, name: str, layer: str) -> list:
        """Open a span by hand (the benchmark's own set-up root)."""
        stack = self.stack
        span = [len(self.spans), name, layer, self.phase, self.system,
                stack[-1][ID] if stack else -1, 0.0, 0.0, 0.0, 0]
        self.spans.append(span)
        stack.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        popped = self.stack.pop()
        assert popped is span, "span stack out of order"

    def _span_wrapper(self, name: str, layer: str, fn: Callable) -> Callable:
        rec = self
        calls = self.calls
        self.layer_of[name] = layer

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if rec.in_hot:
                return fn(*args, **kwargs)
            span = rec.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(span)

        return wrapper

    def _hot_wrapper(self, name: str, fn: Callable) -> Callable:
        rec = self
        calls = self.calls
        self.layer_of[name] = "core.resolution"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if rec.in_hot:
                return fn(*args, **kwargs)
            rec.in_hot = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.in_hot = False
                rec.fold_hot(perf_counter() - t0)

        return wrapper

    def _system_init_wrapper(self, fn: Callable) -> Callable:
        rec = self

        def init(system, *args, **kwargs):
            if rec.tracer_factory is not None \
                    and kwargs.get("tracer") is None:
                kwargs["tracer"] = rec.tracer_factory()
            fn(system, *args, **kwargs)

        return init

    def _runtime_init_wrapper(self, fn: Callable) -> Callable:
        rec = self

        def init(runtime, *args, **kwargs):
            fn(runtime, *args, **kwargs)
            runtime.view = TimedView(runtime.view, rec)

        return init

    def fold_hot(self, seconds: float) -> None:
        """Charge one timed resolution call to the enclosing span."""
        stack = self.stack
        if stack:
            stack[-1][HOT] += seconds
            stack[-1][HOT_CALLS] += 1

    def _receiver_wrapper(self, fn: Callable) -> Callable:
        rec = self

        def receiver(transport, name, inner):
            return rec._span_wrapper("ReliableTransport.handler",
                                     "core.transport",
                                     fn(transport, name, inner))

        return receiver

    # ---------------------------------------------------------- installing

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        patched = set()
        for module_name, cls_name, attrs, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            cls = getattr(module, cls_name) if cls_name else None
            for attr in attrs:
                if cls is None:
                    owner, qual = module, attr
                else:
                    owner = next(c for c in cls.__mro__ if attr in c.__dict__)
                    qual = f"{owner.__name__}.{attr}"
                if (owner, attr) in patched:
                    continue
                patched.add((owner, attr))
                fn = owner.__dict__[attr]
                if kind == "count":
                    new = functools.lru_cache(maxsize=0)(fn)
                    self._counters.append((qual, new))
                    self.layer_of[qual] = layer
                elif kind == "hot":
                    new = self._hot_wrapper(qual, fn)
                else:
                    new = self._span_wrapper(qual, layer, fn)
                self._patch(owner, attr, new)
        for (module_name, cls_name), make in (
                (SYSTEM_INIT, self._system_init_wrapper),
                (RUNTIME_INIT, self._runtime_init_wrapper)):
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "__init__", make(cls.__dict__["__init__"]))
        module_name, cls_name, attr = RECEIVER
        cls = getattr(importlib.import_module(module_name), cls_name)
        self._patch(cls, attr, self._receiver_wrapper(cls.__dict__[attr]))

    def uninstall(self) -> None:
        for qual, counter in self._counters:
            self.calls[qual] += counter.cache_info().misses
        self._counters.clear()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span; times in seconds since the epoch."""
        fields = ("id", "name", "layer", "phase", "system", "parent",
                  "start", "end", "hot", "hot_calls")
        with open(path, "w") as fh:
            for span in self.spans:
                row = dict(zip(fields, span))
                row["start"] -= self.epoch
                row["end"] -= self.epoch
                fh.write(json.dumps(row) + "\n")


class TimedView:
    """Stands in for a runtime's ``SystemView`` during a traced pass.

    Every query the runtime makes enters the resolution layer here and is
    timed; anything else (``peer``, attributes) passes straight through.
    The queries are per-instance closures over the view's bound methods,
    which keeps the timing cost to two clock reads and one list update.
    """

    def __init__(self, view: Any, recorder: SpanRecorder) -> None:
        self._view = view
        stack = recorder.stack
        for name in VIEW_QUERIES:
            setattr(self, name, _timed_query(getattr(view, name), stack))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._view, name)


def _timed_query(method: Callable, stack: List[list]) -> Callable:
    def query(*args: Any) -> Any:
        t0 = perf_counter()
        result = method(*args)
        if stack:
            span = stack[-1]
            span[HOT] += perf_counter() - t0
            span[HOT_CALLS] += 1
        return result

    return query


# ------------------------------------------------------------- self times

def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Self time per span id: duration minus child coverage minus hot.

    Child coverage is the union of the children's intervals clipped to
    the parent's, so overlapping or overhanging children are never
    subtracted twice.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[ID]] = max(0.0, (end - start) - covered - span[HOT])
    return out


def layer_self_times(spans: List[list],
                     scales: Optional[Sequence[float]] = None,
                     ) -> Dict[Tuple[str, str], float]:
    """Self seconds per ``(phase, layer)``; hot time counts as resolution.

    ``scales[system]`` multiplies the seconds of that system's spans.
    """
    selfs = self_times(spans)
    out: Dict[Tuple[str, str], float] = defaultdict(float)
    for span in spans:
        scale = scales[span[SYSTEM]] if scales is not None else 1.0
        out[(span[PHASE], span[LAYER])] += selfs[span[ID]] * scale
        if span[HOT]:
            out[(span[PHASE], "core.resolution")] += span[HOT] * scale
    return dict(out)


def inclusive_time(spans: List[list], name: str,
                   phase: Optional[str] = None) -> Dict[int, float]:
    """Per system, total duration of the outermost spans called ``name``."""
    by_id = {span[ID]: span for span in spans}
    out: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[NAME] != name or (phase and span[PHASE] != phase):
            continue
        parent = by_id.get(span[PARENT])
        while parent is not None and parent[NAME] != name:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            out[span[SYSTEM]] += span[END] - span[START]
    return dict(out)
