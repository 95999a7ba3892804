"""Speculation forensics: *why* each guess died and what it cost.

The tracer (PR 2) records what happened; this module reconstructs the
causal story from those spans alone — no live runtime needed, so any
persisted JSONL trace can be analysed after the fact:

* a **provenance graph** linking every guess to the guesses it was born
  under (fork-time guard), the precedence edges the CDG learned, the
  messages it contaminated, the rollbacks and orphan discards its abort
  caused, and the cascade of dependent guesses it took down;
* **abort attribution**: every resolved ``GUESS`` span's terminal outcome
  is classified into exactly one of value fault, time fault, or cascade
  orphan, with per-predictor (fork-site) blame counters;
* **wasted-work accounting** over segment/service intervals: committed
  vs. discarded vs. still-unresolved virtual time, with discarded time
  attributed to the guess that caused the discard.  The three classes
  partition the interval spans, so

      committed + wasted + unresolved == total traced interval time

  holds *by construction* — the conservation property the speculation
  health gate (``repro.bench.speculation_health``) re-checks per run.

Everything consumes any *span source* accepted by
:func:`repro.obs.spans.as_spans` (a result object or a span list).  An
untraced result's protocol log replays into the same protocol spans
(guesses with root/cycle/mispredicted, rollback causes, orphan culprits)
minus the traced-only guard lists and message traffic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .spans import (
    ABORT_OUTCOME,
    CDG_EDGE,
    COMMIT_OUTCOME,
    GUESS,
    ORPHAN,
    ROLLBACK,
    SEGMENT,
    SEND,
    SERVICE,
    Span,
    as_spans,
)

# ------------------------------------------------------- abort attribution

#: The guessed value was wrong (§"Abort": verifier rejected the exports).
VALUE_FAULT = "value_fault"
#: A causality violation: CDG cycle, self-dependent join, divergence
#: timeout, or a Time Warp straggler — the guess could never commit in a
#: consistent order, regardless of the guessed value.
TIME_FAULT = "time_fault"
#: Collateral damage: the guess itself was never proven wrong, but an
#: ancestor it depended on aborted and the cascade destroyed it.
CASCADE_ORPHAN = "cascade_orphan"

ATTRIBUTION_CLASSES = (VALUE_FAULT, TIME_FAULT, CASCADE_ORPHAN)

#: abort ``reason=`` → attribution class.  Reasons keep their historical
#: protocol-log spellings; this is the one place they are folded into the
#: paper's three-way taxonomy.  Unknown reasons default to TIME_FAULT
#: (an ordering problem is the only fault class that needs no evidence
#: about values or ancestors).
_REASON_CLASS = {
    "value_fault": VALUE_FAULT,
    "time_fault": TIME_FAULT,
    "cycle": TIME_FAULT,
    "timeout": TIME_FAULT,
    "straggler": TIME_FAULT,
    "parent_rollback": CASCADE_ORPHAN,
    "anti": CASCADE_ORPHAN,
}


def classify_abort(span: Span) -> str:
    """Exactly one attribution class for an abort-outcome ``GUESS`` span.

    A ``root=`` attribute marks a cascade member (it names the guess whose
    failure propagated here) and dominates the recorded reason: a nested
    guess destroyed during an ancestor's value-fault abort keeps
    ``reason="value_fault"`` for protocol-log compatibility, but it was
    never itself mispredicted.
    """
    if span.attrs.get("root"):
        return CASCADE_ORPHAN
    return _REASON_CLASS.get(span.attrs.get("reason"), TIME_FAULT)


# ----------------------------------------------------------- wasted work


def _interval_duration(span: Span, makespan: float) -> float:
    end = span.end if span.end is not None else makespan
    return max(0.0, end - span.start)


@dataclass
class WastedWork:
    """Partition of all traced segment/service time, in virtual time.

    Dual-clock runs additionally partition the *wall-clock labor* of the
    same spans — the substrate of the ``speculation_efficiency`` metric
    (committed real labor over total real labor).  The wall ledger's
    unresolved bucket is narrower than the virtual one: a server's serve
    loop is one span that is always ``truncated`` when the run drains,
    yet any labor burst still on it was never rolled back — it stood.  So
    wall labor counts as wasted only when its span's effects were undone
    (``destroyed``/``rolled_back``), as unresolved only on spans never
    closed at all (profiling a live tracer mid-run), and as committed
    otherwise.  Wall fields stay zero on virtual backends, and
    :meth:`to_dict` omits the wall section entirely then, so virtual-run
    reports are unchanged.
    """

    committed: float = 0.0      #: intervals that terminated and stand
    wasted: float = 0.0         #: destroyed or rolled-back intervals
    unresolved: float = 0.0     #: truncated — still in doubt at run end
    #: wasted time attributed to the guess that caused the discard
    by_guess: Dict[str, float] = field(default_factory=dict)
    #: wasted time whose discard carried no cause attribution
    unattributed: float = 0.0
    #: wall-clock labor (seconds) in the same three classes
    wall_committed: float = 0.0
    wall_wasted: float = 0.0
    wall_unresolved: float = 0.0

    @property
    def total(self) -> float:
        return self.committed + self.wasted + self.unresolved

    @property
    def wasted_fraction(self) -> float:
        return self.wasted / self.total if self.total > 0 else 0.0

    @property
    def wall_total(self) -> float:
        return self.wall_committed + self.wall_wasted + self.wall_unresolved

    @property
    def speculation_efficiency(self) -> Optional[float]:
        """Committed wall labor / total wall labor (None without wall data)."""
        total = self.wall_total
        return self.wall_committed / total if total > 0 else None

    def conserved(self, tol: float = 1e-9) -> bool:
        """Attributed + unattributed waste must re-sum to ``wasted``."""
        return abs(sum(self.by_guess.values()) + self.unattributed
                   - self.wasted) <= tol

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "committed": self.committed,
            "wasted": self.wasted,
            "unresolved": self.unresolved,
            "total": self.total,
            "wasted_fraction": self.wasted_fraction,
            "by_guess": dict(sorted(self.by_guess.items())),
            "unattributed": self.unattributed,
        }
        if self.wall_total > 0:
            out["wall"] = {
                "committed": self.wall_committed,
                "wasted": self.wall_wasted,
                "unresolved": self.wall_unresolved,
                "total": self.wall_total,
                "speculation_efficiency": self.speculation_efficiency,
            }
        return out


def wasted_work(source) -> WastedWork:
    """Classify every segment/service interval: committed, wasted, open.

    ``outcome="destroyed"``/``"rolled_back"`` intervals are waste (their
    effects were undone); ``truncated`` intervals are still unresolved;
    everything else terminated and its work stands.  Waste is attributed
    per guess through the ``cause=`` attribute the runtime stamps on
    discarded segment spans.
    """
    spans = as_spans(source)
    makespan = max((s.end for s in spans if s.end is not None), default=0.0)
    acc = WastedWork()
    for span in spans:
        if span.kind not in (SEGMENT, SERVICE):
            continue
        dur = _interval_duration(span, makespan)
        outcome = span.attrs.get("outcome")
        if outcome in ("destroyed", "rolled_back"):
            acc.wasted += dur
            cause = span.attrs.get("cause")
            if cause:
                acc.by_guess[cause] = acc.by_guess.get(cause, 0.0) + dur
            else:
                acc.unattributed += dur
        elif span.attrs.get("truncated"):
            acc.unresolved += dur
        else:
            acc.committed += dur
        wall = span.wall_labor  # None without dual-clock capture
        if wall is not None:
            # The wall ledger (see WastedWork docstring): undone -> wasted,
            # still-open span -> unresolved, everything else stood.
            if outcome in ("destroyed", "rolled_back"):
                acc.wall_wasted += wall
            elif span.end is None:
                acc.wall_unresolved += wall
            else:
                acc.wall_committed += wall
    return acc


# -------------------------------------------------------- provenance graph


@dataclass
class GuessForensics:
    """Everything the trace knows about one guess."""

    key: str
    process: str
    site: str                   #: fork site (predictor identity for blame)
    mechanism: str              #: optimistic | promise | timewarp | ...
    start: float
    end: Optional[float]
    outcome: str                #: commit | abort | unresolved
    reason: Optional[str] = None
    attribution: Optional[str] = None   #: set iff outcome == abort
    root: Optional[str] = None          #: cascade root (abort provenance)
    cycle: List[str] = field(default_factory=list)
    #: ``[key, guessed_repr, actual_repr]`` rows for value faults
    mispredicted: List[List[str]] = field(default_factory=list)
    #: guesses this one was born depending on (fork-time guard + CDG)
    depends_on: List[str] = field(default_factory=list)
    #: inverse of depends_on over the whole graph
    dependents: List[str] = field(default_factory=list)
    #: messages sent while this guess was in the sender's guard
    messages_tagged: int = 0
    message_dests: List[str] = field(default_factory=list)
    #: orphan discards of messages this (aborted) guess had contaminated
    orphans_caused: int = 0
    #: rollbacks performed because this guess aborted
    rollbacks_caused: int = 0
    #: discarded virtual time attributed to this guess's abort
    wasted_time: float = 0.0

    @property
    def in_doubt_for(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "process": self.process,
            "site": self.site,
            "mechanism": self.mechanism,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
            "reason": self.reason,
            "attribution": self.attribution,
            "root": self.root,
            "cycle": list(self.cycle),
            "mispredicted": [list(m) for m in self.mispredicted],
            "depends_on": list(self.depends_on),
            "dependents": list(self.dependents),
            "messages_tagged": self.messages_tagged,
            "message_dests": list(self.message_dests),
            "orphans_caused": self.orphans_caused,
            "rollbacks_caused": self.rollbacks_caused,
            "wasted_time": self.wasted_time,
        }


class ProvenanceGraph:
    """The causal structure of one run's speculation, guess by guess."""

    def __init__(self) -> None:
        self.guesses: Dict[str, GuessForensics] = {}
        #: dependence edges (parent, child): child speculated under parent
        self.edges: List[Tuple[str, str]] = []
        self.wasted: WastedWork = WastedWork()
        self.makespan: float = 0.0

    # -------------------------------------------------------------- queries

    def node(self, key: str) -> GuessForensics:
        try:
            return self.guesses[key]
        except KeyError:
            known = ", ".join(self.guesses) or "none"
            raise KeyError(
                f"unknown guess {key!r}; traced guesses: {known}"
            ) from None

    def aborted(self) -> List[GuessForensics]:
        return [g for g in self.guesses.values()
                if g.outcome == ABORT_OUTCOME]

    def cascade_of(self, key: str) -> List[str]:
        """Guesses destroyed because ``key`` failed (its blast radius)."""
        return [g.key for g in self.guesses.values() if g.root == key]

    def attribution_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {c: 0 for c in ATTRIBUTION_CLASSES}
        for g in self.aborted():
            counts[g.attribution] = counts.get(g.attribution, 0) + 1
        return counts

    def blame_by_site(self) -> Dict[str, Dict[str, int]]:
        """Per-predictor counters: commits and each abort class by site."""
        blame: Dict[str, Dict[str, int]] = {}
        for g in self.guesses.values():
            row = blame.setdefault(g.site, defaultdict(int))
            if g.outcome == ABORT_OUTCOME:
                row[g.attribution] += 1
            elif g.outcome == COMMIT_OUTCOME:
                row["commit"] += 1
            else:
                row["unresolved"] += 1
        return {site: dict(row) for site, row in sorted(blame.items())}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "makespan": self.makespan,
            "guesses": {k: g.to_dict() for k, g in self.guesses.items()},
            "edges": [list(e) for e in self.edges],
            "attribution": self.attribution_counts(),
            "blame_by_site": self.blame_by_site(),
            "wasted_work": self.wasted.to_dict(),
        }

    # ------------------------------------------------------------ rendering

    def explain(self, key: str) -> List[str]:
        """Human-readable forensic story of one guess."""
        g = self.node(key)
        window = (f"{g.start:g}..{g.end:g}" if g.end is not None
                  else f"{g.start:g}..?")
        lines = [
            f"guess {g.key} ({g.mechanism}) on {g.process} "
            f"at site {g.site!r}, in doubt {window}",
        ]
        if g.outcome == ABORT_OUTCOME:
            lines.append(
                f"  fate: ABORT — {g.attribution} (reason={g.reason})")
            if g.attribution == VALUE_FAULT and g.mispredicted:
                for k, guessed, actual in g.mispredicted:
                    lines.append(
                        f"    mispredicted {k!r}: guessed {guessed}, "
                        f"actual {actual}")
            if g.cycle:
                lines.append(
                    "    CDG cycle: " + " -> ".join(g.cycle + [g.cycle[0]]))
            if g.root:
                lines.append(f"    cascade root: {g.root}")
        elif g.outcome == COMMIT_OUTCOME:
            lines.append("  fate: COMMIT")
        else:
            lines.append("  fate: unresolved at end of run")
        if g.depends_on:
            lines.append("  speculated under: " + ", ".join(g.depends_on))
        if g.dependents:
            lines.append("  dependents spawned: " + ", ".join(g.dependents))
        if g.messages_tagged:
            dests = ", ".join(g.message_dests)
            lines.append(
                f"  contaminated {g.messages_tagged} message(s) to {dests}")
        cascade = self.cascade_of(key)
        if cascade:
            lines.append("  abort cascade took down: " + ", ".join(cascade))
        if g.rollbacks_caused:
            lines.append(f"  rollbacks caused: {g.rollbacks_caused}")
        if g.orphans_caused:
            lines.append(f"  orphaned messages discarded: {g.orphans_caused}")
        if g.wasted_time:
            lines.append(f"  wasted virtual time: {g.wasted_time:g}")
        return lines

    def report_lines(self) -> List[str]:
        """The full forensic report (all guesses + accounting)."""
        lines: List[str] = []
        counts = self.attribution_counts()
        aborted = self.aborted()
        lines.append(
            f"guesses={len(self.guesses)} aborts={len(aborted)} "
            + " ".join(f"{c}={counts.get(c, 0)}"
                       for c in ATTRIBUTION_CLASSES))
        blame = self.blame_by_site()
        if blame:
            lines.append("blame by predictor site:")
            for site, row in blame.items():
                cells = " ".join(f"{k}={v}" for k, v in sorted(row.items()))
                lines.append(f"  {site}: {cells}")
        w = self.wasted
        lines.append(
            f"segment time: committed={w.committed:g} wasted={w.wasted:g} "
            f"unresolved={w.unresolved:g} total={w.total:g} "
            f"(wasted fraction {w.wasted_fraction:.1%})")
        for key in self.guesses:
            lines.append("")
            lines.extend(self.explain(key))
        return lines


def build_provenance(source) -> ProvenanceGraph:
    """Reconstruct the provenance graph from any span source."""
    spans = as_spans(source)
    graph = ProvenanceGraph()
    graph.makespan = max(
        (s.end for s in spans if s.end is not None), default=0.0)
    graph.wasted = wasted_work(spans)

    edge_set: set = set()

    def add_edge(parent: str, child: str) -> None:
        if parent != child and (parent, child) not in edge_set:
            edge_set.add((parent, child))
            graph.edges.append((parent, child))

    # Pass 1: one node per GUESS span (creation order = trace order).
    for span in spans:
        if span.kind != GUESS:
            continue
        attrs = span.attrs
        truncated = attrs.get("truncated") or span.end is None
        outcome = attrs.get("outcome")
        if truncated or outcome not in (COMMIT_OUTCOME, ABORT_OUTCOME):
            outcome = "unresolved"
        node = GuessForensics(
            key=span.name,
            process=span.process,
            site=attrs.get("site") or span.process,
            mechanism=attrs.get("mechanism", "optimistic"),
            start=span.start,
            end=span.end if outcome != "unresolved" else None,
            outcome=outcome,
            reason=attrs.get("reason"),
            attribution=(classify_abort(span)
                         if outcome == ABORT_OUTCOME else None),
            root=attrs.get("root"),
            cycle=list(attrs.get("cycle", ())),
            mispredicted=[list(m) for m in attrs.get("mispredicted", ())],
        )
        graph.guesses[node.key] = node
        for parent in attrs.get("guard", ()):
            add_edge(parent, node.key)

    # Pass 2: events enrich the nodes.
    for span in spans:
        attrs = span.attrs
        if span.kind == CDG_EDGE:
            # precedence src -> dst: dst can only commit after src.
            src, dst = attrs.get("src"), attrs.get("dst")
            if src and dst:
                add_edge(src, dst)
        elif span.kind == SEND:
            for key in attrs.get("guard", ()):
                node = graph.guesses.get(key)
                if node is not None:
                    node.messages_tagged += 1
                    dst = attrs.get("dst")
                    if dst and dst not in node.message_dests:
                        node.message_dests.append(dst)
        elif span.kind == ORPHAN:
            culprit = attrs.get("aborted")
            node = graph.guesses.get(culprit) if culprit else None
            if node is not None:
                node.orphans_caused += 1
        elif span.kind == ROLLBACK:
            cause = attrs.get("cause")
            node = graph.guesses.get(cause) if cause else None
            if node is not None:
                node.rollbacks_caused += 1

    # Dependents = inverse dependence edges; wasted time joins by cause.
    for parent, child in graph.edges:
        pnode = graph.guesses.get(parent)
        cnode = graph.guesses.get(child)
        if pnode is not None and child not in pnode.dependents:
            pnode.dependents.append(child)
        if cnode is not None and parent not in cnode.depends_on:
            cnode.depends_on.append(parent)
    for key, t in graph.wasted.by_guess.items():
        node = graph.guesses.get(key)
        if node is not None:
            node.wasted_time = t
    return graph
