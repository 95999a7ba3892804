"""Post-run protocol invariant validation.

A quiesced optimistic system must satisfy a set of structural invariants
that follow from the protocol's correctness argument (§3).  Tests and the
property suite call :func:`validate_run` after every run; violations raise
:class:`~repro.errors.ProtocolError` with a description of what broke.

Checked invariants:

I1  Resolution totality — every guess ever forked is committed or aborted
    (no guess left pending at quiescence), unless the run is knowingly
    unresolved (Fig. 7's deadlock).
I2  Commit stability — no guess both commits and aborts.
I3  Guard emptiness — no live thread still holds an uncommitted guess.
I4  Orphan hygiene — a quiesced message pool holds only orphans, or
    envelopes no live thread could accept (dispatch's eligibility test).
I5  Output commit — every released emission's guards committed; every
    dropped emission depended on an aborted guess; nothing is left
    buffered.
I6  Journal sanity — every surviving thread's journal is live (replay
    cursors fully drained).
I7  Incarnation order — each process's own abort history produced strictly
    increasing incarnation numbers with consistent start indices.
I8  CDG hygiene — no resolved guess remains a CDG node.
"""

from __future__ import annotations

from typing import List

from repro.errors import ProtocolError
from repro.core.history import GuessStatus
from repro.core.system import OptimisticSystem
from repro.core.thread import ThreadStatus


def validate_run(system: OptimisticSystem,
                 allow_unresolved: bool = False) -> List[str]:
    """Check all invariants on a quiesced system; returns checked labels."""
    problems: List[str] = []
    checked = ["I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"]

    committed = set()
    aborted = set()
    for entry in system.protocol_log:
        if entry["kind"] == "commit":
            committed.add(entry["guess"])
        elif entry["kind"] == "abort":
            aborted.add(entry["guess"])

    # I2 commit stability
    both = committed & aborted
    if both:
        problems.append(f"I2: guesses both committed and aborted: {both}")

    for name, rt in system.runtimes.items():
        # I1 resolution totality
        for guess, record in rt.records.items():
            if record.status == "pending" and not allow_unresolved:
                problems.append(
                    f"I1: {name} guess {guess.key()} still pending"
                )
        # I3 guard emptiness on live threads
        for thread in rt.threads.values():
            if thread.status is ThreadStatus.DESTROYED:
                continue
            for g in thread.guard:
                status = rt.view.status(g)
                if status is GuessStatus.ABORTED:
                    problems.append(
                        f"I3: {name}.t{thread.tid} holds aborted {g.key()}"
                    )
                elif status is GuessStatus.COMMITTED:
                    problems.append(
                        f"I3: {name}.t{thread.tid} holds committed-but-"
                        f"unpruned {g.key()}"
                    )
                elif not allow_unresolved:
                    problems.append(
                        f"I3: {name}.t{thread.tid} holds unresolved {g.key()}"
                    )
            # I6 journal sanity
            if not thread.journal.live:
                problems.append(
                    f"I6: {name}.t{thread.tid} still replaying "
                    f"(cursor {thread.journal.cursor}/{len(thread.journal)})"
                )
        # I4 orphan hygiene: anything left in the pool must be orphaned or
        # undeliverable because no thread waits for it — dispatch would
        # have handed a consumable envelope to a blocked thread.
        for envelope in rt.pool:
            if rt.view.any_aborted(envelope.guard):
                continue  # an orphan that was never dispatched: fine
            takers = rt.eligible_threads(envelope)
            if takers:
                problems.append(f"I4: {name} pool holds envelope "
                                f"{envelope.msg_id} that t{takers[0].tid} "
                                "could consume")
        # I5 output commit
        for em in rt.emissions:
            if not em.released and not em.dropped:
                problems.append(
                    f"I5: {name} emission #{em.emission_id} left buffered"
                )
        # I7 incarnation order
        own = rt.view.peer(name).incarnations
        starts = own.starts
        if sorted(starts) != list(range(len(starts))):
            problems.append(
                f"I7: {name} incarnation numbers not contiguous: "
                f"{sorted(starts)}"
            )
        if rt.incarnation != max(starts):
            problems.append(
                f"I7: {name} current incarnation {rt.incarnation} != max "
                f"known start {max(starts)}"
            )
        # I8 CDG hygiene
        for node in rt.cdg.nodes():
            status = rt.view.status(node)
            if status in (GuessStatus.COMMITTED, GuessStatus.ABORTED):
                problems.append(
                    f"I8: {name} CDG retains resolved node {node.key()}"
                )

    if problems:
        raise ProtocolError(
            "protocol invariants violated:\n  " + "\n  ".join(problems)
        )
    return checked
