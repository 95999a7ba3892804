"""The holder index: what each unresolved guess is holding up (§4.1.5).

A COMMIT or ABORT only matters to the state that holds the resolved guess:
threads whose guard contains it, pooled envelopes tagged with it, buffered
emissions waiting on it, and nodes of the commit dependency graph.
:class:`HolderIndex` maps each watched guess to those holders.  When the
process's :class:`~repro.core.history.SystemView` reports a guess resolved,
the index moves its holders to *dirty* queues, which the runtime's resolve
sweep settles in a fixed order, and flags envelopes it orphans — so no
resolution rescans the whole process.

Holders are kept by id (tid, ``msg_id``, emission id), never by object,
and an entry is dropped as soon as its guess resolves.  Entries of holders
that went away meanwhile (a destroyed thread, a delivered envelope) are
harmless: the runtime re-checks each holder when it settles it.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, Iterator, List, Set, Tuple

from repro.core.guards import latest_per_incarnation
from repro.core.guess import GuessId
from repro.core.history import SystemView


class DirtyQueue:
    """Keys to revisit in ascending order, each with the guesses behind it."""

    __slots__ = ("_pending", "_heap")

    def __init__(self) -> None:
        self._pending: Dict[Any, List[GuessId]] = {}
        self._heap: List[Any] = []

    def __bool__(self) -> bool:
        return bool(self._pending)

    def mark(self, key: Any, guess: Any = None) -> None:
        """Queue ``key`` (once), remembering ``guess`` if given."""
        guesses = self._pending.get(key)
        if guesses is None:
            guesses = self._pending[key] = []
            heapq.heappush(self._heap, key)
        if guess is not None:
            guesses.append(guess)

    def get(self, key: Any) -> List[GuessId]:
        """The guesses queued with ``key`` (empty if it is not queued)."""
        return self._pending.get(key, [])

    def items(self) -> Iterable[Tuple[Any, List[GuessId]]]:
        return self._pending.items()

    def drain(self, limit: Any) -> Iterator[Tuple[Any, List[GuessId]]]:
        """Pop the keys below ``limit`` in ascending order, once each.

        A key marked again after its turn, or one at or above ``limit``
        (born during the drain), stays queued for the next drain.
        """
        heap = self._heap
        later = []
        done = None
        try:
            while heap and heap[0] < limit:
                key = heapq.heappop(heap)
                if done is not None and key <= done:
                    later.append(key)
                    continue
                done = key
                yield key, self._pending.pop(key)
        finally:
            for key in later:
                heapq.heappush(heap, key)


class HolderIndex:
    """Guess -> holders, for the guesses the process's view is watching."""

    __slots__ = ("view", "_threads", "_envelopes", "_emissions", "_cdg",
                 "threads", "records", "emissions", "cdg", "orphans")

    def __init__(self, view: SystemView) -> None:
        self.view = view
        self._threads: Dict[GuessId, List[int]] = {}
        self._envelopes: Dict[GuessId, List[int]] = {}
        self._emissions: Dict[GuessId, List[int]] = {}
        #: dicts used as sets throughout: an empty dict is a third the size
        self._cdg: Dict[GuessId, None] = {}
        #: tid -> resolved guesses its guard may still hold
        self.threads = DirtyQueue()
        #: own guesses whose join (or continuation) to re-examine
        self.records = DirtyQueue()
        self.emissions: Dict[int, None] = {}
        self.cdg: Dict[GuessId, None] = {}
        #: msg_ids of envelopes known orphaned (an abort is never undone)
        self.orphans: Dict[int, None] = {}

    def __bool__(self) -> bool:
        """True while some holder waits to be settled."""
        return bool(self.threads or self.records or self.emissions
                    or self.cdg)

    # ----------------------------------------------------------- registering

    def _hold(self, table: Dict[GuessId, List[int]], holder: int,
              guesses: Iterable[GuessId]) -> List[GuessId]:
        """Index ``holder`` under each unresolved guess; returns resolved ones."""
        resolved = []
        for g in guesses:
            if self.view.watch(g).resolved:
                resolved.append(g)
            else:
                table.setdefault(g, []).append(holder)
        return resolved

    def hold_thread(self, tid: int, guesses: Iterable[GuessId]) -> None:
        """New guard members; one already resolved marks the thread."""
        for g in self._hold(self._threads, tid, guesses):
            self.threads.mark(tid, g)

    def hold_envelope(self, msg_id: int, guard: Iterable[GuessId]) -> bool:
        """Index an arriving envelope; True if it is already an orphan.

        It is indexed under its latest guess per (process, incarnation)
        only — an abort of any member aborts that one too.  Its guard
        never changes, so the verdict stays exact for as long as the
        envelope lives, requeued after a rollback included.
        """
        for g in self._hold(self._envelopes, msg_id,
                            latest_per_incarnation(guard)):
            if self.view.is_aborted(g):
                self.orphans[msg_id] = None
        return msg_id in self.orphans

    def hold_emission(self, emission_id: int,
                      pending: Iterable[GuessId]) -> None:
        if self._hold(self._emissions, emission_id, pending):
            self.emissions[emission_id] = None

    def hold_cdg(self, guess: GuessId) -> None:
        if guess not in self._cdg:
            if self.view.watch(guess).resolved:
                self.cdg[guess] = None
            else:
                self._cdg[guess] = None

    # ------------------------------------------------------------- resolving

    def resolve(self, guesses: Iterable[GuessId]) -> Set[int]:
        """Mark the holders of newly resolved guesses; returns their tids."""
        tids: Set[int] = set()
        for g in guesses:
            for tid in self._threads.pop(g, ()):
                self.threads.mark(tid, g)
                tids.add(tid)
            envelopes = self._envelopes.pop(g, None)
            if envelopes and self.view.is_aborted(g):
                self.orphans.update(dict.fromkeys(envelopes))
            self.emissions.update(dict.fromkeys(self._emissions.pop(g, ())))
            if g in self._cdg:
                del self._cdg[g]
                self.cdg[g] = None
        return tids

    def holding(self, guesses: Set[GuessId]) -> Set[int]:
        """Tids of threads that may hold any of ``guesses``."""
        tids = {tid for tid, resolved in self.threads.items()
                if not guesses.isdisjoint(resolved)}
        for g in guesses:
            tids.update(self._threads.get(g, ()))
        return tids
