"""Commit histories (§4.1.5) and the per-process view of the system.

Each process maintains, for every peer it has heard about, the resolution
status of that peer's guesses plus the peer's incarnation start table.
``SystemView`` is that collection; every status question the runtime asks
("is this message an orphan?", "is this guard set fully committed?") goes
through it so the implicit-abort and implicit-commit inference rules live in
exactly one place:

* ``COMMIT(x_{i,n})`` implies commit of every earlier index of the same
  incarnation (left threads join in order), and — via the incarnation start
  table — implicit *abort* of truncated guesses of earlier incarnations.
* ``ABORT(x_{i,n})`` starts incarnation ``i+1`` at index ``n``, implicitly
  aborting every ``x_{i,m}`` with ``m >= n``.

``SystemView`` also *watches* the unresolved guesses its process holds
(guard members, buffered emissions, CDG nodes): it caches their status
and, on every history update, re-evaluates only the watched guesses that
update can affect.  Each update returns the watched guesses it resolved,
so the runtime visits exactly their holders instead of sweeping all of
its state.  The cache is derived from :meth:`PeerView.status` — the one
rule set — and a resolved guess leaves it for good.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.guess import GuessId, IncarnationTable


class GuessStatus(enum.Enum):
    """Resolution state of a guess, from this process's point of view."""

    PENDING = "pending"      # in doubt, no news
    UNKNOWN = "unknown"      # a PRECEDENCE arrived: resolution in progress
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def resolved(self) -> bool:
        return self in (GuessStatus.COMMITTED, GuessStatus.ABORTED)


class PeerView:
    """History + incarnation table for one peer process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.incarnations = IncarnationTable()
        #: explicit resolutions: (incarnation, index) -> status
        self._explicit: Dict[tuple, GuessStatus] = {}
        #: highest committed index per incarnation (commit implication)
        self._committed_upto: Dict[int, int] = {}

    # ------------------------------------------------------------- updates

    def note_commit(self, guess: GuessId) -> None:
        """Record an explicit COMMIT of the guess."""
        self._explicit[(guess.incarnation, guess.index)] = GuessStatus.COMMITTED
        cur = self._committed_upto.get(guess.incarnation)
        if cur is None or guess.index > cur:
            self._committed_upto[guess.incarnation] = guess.index
        # A commit of incarnation i proves incarnation i is live; anything
        # this peer told us about later incarnations still stands (commits
        # of dead guesses are impossible, so no conflict can arise).

    def note_abort(self, guess: GuessId) -> None:
        """Record an explicit ABORT (starts the next incarnation)."""
        self._explicit[(guess.incarnation, guess.index)] = GuessStatus.ABORTED
        self.incarnations.learn_abort(guess)

    def note_unknown(self, guess: GuessId) -> None:
        """Record that a PRECEDENCE put the guess in doubt."""
        key = (guess.incarnation, guess.index)
        if self._explicit.get(key) not in (
            GuessStatus.COMMITTED,
            GuessStatus.ABORTED,
        ):
            self._explicit[key] = GuessStatus.UNKNOWN

    # -------------------------------------------------------------- queries

    def status(self, guess: GuessId) -> GuessStatus:
        """Resolution status, including implicit inference (§4.1.5)."""
        if self.incarnations.implicitly_aborted(guess):
            return GuessStatus.ABORTED
        explicit = self._explicit.get((guess.incarnation, guess.index))
        if explicit in (GuessStatus.COMMITTED, GuessStatus.ABORTED):
            return explicit
        upto = self._committed_upto.get(guess.incarnation)
        start = self.incarnations.start_of(guess.incarnation)
        if (
            upto is not None
            and guess.index <= upto
            and (start is None or guess.index >= start)
        ):
            return GuessStatus.COMMITTED
        return explicit if explicit is not None else GuessStatus.PENDING


class SystemView:
    """All peer views held by one process, plus the watched-guess cache."""

    def __init__(self) -> None:
        self._peers: Dict[str, PeerView] = {}
        #: process -> incarnation -> status of each watched (held, still
        #: unresolved) guess; an update re-evaluates only the incarnations
        #: it can affect
        self._watched: Dict[str, Dict[int, Dict[GuessId, GuessStatus]]] = {}

    def peer(self, process: str) -> PeerView:
        """The (lazily created) view of one peer process."""
        view = self._peers.get(process)
        if view is None:
            view = PeerView(process)
            self._peers[process] = view
        return view

    def status(self, guess: GuessId) -> GuessStatus:
        """Resolution status via the owning peer's view (cached if watched)."""
        cached = self._cached(guess)
        if cached is not None:
            return cached
        return self.peer(guess.process).status(guess)

    def _cached(self, guess: GuessId) -> Optional[GuessStatus]:
        incs = self._watched.get(guess.process)
        if incs is None:
            return None
        bucket = incs.get(guess.incarnation)
        return None if bucket is None else bucket.get(guess)

    def is_committed(self, guess: GuessId) -> bool:
        """True iff the guess is known committed."""
        return self.status(guess) is GuessStatus.COMMITTED

    def is_aborted(self, guess: GuessId) -> bool:
        """True iff the guess is known aborted (explicitly or implicitly)."""
        return self.status(guess) is GuessStatus.ABORTED

    def any_aborted(self, guesses: Iterable[GuessId]) -> Optional[GuessId]:
        """Lowest aborted guess among ``guesses`` (the orphan test, §4.2.3).

        Runs on every message arrival and every dispatch pass, so it does
        not sort its input: callers only use the result's truthiness (is
        this an orphan?), never its order among multiple aborted members.
        The *returned* guess is still deterministic — the minimum aborted
        member — so log output and tests are stable without paying an
        O(n log n) sort for the common all-live case.
        """
        found: Optional[GuessId] = None
        for g in guesses:
            if (found is None or g < found) and self.is_aborted(g):
                found = g
        return found

    def all_committed(self, guesses: Iterable[GuessId]) -> bool:
        """True iff every listed guess is known committed."""
        return all(self.is_committed(g) for g in guesses)

    # ------------------------------------------------------------ watching

    def watch(self, guess: GuessId) -> GuessStatus:
        """Status of ``guess``; an unresolved one stays watched until resolved.

        A caller registering a holder learns at once whether the guess is
        already resolved (a resolved guess is never watched).
        """
        cached = self._cached(guess)
        if cached is not None:
            return cached
        status = self.peer(guess.process).status(guess)
        if not status.resolved:
            self._watched.setdefault(guess.process, {}).setdefault(
                guess.incarnation, {})[guess] = status
        return status

    def _refresh(self, process: str,
                 affected: Callable[[int, int], bool]) -> List[GuessId]:
        """Re-evaluate the watched guesses of ``process`` an update touched.

        ``affected(incarnation, index)`` selects the guesses whose status
        the update can change.  Returns those now resolved, sorted, after
        dropping them from the cache.
        """
        incs = self._watched.get(process)
        if not incs:
            return []
        peer = self.peer(process)
        resolved: List[GuessId] = []
        for inc in list(incs):
            bucket = incs[inc]
            for g in [g for g in bucket if affected(inc, g.index)]:
                status = peer.status(g)
                if status.resolved:
                    del bucket[g]
                    resolved.append(g)
                else:
                    bucket[g] = status
            if not bucket:
                del incs[inc]
        resolved.sort()
        return resolved

    # ------------------------------------------------------------- updates

    def note_commit(self, guess: GuessId) -> List[GuessId]:
        """Record an explicit COMMIT; returns the watched guesses it resolved.

        Committing ``x_{i,n}`` can only commit ``x_{i,m}`` with ``m <= n``.
        """
        self.peer(guess.process).note_commit(guess)
        inc, upto = guess.incarnation, guess.index
        return self._refresh(guess.process,
                             lambda i, n: i == inc and n <= upto)

    def note_abort(self, guess: GuessId) -> List[GuessId]:
        """Record an explicit ABORT; returns the watched guesses it resolved."""
        self.peer(guess.process).note_abort(guess)
        return self._refresh_start(guess.process, guess.incarnation + 1,
                                   guess.index)

    def learn_start(self, process: str, incarnation: int,
                    index: int) -> List[GuessId]:
        """Record an incarnation start; returns the watched guesses it resolved."""
        self.peer(process).incarnations.learn_start(incarnation, index)
        return self._refresh_start(process, incarnation, index)

    def _refresh_start(self, process: str, incarnation: int,
                       index: int) -> List[GuessId]:
        # Incarnation i starting at n aborts earlier incarnations' guesses
        # from n on and, by lowering i's known start, may commit i's own.
        return self._refresh(process,
                             lambda i, n: i <= incarnation and n >= index)

    def note_unknown(self, guess: GuessId) -> List[GuessId]:
        """Record an in-doubt (PRECEDENCE) marker with the peer's view."""
        self.peer(guess.process).note_unknown(guess)
        inc, idx = guess.incarnation, guess.index
        return self._refresh(guess.process,
                             lambda i, n: i == inc and n == idx)
