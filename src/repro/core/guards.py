"""Commit guard sets (§4.1.2).

A guard set is the set of uncommitted guesses a computation currently
depends on.  The commit guard *predicate* is the conjunction of its members;
an empty set is vacuously true — the computation is committed.

Guard sets ride on every data message.  Their size is what experiment C4
measures, so :meth:`GuardSet.tag_size` models the per-message overhead
explicitly (one abstract unit per member).

Performance notes
-----------------
Guard sets sit on the send path of every message, so the hot operations
avoid per-call work that only *some* callers need:

* :meth:`__iter__` yields members in set order (undefined but cheap).
  Protocol decisions never depend on member order; the places that need a
  deterministic ordering — trace/record boundaries and log output — call
  :meth:`sorted_members` explicitly.
* :meth:`frozen` and :meth:`compressed` are cached per *mutation
  generation*: the cache is invalidated only when :meth:`add` or
  :meth:`discard` actually changes the set, so repeated tagging between
  guard changes (the common case in a streaming run) reuses one frozenset.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, Iterator, List, Optional

from repro.core.guess import GuessId


class GuardSet:
    """A mutable set of :class:`GuessId` with protocol-flavoured helpers."""

    __slots__ = ("_guesses", "_gen", "_frozen_cache", "_frozen_gen",
                 "_compressed_cache", "_compressed_gen")

    def __init__(self, guesses: Iterable[GuessId] = ()) -> None:
        self._guesses: set[GuessId] = set(guesses)
        #: mutation generation; bumped whenever membership actually changes
        self._gen = 0
        self._frozen_cache: Optional[FrozenSet[GuessId]] = None
        self._frozen_gen = -1
        self._compressed_cache: Optional[FrozenSet[GuessId]] = None
        self._compressed_gen = -1

    # ------------------------------------------------------------- set ops

    def __contains__(self, g: GuessId) -> bool:
        return g in self._guesses

    def __iter__(self) -> Iterator[GuessId]:
        """Iterate in set order.

        Deliberately *not* sorted: iteration happens on every send and
        sweep, and no protocol decision depends on the order.  Use
        :meth:`sorted_members` where a deterministic order is required
        (trace recording, log output).
        """
        return iter(self._guesses)

    def __len__(self) -> int:
        return len(self._guesses)

    def __bool__(self) -> bool:
        return bool(self._guesses)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GuardSet):
            return self._guesses == other._guesses
        if isinstance(other, (set, frozenset)):
            return self._guesses == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(g.key() for g in sorted(self._guesses))
        return "{" + inner + "}"

    def add(self, g: GuessId) -> None:
        """Add a guess to the set."""
        if g not in self._guesses:
            self._guesses.add(g)
            self._gen += 1

    def discard(self, g: GuessId) -> None:
        """Remove a guess if present."""
        if g in self._guesses:
            self._guesses.discard(g)
            self._gen += 1

    def copy(self) -> "GuardSet":
        """An independent copy of this guard set."""
        return GuardSet(self._guesses)

    def union(self, other: Iterable[GuessId]) -> "GuardSet":
        """A new set with the given guesses added."""
        if isinstance(other, GuardSet):
            return GuardSet(self._guesses | other._guesses)
        if isinstance(other, (set, frozenset)):
            return GuardSet(self._guesses | other)
        return GuardSet(self._guesses.union(other))

    def difference(self, other: Iterable[GuessId]) -> "GuardSet":
        """A new set with the given guesses removed."""
        if isinstance(other, GuardSet):
            return GuardSet(self._guesses - other._guesses)
        if isinstance(other, (set, frozenset)):
            return GuardSet(self._guesses - other)
        return GuardSet(self._guesses.difference(other))

    def frozen(self) -> FrozenSet[GuessId]:
        """An immutable snapshot of the members (cached per generation)."""
        if self._frozen_gen != self._gen:
            self._frozen_cache = frozenset(self._guesses)
            self._frozen_gen = self._gen
        return self._frozen_cache  # type: ignore[return-value]

    def members(self) -> set[GuessId]:
        """A mutable copy of the member set."""
        return set(self._guesses)

    def sorted_members(self) -> List[GuessId]:
        """Members in sorted order, for determinism-sensitive consumers."""
        return sorted(self._guesses)

    # ------------------------------------------------------ protocol helpers

    def new_guards(self, incoming: AbstractSet[GuessId]) -> set[GuessId]:
        """The paper's ``Newguards = Guard_m - Guard_x`` (§4.2.3)."""
        return set(incoming) - self._guesses

    def keys(self) -> FrozenSet[str]:
        """String tags for trace recording."""
        return frozenset(g.key() for g in self._guesses)

    def tag_size(self) -> int:
        """Abstract wire size of this guard tag (C4 overhead accounting)."""
        return len(self._guesses)

    def guesses_of(self, process: str) -> set[GuessId]:
        """The members owned by one process."""
        return {g for g in self._guesses if g.process == process}

    def compressed(self) -> FrozenSet[GuessId]:
        """One representative guess per (process, incarnation) — §4.1.2.

        Within one incarnation, a dependence on ``x_{i,n}`` subsumes every
        earlier index: if any of them aborts, incarnation truncation
        implicitly aborts ``x_{i,n}`` too, so holders of the representative
        roll back exactly when holders of the full set would.

        The subsumption does NOT extend across incarnations: a guard can
        transiently hold guesses from two incarnations of one process
        (the abort separating them not yet known here), and the newer
        incarnation's guess says nothing about the older one's fate —
        collapsing them to a single representative loses a real
        dependency (found by randomized search).  Hence one entry per
        incarnation, not one per process.

        The result is cached per mutation generation: a thread sending a
        burst of messages between guard changes computes it once.
        """
        if self._compressed_gen == self._gen:
            return self._compressed_cache  # type: ignore[return-value]
        self._compressed_cache = latest_per_incarnation(self._guesses)
        self._compressed_gen = self._gen
        return self._compressed_cache


def latest_per_incarnation(guesses: Iterable[GuessId]) -> FrozenSet[GuessId]:
    """The highest-index guess of each (process, incarnation) in ``guesses``.

    An abort of ``x_{i,m}`` aborts every ``x_{i,n}`` with ``n >= m``
    (§4.1.5), so some member of ``guesses`` is aborted exactly when one of
    these representatives is.
    """
    latest: dict[tuple, GuessId] = {}
    for g in guesses:
        key = (g.process, g.incarnation)
        cur = latest.get(key)
        if cur is None or g.index > cur.index:
            latest[key] = g
    return frozenset(latest.values())
