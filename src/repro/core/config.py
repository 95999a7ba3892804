"""Configuration of the optimistic runtime.

Every cost knob and policy choice the paper leaves to the implementation is
surfaced here so the ablation benches (A1, A2) can sweep them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


#: Default left-thread timeout ("implementation-defined duration", §3.2),
#: for fork sites whose ForkSpec sets none.
DEFAULT_FORK_TIMEOUT = 1000.0
#: Period of the resilience layer's orphan re-detection scan.
ORPHAN_SCAN_INTERVAL = 120.0
#: Consecutive no-progress scan rounds before the scanner disarms.
ORPHAN_SCAN_MAX_IDLE = 3


class ControlPlane(enum.Enum):
    """How COMMIT/ABORT notifications travel (§4.2.5).

    The paper: "They could either be sent by broadcast or by explicitly
    sending them to processes which are known to depend on the guard (this
    information could be recorded during message send processing).  The
    former should work well in a local-area network ...; the latter would
    be more appropriate in a wide-area network."
    """

    #: Send every control message to every participating process.
    BROADCAST = "broadcast"
    #: Send only to recorded dependents; each receiver relays onward to
    #: the dependents *it* created by forwarding guarded messages.
    TARGETED = "targeted"


class CheckpointPolicy(enum.Enum):
    """How rollback restores a thread's past state (§3.1).

    The paper names both techniques and calls the choice "a performance
    tuning decision [that] does not affect the correctness of the
    transformation" — which ablation A1 verifies.
    """

    #: Optimistic-Recovery style: re-execute from the last full checkpoint
    #: replaying logged inputs; re-executed compute time is charged again.
    REPLAY = "replay"
    #: Time-Warp style: state checkpoints before each new dependency; a
    #: rollback restores one at fixed cost instead of re-running compute.
    EAGER_COPY = "eager_copy"


class SnapshotPolicy(enum.Enum):
    """How thread state is captured and restored at the Python level.

    Purely an implementation-cost knob: both policies produce bit-identical
    virtual-time behaviour (the simulated checkpoint costs are charged by
    :class:`CheckpointPolicy`, not here).  ``repro.bench.wallclock`` A/B
    tests the two.
    """

    #: Versioned copy-on-write snapshots with structural sharing
    #: (:mod:`repro.core.snapshot`); deepcopy only as a per-value fallback
    #: for unrecognized mutable types.
    COW = "cow"
    #: The original behaviour: a full ``copy.deepcopy`` per capture and
    #: per restore.  Kept for A/B comparison and as a conservative escape
    #: hatch for exotic state values.
    DEEPCOPY = "deepcopy"


class DeliveryHeuristic(enum.Enum):
    """Which thread gets an ambiguous incoming message (§4.2.3)."""

    #: The paper's optimization: choose the eligible thread for which the
    #: message introduces the fewest new dependencies (earliest thread on
    #: ties), minimizing abort risk.
    MIN_NEW_DEPS = "min_new_deps"
    #: Naive: deliver to the eligible thread with the highest index (the
    #: most speculative one) — the pessimal contrast for ablation A2.
    LATEST_THREAD = "latest_thread"


@dataclass
class ResilienceConfig:
    """Hardening knobs for lossy/duplicating/reordering networks.

    The paper assumes reliable FIFO channels (§4.2.5); these knobs relax
    that.  All mechanisms are **off unless a ResilienceConfig is attached**
    to the run's :class:`OptimisticConfig`, so fault-free runs are
    byte-identical to the unhardened runtime.

    * Both planes (data envelopes and COMMIT/ABORT/PRECEDENCE) travel
      in sequence-numbered frames with ack + retransmission (exponential
      backoff, capped attempts) and receiver-side duplicate suppression.
    * A periodic re-detection pass (every ``ORPHAN_SCAN_INTERVAL``): a
      process holding an unresolved *foreign* guess queries the guess's
      owner, so a lost ABORT/COMMIT degrades to delayed cleanup instead of
      a hang.  The scan stops re-arming after ``ORPHAN_SCAN_MAX_IDLE``
      rounds in which the unresolved set did not change (so a genuine
      §4.2.6 deadlock — or a fig7-style mutual-speculation stall — still
      quiesces).
    """

    #: Base retransmission timeout (virtual time); must exceed one RTT.
    retransmit_timeout: float = 30.0
    #: Backoff multiplier applied per retransmission attempt.
    retransmit_backoff: float = 1.5
    #: Cap on the backed-off timeout.
    retransmit_timeout_max: float = 240.0
    #: Retransmission attempts before giving up on a frame (liveness bound;
    #: a dropped frame past this is left to the orphan scan / incarnation
    #: inference to clean up).
    max_retransmits: int = 10
    #: Slot width of the retransmission timer wheel (virtual time).  All
    #: in-flight frames whose RTO lands in the same slot share **one**
    #: scheduler event; deadlines round *up* to the slot boundary, so a
    #: retransmission may fire up to one slot late (never early) — the
    #: correct contract for a timeout lower bound.  0 restores exact
    #: per-frame timers (one event per in-flight frame, the seed
    #: behaviour); see ``docs/PERF.md``.
    timer_wheel_granularity: float = 5.0


@dataclass
class GovernorConfig:
    """Adaptive speculation throttle (graceful degradation).

    AIMD over each process's *fork admission window*: commits open the
    window additively, aborts close it multiplicatively — down to fully
    sequential execution — and periodic probe forks test the water so a
    closed window re-opens once the fault storm passes.
    """

    #: Ceiling on a process's outstanding own guesses (initial window).
    max_depth: int = 8
    #: Additive window increase per committed guess.
    increase: float = 0.5
    #: Multiplicative window decrease per aborted guess.
    decrease: float = 0.5
    #: Floor of the window (0.0 = may close to fully sequential).
    min_limit: float = 0.0
    #: Virtual time between probe forks while the window is closed.
    probe_interval: float = 100.0


@dataclass
class OptimisticConfig:
    """Cost model and policy knobs for an optimistic run.

    Times are virtual-time units on the same scale as network latencies.
    """

    #: Virtual cost of executing a fork (thread creation, timer, bookkeeping).
    fork_cost: float = 0.0
    #: Additional fork cost when the right thread needs a state copy.  Call
    #: streaming forks set ``copy_state=False`` and skip this (§4.2.1 note).
    state_copy_cost: float = 0.0
    #: Fixed virtual cost of restoring a checkpoint under EAGER_COPY (and
    #: under REPLAY with interval checkpoints, per restore).
    restore_cost: float = 0.0
    #: §3.1's middle ground: "a process may take less frequent checkpoints,
    #: and log input messages".  Under the REPLAY policy, a checkpoint
    #: every N journal slots means a rollback restores the nearest
    #: checkpoint (paying ``restore_cost``) and re-pays compute only for
    #: the slots after it.  ``None`` = checkpoint only at thread birth
    #: (pure Optimistic-Recovery replay).
    checkpoint_interval: Optional[int] = None
    #: The liveness limit L (§3.3): after this many optimistic re-executions
    #: of the same fork site, it runs pessimistically.
    max_optimistic_retries: int = 3
    #: Rollback state restoration policy.
    checkpoint_policy: CheckpointPolicy = CheckpointPolicy.REPLAY
    #: Python-level state capture implementation (COW snapshots vs legacy
    #: full deepcopy).  Does not affect simulated semantics.
    snapshot_policy: SnapshotPolicy = SnapshotPolicy.COW
    #: Message-to-thread delivery policy.
    delivery_heuristic: DeliveryHeuristic = DeliveryHeuristic.MIN_NEW_DEPS
    #: Verify at each join that S1 changed no non-exported state the
    #: continuation could observe (catches bad segment decompositions).
    strict_exports: bool = True
    #: §4.2.3's early-abort optimization: when the reply to a left thread's
    #: call carries that thread's own pending guess, abort the guess at
    #: arrival instead of waiting for the join to find the cycle.
    early_reply_abort: bool = True
    #: §4.2.8's eager rule: on ABORT(x), also roll back threads whose guard
    #: members merely *follow* x in the local CDG (not just those holding x).
    #: OFF by default: this reproduction found the rule unsound as stated —
    #: the rolled-back thread re-executes sends whose originals carried only
    #: a guess that later *commits*, so nothing ever cancels the in-flight
    #: originals and committed duplicates appear.  It is only safe with
    #: sender-side duplicate suppression (anti-messages), which the paper's
    #: protocol does not have.  The direct rule (roll back exactly the
    #: holders of the aborted guess) is sound: every send discarded by such
    #: a rollback is tagged with the aborted guess and orphaned everywhere.
    eager_cdg_rollback: bool = False
    #: §4.1.2's compression: tag messages with one guess per process (the
    #: latest), relying on incarnation truncation for implied dependencies.
    #: Shrinks guard tags at the cost of occasionally rolling back further
    #: than strictly necessary.
    compress_guards: bool = False
    #: §4.2.5: broadcast COMMIT/ABORT to everyone, or target-and-relay them
    #: along recorded dependence edges (PRECEDENCE is always broadcast —
    #: it is rare and must reach guess owners the sender may not know).
    control_plane: ControlPlane = ControlPlane.BROADCAST
    #: Static read/write-set effect certification (ROADMAP item 1).  When
    #: on, the runtime builds :mod:`repro.analyze.effects` for the program
    #: and uses its certificates three ways: exports the continuation
    #: provably never touches are **deferred** (not guessed, not verified
    #: — committed actuals overlay the final state); exports whose only
    #: downstream uses are additive self-updates get **bump repair**
    #: (a wrong guess becomes a delta applied at the end, not an abort);
    #: and a fork whose whole guess defers commits guess-free.  Off by
    #: default: speculation behaviour (and pinned figures) are unchanged
    #: unless a run opts in.
    static_effects: bool = False
    #: Hard cap on scheduler events, converted to LivenessError.
    max_steps: int = 2_000_000
    #: Network-fault hardening (acks, retransmission, orphan re-detection).
    #: ``None`` keeps the paper's reliable-FIFO assumption: no framing, no
    #: scan, bit-identical behaviour to the unhardened runtime.
    resilience: Optional[ResilienceConfig] = None
    #: Adaptive speculation governor; ``None`` = speculation always open.
    governor: Optional[GovernorConfig] = None

    def fork_overhead(self, copy_state: bool) -> float:
        return self.fork_cost + (self.state_copy_cost if copy_state else 0.0)
