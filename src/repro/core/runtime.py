"""Per-process optimistic runtime: the protocol of §3.2 and §4.2.

One :class:`ProcessRuntime` owns all threads of one process, its message
pool, its view of every peer's commit history, its commit dependency graph,
and its buffered external output.  It implements:

* fork (§4.2.1) with predictor, timeout, and the right-branching structure;
* guard tagging on sends (§4.2.2) and guard acquisition + orphan testing on
  arrival (§4.2.3), with the fewest-new-dependencies delivery heuristic;
* join evaluation (§4.2.5): value fault, self-cycle time fault, immediate
  commit, or the PRECEDENCE protocol (§4.2.6);
* COMMIT/ABORT processing (§4.2.7/§4.2.8) including rollback of dependent
  threads to their ``Rollbacks[g]`` positions;
* incarnation numbering on local aborts (§4.1.2) and output commit for
  external messages (§3.2).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ProgramError, ProtocolError
from repro.core.cdg import CommitDependencyGraph
from repro.core.config import (DEFAULT_FORK_TIMEOUT, ORPHAN_SCAN_INTERVAL,
                               ORPHAN_SCAN_MAX_IDLE, ControlPlane,
                               DeliveryHeuristic, OptimisticConfig)
from repro.core.guards import GuardSet
from repro.core.guess import GuessId
from repro.core.history import GuessStatus, SystemView
from repro.core.holders import HolderIndex
from repro.core.journal import FORK, JOIN, RESULT, SEND, Slot
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    DataEnvelope,
    PrecedenceMsg,
    QueryMsg,
)
from repro.core.snapshot import Snapshotter, StateSnapshot
from repro.core.thread import OptimisticThread, ThreadStatus
from repro.obs import spans as ob
from repro.csp.effects import Call, Emit, Reply, Send
from repro.csp.payloads import CallRequest, CallResponse, OneWay, Request
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program


def _fork_timeout(spec: ForkSpec) -> float:
    """The left thread's divergence timeout (§3.2) at one fork site."""
    return spec.timeout if spec.timeout is not None else DEFAULT_FORK_TIMEOUT


@dataclass
class GuessRecord:
    """Local bookkeeping for one of our own guesses."""

    guess: GuessId
    site: str                       # guessed segment name (S1)
    site_seg: int                   # its index
    range_end: int                  # right thread's segment range end
    spec: ForkSpec
    guessed: Dict[str, Any]
    left_tid: int
    right_tid: int
    status: str = "pending"         # pending | committed | aborted
    continuation_tid: Optional[int] = None
    timer: Any = None
    forked_at: float = 0.0          # virtual time of the fork
    #: snapshot of the left thread's state at fork, for strict_exports —
    #: shared with the fork's other captures, not a separate copy
    fork_snapshot: Optional[StateSnapshot] = None
    last_precedence: Optional[frozenset] = None
    #: True when a rollback of the forking thread discarded the FORK slot:
    #: the (former) left thread re-executes the whole range itself, so no
    #: continuation must ever be spawned for this record.
    fork_undone: bool = False
    #: exports statically certified unused by the continuation: excluded
    #: from the guess at fork, captured from the left thread at commit
    deferred_keys: Tuple[str, ...] = ()
    #: exports statically certified bump-only downstream: a guess mismatch
    #: records a repair delta instead of aborting
    certified_keys: frozenset = frozenset()
    #: per-key repair deltas computed at the latest join (certified keys)
    repair: Optional[Dict[str, Any]] = None


@dataclass
class Emission:
    """One buffered external output awaiting commit (§3.2)."""

    emission_id: int
    tid: int
    sink: str
    payload: Any
    size: int
    porder: Tuple[int, int]
    pending: Set[GuessId]
    released: bool = False
    dropped: bool = False


class ProcessRuntime:
    """All optimistic-protocol state of one process."""

    def __init__(
        self,
        system,  # OptimisticSystem
        program: Program,
        plan: Optional[ParallelizationPlan],
        config: OptimisticConfig,
    ) -> None:
        #: weak back-references (system -> runtime -> thread own the other
        #: way), so a finished run is freed by reference counting alone
        self.system = weakref.proxy(system)
        self._proxy = weakref.proxy(self)
        self.name = program.name
        self.program = program
        self.plan = plan or ParallelizationPlan()
        self.plan.validate(program)
        self.config = config
        #: the execution substrate, spoken to only through the backend
        #: facade (scheduling, timers, segment-task submission)
        self.backend = system.backend
        self.stats = system.stats
        self.recorder = system.recorder
        self.tracer = system.tracer
        #: typed handles for the opt.* instrument set (same Stats keys)
        self.m = system.runtime_metrics
        #: opt-in per-segment access recording (None = off, zero cost)
        self.access = system.access
        #: state capture/restore layer (COW snapshots or legacy deepcopy)
        self.snap = Snapshotter(config.snapshot_policy, self.stats)
        #: static effects index (ROADMAP item 1), built only on opt-in —
        #: default runs never import the analyzer and pay nothing
        self.effects = None
        #: committed actuals of deferred exports, overlaid by final_state
        self._deferred_actuals: Dict[str, Any] = {}
        #: accumulated bump-repair deltas, applied by final_state
        self._repair_deltas: Dict[str, Any] = {}
        if config.static_effects:
            try:
                from repro.analyze.effects import infer_program_effects

                self.effects = infer_program_effects(program)
            except Exception:
                self.effects = None  # analysis failure = feature off

        self.view = SystemView()
        #: guess -> the threads, pooled envelopes, buffered emissions and
        #: CDG nodes it holds up; a resolution visits only those holders
        self.index = HolderIndex(self.view)
        backend = self.backend
        self.cdg = CommitDependencyGraph(
            tracer=self.tracer, process=self.name,
            clock=lambda: backend.now, on_node=self.index.hold_cdg,
        )
        self.threads: Dict[int, OptimisticThread] = {}
        self.children: Dict[int, List[int]] = {}
        self._next_tid = 0
        self.incarnation = 0
        self.next_fork_index = 0
        self.records: Dict[GuessId, GuessRecord] = {}
        self.pool: List[DataEnvelope] = []
        self.emissions: List[Emission] = []
        self._next_emission_id = 0
        self.site_attempts: Dict[str, int] = {}
        #: §4.2.5 targeted mode: who we made dependent on each guess by
        #: sending them a message tagged with it.
        self.dependents: Dict[GuessId, Set[str]] = {}
        self._control_relayed: Set[Tuple[str, GuessId]] = set()
        self.tentative_completion: Optional[float] = None
        self.committed_completion: Optional[float] = None
        self._in_sweep = False
        self._in_dispatch = False
        #: Idempotence bookkeeping for re-delivered control messages: a
        #: COMMIT/ABORT is applied once per (kind, GuessId) — the GuessId
        #: carries the incarnation, so renumbered retries are distinct —
        #: and a PRECEDENCE once per (guess, guard snapshot).
        self._control_seen: Set[Tuple] = set()
        #: Data envelopes already accepted (duplicate suppression when the
        #: network can duplicate; keyed on the envelope's unique msg_id).
        self._data_seen: Set[int] = set()
        #: True while the simulated process is down (crash fault).
        self.crashed = False
        self._scan_timer: Any = None
        self._scan_last: frozenset = frozenset()
        self._scan_idle = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Create and launch the process's main thread."""
        base = self.snap.capture(self.program.initial_state)
        main = self._create_thread(
            seg_start=0,
            seg_end=len(self.program.segments),
            state=self.snap.restore(base),
            guard=GuardSet(),
            initial_snapshot=base,
        )
        self.backend.at(0.0, main.start, label=f"start {self.name}")

    def _create_thread(
        self,
        seg_start: int,
        seg_end: int,
        state: Dict[str, Any],
        guard: GuardSet,
        inherited_rollbacks: Optional[Dict[GuessId, int]] = None,
        initial_snapshot: Optional[StateSnapshot] = None,
    ) -> OptimisticThread:
        tid = self._next_tid
        self._next_tid += 1
        thread = OptimisticThread(
            runtime=self._proxy,
            tid=tid,
            seg_start=seg_start,
            seg_end=seg_end,
            state=state,
            guard=guard,
            inherited_rollbacks=inherited_rollbacks,
            initial_snapshot=initial_snapshot,
        )
        self.threads[tid] = thread
        self.children[tid] = []
        self.index.hold_thread(tid, guard)
        return thread

    def log_event(self, kind: str, *, span_guard: Optional[List[str]] = None,
                  **detail: Any) -> None:
        """Record one protocol event (``span_guard``: traced-only, unlogged)."""
        self.system.log_protocol_event(self.name, kind, detail, span_guard)

    def on_exec_failure(self, failure) -> None:
        """A pool task carrying this process's segment labor failed.

        Labor is effect-free by construction, so the substrate already
        recovered (retry, quarantine, or fallback) and the segment's
        virtual completion stands — this records the abort-and-fallback
        in the process's protocol events and metrics, never a crash.
        """
        self.m.exec_failures.inc()
        self.log_event("exec_failure", label=failure.label,
                       failure=failure.kind, attempts=failure.attempts,
                       quarantined=failure.quarantined)

    # ----------------------------------------------------------------- fork

    def maybe_fork(self, thread: OptimisticThread, seg_idx: int) -> bool:
        """Fork at the boundary where ``thread`` is about to run ``seg_idx``.

        On success ``thread`` becomes the left thread (caller shrinks its
        range) and a right thread takes the continuation under a new guess.
        """
        seg = self.program.segments[seg_idx]
        spec = self.plan.fork_for(seg.name)
        if spec is None:
            return False
        if self.site_attempts.get(seg.name, 0) >= self.config.max_optimistic_retries:
            self.m.fork_fallback.inc()
            self.log_event("fork_fallback", site=seg.name)
            return False
        governor = self.system.governor
        if governor is not None and not governor.allow_fork(
            self.name, self.backend.now
        ):
            # Denied fork == sequential execution of the segment, exactly
            # like the §3.3 fallback: a pure throughput decision.
            self.log_event("fork_throttled", site=seg.name)
            return False
        if thread.own_guess is not None:
            raise ProtocolError(
                f"{self.name}.t{thread.tid} already guards {thread.own_guess}"
            )

        guess = GuessId.make(self.name, self.incarnation, self.next_fork_index)
        self.next_fork_index += 1
        guessed = dict(self._predict_unobserved(spec, thread))
        missing = [k for k in guessed if k not in seg.exports]
        if missing:
            raise ProgramError(
                f"predictor for segment {seg.name!r} guesses non-exported "
                f"keys {missing}; exports are {seg.exports}"
            )
        deferred: Tuple[str, ...] = ()
        certified: frozenset = frozenset()
        if self.effects is not None and guessed:
            deferrable = self.effects.deferrable_exports(seg_idx)
            if deferrable:
                deferred = tuple(k for k in guessed if k in deferrable)
                for k in deferred:
                    del guessed[k]
                self.m.guesses_deferred.inc(len(deferred))
                self.log_event("guess_deferred", site=seg.name,
                               keys=sorted(deferred))
                if not guessed:
                    self.m.guess_free_forks.inc()
            certified = self.effects.bump_certified(seg_idx) & guessed.keys()
        # One capture of the forking thread's state backs everything the
        # fork needs: the right thread's birth state (plus the guessed
        # overlay), its replay base, and the strict_exports reference.
        base_snap = self.snap.capture(thread.state)
        right_snap = self.snap.derive(base_snap, guessed)
        right_state = self.snap.restore(right_snap)
        right_guard = thread.guard.copy()
        right_guard.add(guess)
        inherited = {g: 0 for g in right_guard}

        prev_end = thread.seg_end
        right = self._create_thread(
            seg_start=seg_idx + 1,
            seg_end=prev_end,
            state=right_state,
            guard=right_guard,
            inherited_rollbacks=inherited,
            initial_snapshot=right_snap,
        )
        record = GuessRecord(
            guess=guess,
            site=seg.name,
            site_seg=seg_idx,
            range_end=prev_end,
            spec=spec,
            guessed=guessed,
            left_tid=thread.tid,
            right_tid=right.tid,
            fork_snapshot=(
                base_snap if self.config.strict_exports else None
            ),
            deferred_keys=deferred,
            certified_keys=certified,
        )
        self.records[guess] = record
        thread.own_guess = guess
        thread.journal.append(
            Slot(kind=FORK, signature=("fork", seg_idx),
                 data=(right.tid, guess, prev_end))
        )
        self.children[thread.tid].append(right.tid)

        record.timer = self.backend.timer(
            _fork_timeout(spec),
            lambda: self._on_fork_timeout(guess),
            label=f"{self.name}.{guess.key()}.timeout",
        )
        overhead = self.config.fork_overhead(spec.copy_state)
        # Track the start event so destroying the thread before it launches
        # cancels the launch (no zombie threads).
        right._pending_event = self.backend.after(
            overhead, right.start, label=f"start {self.name}.t{right.tid}"
        )
        if governor is not None:
            governor.on_fork(self.name)
        self.m.forks.inc()
        now = self.backend.now
        record.forked_at = now
        self.m.speculation_depth.add(1, now)
        # The span guard lists the guesses the new right thread is born
        # under (excluding its own): the fork-time dependence edges of the
        # provenance graph.
        guard = (sorted(g.key() for g in right_guard if g != guess)
                 if self.tracer.enabled else None)
        self.log_event("fork", guess=guess.key(), site=seg.name,
                       left=thread.tid, right=right.tid,
                       incarnation=guess.incarnation, index=guess.index,
                       span_guard=guard)
        return True

    def _predict_unobserved(self, spec: ForkSpec,
                            thread: OptimisticThread) -> Dict[str, Any]:
        """Run the predictor with access recording detached.

        Predictor reads are planner bookkeeping, not segment accesses —
        recording them would charge them to whichever segment's record
        happens to be attached at the fork boundary and break the
        static-superset property the soundness monitor audits.
        """
        state = thread.state
        rec = getattr(state, "_rec", None)
        if rec is None:
            return spec.predict(state)
        state._rec = None
        try:
            return spec.predict(state)
        finally:
            state._rec = rec

    def _on_fork_timeout(self, guess: GuessId) -> None:
        record = self.records[guess]
        if record.status != "pending":
            return
        self.m.aborts_timeout.inc()
        self.log_event("timeout_abort", guess=guess.key())
        self.abort_own([record], reason="timeout")

    # ------------------------------------------------------------- sending

    def _guard_tag(self, thread: OptimisticThread) -> frozenset:
        if self.config.compress_guards:
            return thread.guard.compressed()
        return thread.guard.frozen()

    def send_call(self, thread: OptimisticThread, effect: Call, call_id) -> None:
        """Send a call request tagged with the thread's guard."""
        payload = CallRequest(
            op=effect.op, args=tuple(effect.args), call_id=call_id,
            reply_to=self.name, size=effect.size,
        )
        self._send_data(thread, effect.dst, payload,
                        ("call", effect.op, tuple(effect.args)), effect.size)

    def send_oneway(self, thread: OptimisticThread, effect: Send) -> None:
        """Send a one-way message tagged with the thread's guard."""
        payload = OneWay(op=effect.op, args=tuple(effect.args), size=effect.size)
        self._send_data(thread, effect.dst, payload,
                        ("send", effect.op, tuple(effect.args)), effect.size)

    def send_reply(self, thread: OptimisticThread, req: Request,
                   effect: Reply) -> None:
        """Send a call reply tagged with the thread's guard."""
        payload = CallResponse(call_id=req.call_id, value=effect.value,
                               op=req.op, size=effect.size)
        self._send_data(thread, req.reply_to, payload,
                        ("reply", req.op, effect.value), effect.size)

    def _send_data(self, thread: OptimisticThread, dst: str, payload: Any,
                   trace_data: Tuple, size: int) -> None:
        envelope = DataEnvelope(
            src=self.name, dst=dst, payload=payload,
            guard=self._guard_tag(thread), size=size,
        )
        for g in envelope.guard:
            self.dependents.setdefault(g, set()).add(dst)
        self.recorder.record_send(
            self.name, dst, trace_data, self.backend.now,
            guards=envelope.guard_keys(), porder=thread.porder(),
        )
        self.m.guard_tag_units.inc(len(envelope.guard))
        if self.tracer.enabled:
            self.tracer.event(
                ob.SEND, self.name, self.backend.now,
                name=f"{trace_data[0]}:{trace_data[1]}", dst=dst,
                tid=thread.tid, guards=len(envelope.guard),
                guard=sorted(envelope.guard_keys()),
            )
        if self.access is not None:
            self.access.note_send(thread._access_rec, self.name, dst,
                                  trace_data[1])
        self.system.send_data(envelope)

    def record_recv(self, thread: OptimisticThread, src: str,
                    trace_data: Tuple, porder: Tuple[int, int]) -> None:
        """Record a consumption in the trace, tagged with the guard."""
        self.recorder.record_recv(
            src, self.name, trace_data, self.backend.now,
            guards=thread.guard.keys(), porder=porder,
        )
        if self.tracer.enabled:
            self.tracer.event(
                ob.RECV, self.name, self.backend.now,
                name=f"{trace_data[0]}:{trace_data[1]}", src=src,
                tid=thread.tid, guards=len(thread.guard),
                guard=sorted(thread.guard.keys()),
            )
        if self.access is not None:
            self.access.note_recv(thread._access_rec, src, self.name,
                                  trace_data[1])

    # ------------------------------------------------------------ emissions

    def emit(self, thread: OptimisticThread, effect: Emit,
             porder: Tuple[int, int]) -> int:
        """External output: release now or buffer until commit (§3.2)."""
        if effect.sink not in self.system.sinks:
            raise ProgramError(f"{self.name}: Emit to unknown sink {effect.sink!r}")
        self._next_emission_id += 1
        emission = Emission(
            emission_id=self._next_emission_id,
            tid=thread.tid,
            sink=effect.sink,
            payload=effect.payload,
            size=effect.size,
            porder=porder,
            pending={
                g for g in thread.guard
                if not self.view.is_committed(g)
            },
        )
        self.recorder.record_external(
            self.name, effect.sink, effect.payload, self.backend.now,
            guards=thread.guard.keys(), porder=porder,
        )
        if self.tracer.enabled:
            self.tracer.event(
                ob.EMIT, self.name, self.backend.now,
                name=effect.sink, tid=thread.tid,
                buffered=bool(emission.pending),
            )
        if self.access is not None:
            self.access.note_emit(thread._access_rec, effect.sink)
        if emission.pending:
            self.emissions.append(emission)
            self.index.hold_emission(emission.emission_id, emission.pending)
            self.m.emissions_buffered.inc()
        else:
            self._release_emission(emission)
        return emission.emission_id

    def _release_emission(self, emission: Emission) -> None:
        emission.released = True
        self.system.network.send(
            self.name, emission.sink, emission.payload, size=emission.size
        )
        self.m.emissions_released.inc()

    def _drop_emission_by_id(self, emission_id: int) -> None:
        for em in self.emissions:
            if em.emission_id == emission_id:
                if em.released:
                    raise ProtocolError(
                        f"{self.name}: rollback reached a released external "
                        f"emission {emission_id} — output commit violated"
                    )
                em.dropped = True
        self.emissions = [em for em in self.emissions if not em.dropped]

    # -------------------------------------------------------- guard handling

    def acquire_guards(self, thread: OptimisticThread, envelope: DataEnvelope,
                       before_position: int) -> None:
        """§4.2.3: extend the thread's guard with the message's new guards."""
        new = []
        for g in sorted(envelope.guard):
            status = self.view.status(g)
            if status is GuessStatus.COMMITTED:
                continue
            if status is GuessStatus.ABORTED:
                raise ProtocolError(
                    f"{self.name}: consuming orphan envelope {envelope.msg_id} "
                    f"(guard member {g.key()} aborted)"
                )
            if g not in thread.guard:
                new.append(g)
        if new:
            thread.interval += 1
            for g in new:
                thread.guard.add(g)
                thread.rollbacks[g] = before_position
            self.index.hold_thread(thread.tid, new)
            self.m.guards_acquired.inc(len(new))

    # ------------------------------------------------------ message arrival

    def on_network(self, src: str, payload: Any) -> None:
        """Network delivery entry point: control handling + orphan test (§4.2.3)."""
        if self.crashed:
            # A down process loses in-flight deliveries; the reliable
            # transport (when on) withholds the ack so the sender retries.
            self.m.messages_lost_down.inc()
            return
        if isinstance(payload, CommitMsg):
            self._handle_commit(payload, src)
        elif isinstance(payload, AbortMsg):
            self._handle_abort(payload, src)
        elif isinstance(payload, PrecedenceMsg):
            self._handle_precedence(payload)
        elif isinstance(payload, QueryMsg):
            self._handle_query(payload, src)
        elif isinstance(payload, DataEnvelope):
            if self.config.resilience is not None:
                if payload.msg_id in self._data_seen:
                    self.m.data_dups.inc()
                    return
                self._data_seen.add(payload.msg_id)
            if self.index.hold_envelope(payload.msg_id, payload.guard):
                self._note_orphan(payload)
                return
            self.pool.append(payload)
            self.dispatch()
            self._maybe_arm_orphan_scan()
        else:
            raise ProtocolError(f"{self.name}: bad payload {payload!r}")

    def _note_orphan(self, envelope: DataEnvelope) -> None:
        self.m.orphans_discarded.inc()
        aborted = self.view.any_aborted(envelope.guard)
        extra = {"aborted": aborted.key()} if aborted is not None else {}
        guard = (sorted(envelope.guard_keys()) if self.tracer.enabled
                 else None)
        self.log_event("orphan_discard", msg_id=envelope.msg_id,
                       src=envelope.src, span_guard=guard, **extra)

    def on_thread_blocked(self, thread: OptimisticThread) -> None:
        """A thread entered a blocked state: try to feed it from the pool."""
        self.dispatch()

    # ------------------------------------------------------------- dispatch

    def dispatch(self) -> None:
        """Deliver pool messages to eligible threads until none fits.

        Orphans (flagged by the holder index when an abort is learned) are
        dropped as the scan reaches them.  A delivery changes
        which threads wait and for what, so the scan then restarts at the
        head of the pool: earlier messages keep their priority.
        """
        if self._in_dispatch:
            # Re-entered from a delivery: the running scan restarts after it.
            return
        self._in_dispatch = True
        try:
            i = 0
            while i < len(self.pool):
                envelope = self.pool[i]
                if envelope.msg_id in self.index.orphans:
                    del self.pool[i]
                    self._note_orphan(envelope)
                elif isinstance(envelope.payload, CallResponse):
                    i = 0 if self._dispatch_reply(envelope) else i + 1
                else:
                    i = 0 if self._dispatch_request(envelope) else i + 1
        finally:
            self._in_dispatch = False

    def eligible_threads(self, envelope: DataEnvelope
                         ) -> List[OptimisticThread]:
        """Threads that could consume ``envelope`` now, in tid order."""
        payload = envelope.payload
        if isinstance(payload, CallResponse):
            return [
                t for t in self._threads_in_order()
                if t.status is ThreadStatus.BLOCKED_CALL
                and t.waiting_call_id == payload.call_id
            ]
        return [
            t for t in self._threads_in_order()
            if t.status is ThreadStatus.BLOCKED_RECV
            and t.waiting_receive is not None
            and (t.waiting_receive.ops is None
                 or payload.op in t.waiting_receive.ops)
            and not (t.pessimistic and not self.view.all_committed(
                envelope.guard))
        ]

    def _dispatch_reply(self, envelope: DataEnvelope) -> bool:
        payload: CallResponse = envelope.payload
        eligible = self.eligible_threads(envelope)
        if not eligible:
            return False
        target = eligible[0]
        # §4.2.3 early-abort: a reply that depends on the waiting thread's
        # own (future) guess proves a causal cycle — abort it right away.
        if self.config.early_reply_abort and target.own_guess is not None:
            record = self.records.get(target.own_guess)
            if (
                record is not None
                and record.status == "pending"
                and target.own_guess in envelope.guard
            ):
                self.m.aborts_time_fault.inc()
                self.log_event("early_reply_time_fault",
                               guess=target.own_guess.key())
                self.abort_own([record], reason="time_fault",
                               detail={"cycle": [target.own_guess.key()]})
                return True  # envelope is now an orphan; next pass drops it
        # NOTE: the §3.3 pessimistic filter deliberately does NOT apply to
        # call replies.  A reply is a forced move — the thread must consume
        # exactly this message — so withholding it until its guards commit
        # can deadlock: the reply may be guarded by this very process's
        # downstream guesses, whose commits transitively wait on this
        # thread's progress (found by randomized search).
        self.pool.remove(envelope)
        target.deliver_reply(envelope, payload.value, payload.op)
        return True

    def _dispatch_request(self, envelope: DataEnvelope) -> bool:
        payload = envelope.payload
        if isinstance(payload, CallRequest):
            req = Request(src=envelope.src, op=payload.op, args=payload.args,
                          call_id=payload.call_id, reply_to=payload.reply_to)
        elif isinstance(payload, OneWay):
            req = Request(src=envelope.src, op=payload.op, args=payload.args)
        else:
            raise ProtocolError(f"{self.name}: bad request payload {payload!r}")
        eligible = self.eligible_threads(envelope)
        if not eligible:
            return False
        if self.config.delivery_heuristic is DeliveryHeuristic.MIN_NEW_DEPS:
            target = min(
                eligible,
                key=lambda t: (len(t.guard.new_guards(envelope.guard)), t.tid),
            )
        else:
            target = max(eligible, key=lambda t: t.tid)
        self.pool.remove(envelope)
        target.deliver_request(envelope, req)
        return True

    def _threads_in_order(self) -> List[OptimisticThread]:
        # tids only grow and are never re-inserted: insertion is tid order
        return list(self.threads.values())

    # ------------------------------------------------------------ join logic

    def on_thread_finished(self, thread: OptimisticThread) -> None:
        """A thread completed its segment range: join or completion handling."""
        if thread.own_guess is not None:
            self.evaluate_join(self.records[thread.own_guess])
        else:
            if thread.seg_end >= len(self.program.segments):
                self.tentative_completion = self.backend.now
                self.log_event("tentative_complete", tid=thread.tid)
            self._check_completion()

    def evaluate_join(self, record: GuessRecord) -> None:
        """§4.2.5: the left thread of ``record`` has (re)terminated."""
        left = self.threads[record.left_tid]
        if not left.finished or left.status is not ThreadStatus.TERMINATED:
            return
        if record.timer is not None:
            record.timer.cancel()
        if record.status == "aborted":
            self._spawn_continuation(record)
            return
        if record.status == "committed":
            return

        seg = self.program.segments[record.site_seg]
        # An export the left thread never wrote must stay *absent*, not
        # become an explicit None — the default verifier distinguishes the
        # two (a guessed None against a missing export is a value fault).
        actual = {k: left.state[k] for k in seg.exports if k in left.state}
        self._strict_exports_check(record, left, seg)

        # Commutativity certificates (static_effects): a numeric mismatch
        # on a bump-certified key is repairable — every downstream use is
        # an additive self-update, so the error is a constant shift fixed
        # at commit.  Certified keys verify here without value equality;
        # non-numeric values fall back to the ordinary verifier.
        verify_guessed = record.guessed
        repairs: Dict[str, Any] = {}
        if record.certified_keys:
            verify_guessed = dict(record.guessed)
            for k in record.certified_keys:
                if k not in verify_guessed or k not in actual:
                    continue
                g, a = verify_guessed[k], actual[k]
                if (isinstance(g, (int, float)) and not isinstance(g, bool)
                        and isinstance(a, (int, float))
                        and not isinstance(a, bool)):
                    if a != g:
                        repairs[k] = a - g
                    del verify_guessed[k]
        if not record.spec.verifier(verify_guessed, actual):
            self.m.aborts_value_fault.inc()
            self.log_event("value_fault", guess=record.guess.key(),
                           guessed=record.guessed, actual=actual)
            # repr() keeps arbitrary guessed values JSON-safe in span attrs.
            wrong = sorted(
                k for k in record.guessed
                if record.guessed.get(k) != actual.get(k)
            ) or sorted(record.guessed)
            self.abort_own([record], reason="value_fault", detail={
                "mispredicted": [
                    [k, repr(record.guessed.get(k)), repr(actual.get(k))]
                    for k in wrong
                ],
            })
            return
        record.repair = repairs or None
        if repairs:
            self.m.commutative_repairs.inc(len(repairs))
            self.log_event("commutative_repair", guess=record.guess.key(),
                           keys=sorted(repairs))
        if record.guess in left.guard:
            # The left thread causally depends on its own fork: time fault —
            # a causal cycle of length one, through the guess itself.
            self.m.aborts_time_fault.inc()
            self.log_event("join_time_fault", guess=record.guess.key())
            self.abort_own([record], reason="time_fault",
                           detail={"cycle": [record.guess.key()]})
            return
        # Prune committed guards before deciding.
        self._settle_guard(left, self.index.threads.get(left.tid))
        if not left.guard:
            self.commit_own(record)
            return
        # Unresolved foreign guesses: the PRECEDENCE protocol (§4.2.6).
        snapshot = left.guard.frozen()
        if record.last_precedence != snapshot:
            record.last_precedence = snapshot
            self.cdg.add_precedence(record.guess, snapshot)
            self._emit_control(
                PrecedenceMsg(guess=record.guess, guard=snapshot)
            )
            self.m.precedence_sent.inc()
            self.log_event("precedence_sent", guess=record.guess.key(),
                           guard=sorted(g.key() for g in snapshot))
            self._check_own_cycles()

    def _strict_exports_check(self, record: GuessRecord,
                              left: OptimisticThread, seg) -> None:
        """Cheap snapshot comparison replacing the old full-state deepcopy.

        ``fork_snapshot`` shares the capture the fork already paid for, and
        the per-key comparison touches only frozen forms — scalar keys (the
        common case) compare directly, with no state copy at all.
        """
        if not self.config.strict_exports or record.fork_snapshot is None:
            return
        snap = record.fork_snapshot
        for key, value in left.state.items():
            if key in seg.exports:
                continue
            if self.snap.key_changed(snap, key, value):
                raise ProgramError(
                    f"segment {seg.name!r} of {self.name!r} changed "
                    f"non-exported state key {key!r}; add it to exports= "
                    "or the continuation will run against a stale value"
                )

    def commit_own(self, record: GuessRecord) -> None:
        """Commit one of our guesses and notify dependents (§4.2.7)."""
        record.status = "committed"
        if record.timer is not None:
            record.timer.cancel()
        self._capture_certified_effects(record)
        self._on_resolved(self.view.note_commit(record.guess))
        self.cdg.remove_node(record.guess)
        self._emit_control(CommitMsg(guess=record.guess))
        self.m.commits.inc()
        self._resolve_metrics(record, outcome="commit")
        self.log_event("commit", guess=record.guess.key())
        self.resolve_sweep()

    def _capture_certified_effects(self, record: GuessRecord) -> None:
        """Bank a committing record's deferred actuals and repair deltas.

        Runs exactly once per record, at commit — the only irrevocable
        point: a commit means every birth guard already resolved, so the
        left thread's values can never be rolled back.  ``final_state``
        overlays the banked values; patching live thread state instead
        would be unsound (rollback restores snapshots predating the
        patch).
        """
        if record.deferred_keys:
            left = self.threads.get(record.left_tid)
            for k in record.deferred_keys:
                if left is not None and k in left.state:
                    self._deferred_actuals[k] = left.state[k]
        if record.repair:
            for k, delta in record.repair.items():
                self._repair_deltas[k] = (
                    self._repair_deltas.get(k, 0) + delta
                )

    def _resolve_metrics(self, record: GuessRecord, outcome: str) -> None:
        """Shared commit/abort accounting: depth gauge, doubt histogram."""
        now = self.backend.now
        self.m.speculation_depth.add(-1, now)
        self.m.doubt_time.observe(now - record.forked_at)
        if self.system.governor is not None:
            self.system.governor.on_resolution(self.name, outcome, now)

    # ------------------------------------------------------------ own aborts

    def abort_own(self, records: List[GuessRecord], reason: str,
                  root: Optional[str] = None,
                  detail: Optional[Dict[str, Any]] = None) -> None:
        """Abort our own guesses: destroy right subtrees, renumber, notify.

        ``root`` names the guess whose failure caused this abort (cascade
        provenance); guesses discovered while destroying right subtrees are
        cascade orphans of the record being torn down.  ``detail`` carries
        fault forensics (mispredictions, CDG cycle) onto the *initial*
        records' abort entries.
        """
        to_abort: List[GuessRecord] = []
        #: cascade root per aborted record: None for the genuine roots.
        roots: Dict[GuessId, Optional[str]] = {}
        stack: List[Tuple[GuessRecord, Optional[str]]] = [
            (r, root) for r in records
        ]
        while stack:
            record, cascade_root = stack.pop()
            if record.status != "pending":
                continue
            record.status = "aborted"
            if record.timer is not None:
                record.timer.cancel()
            to_abort.append(record)
            self.index.records.mark(record.guess)
            roots[record.guess] = cascade_root
            nested_root = cascade_root or record.guess.key()
            for t in self._destroy_subtree(record.right_tid,
                                           cause=record.guess.key()):
                if t.own_guess is not None:
                    nested = self.records.get(t.own_guess)
                    if nested is not None and nested.status == "pending":
                        stack.append((nested, nested_root))
        if not to_abort:
            return

        # §4.1.2: bump the incarnation, reset the index to the abort point.
        self.incarnation += 1
        reset_index = min(r.guess.index for r in to_abort)
        self.next_fork_index = reset_index
        self._on_resolved(
            self.view.learn_start(self.name, self.incarnation, reset_index)
        )
        for record in to_abort:
            self._on_resolved(self.view.note_abort(record.guess))
            self.recorder.mark_aborted(record.guess.key())
            self.site_attempts[record.site] = (
                self.site_attempts.get(record.site, 0) + 1
            )
            self._emit_control(AbortMsg(guess=record.guess))
            self.m.aborts.inc()
            self._resolve_metrics(record, outcome="abort")
            cascade_root = roots[record.guess]
            extra = ({"root": cascade_root} if cascade_root is not None
                     else detail or {})
            self.log_event("abort", guess=record.guess.key(), reason=reason,
                           **extra)
        for record in to_abort:
            self._rollback_for_abort(record.guess)
            self.cdg.remove_node(record.guess)
        self.resolve_sweep()
        for record in to_abort:
            left = self.threads.get(record.left_tid)
            if (
                left is not None
                and left.status is ThreadStatus.TERMINATED
                and left.finished
            ):
                self._spawn_continuation(record)

    def _destroy_subtree(self, tid: int,
                         cause: Optional[str] = None) -> List[OptimisticThread]:
        """Destroy a thread and its descendants; requeue their clean inputs.

        ``cause`` names the aborted guess on whose behalf the subtree dies;
        it lands on the destroyed segment spans for wasted-work attribution.
        """
        thread = self.threads.get(tid)
        if thread is None or thread.status is ThreadStatus.DESTROYED:
            return []
        destroyed = [thread]
        thread.destroy(cause=cause)
        # Requeue messages the dead thread had consumed so the re-execution
        # can receive them again (orphans are filtered at dispatch).
        self._requeue_consumed(thread.journal.slots)
        kept = []
        for em in self.emissions:
            if em.tid == tid and not em.released:
                em.dropped = True
                self.m.emissions_dropped.inc()
            else:
                kept.append(em)
        self.emissions = kept
        for child in self.children.get(tid, []):
            destroyed.extend(self._destroy_subtree(child, cause=cause))
        self.m.threads_destroyed.inc()
        return destroyed

    def _abort_orphaned_records(self, destroyed: List[OptimisticThread],
                                reason: str = "parent_rollback",
                                root: Optional[str] = None) -> None:
        """Abort pending guesses whose left threads were just destroyed.

        A destroyed left thread can never reach its join, so leaving its
        guess pending would stall every dependent forever.
        """
        pending = []
        for t in destroyed:
            if t.own_guess is not None:
                record = self.records.get(t.own_guess)
                if record is not None and record.status == "pending":
                    pending.append(record)
        if pending:
            self.abort_own(pending, reason=reason, root=root)

    def _requeue_consumed(self, slots: List[Slot]) -> None:
        requeued = [
            s.envelope for s in slots
            if s.kind == RESULT and s.envelope is not None
        ]
        if requeued:
            requeued.sort(key=lambda e: e.msg_id)
            self.pool[:0] = requeued

    def _spawn_continuation(self, record: GuessRecord) -> None:
        if record.fork_undone:
            return  # the former left thread re-executes the range itself
        existing = self.threads.get(record.continuation_tid)
        if existing is not None and existing.alive:
            return
        left = self.threads[record.left_tid]
        base = self.snap.capture(left.state)
        cont = self._create_thread(
            seg_start=record.site_seg + 1,
            seg_end=record.range_end,
            state=self.snap.restore(base),
            guard=left.guard.copy(),
            inherited_rollbacks={g: 0 for g in left.guard},
            initial_snapshot=base,
        )
        record.continuation_tid = cont.tid
        left.journal.append(
            Slot(kind=JOIN, signature=("join", record.guess.key()),
                 data=cont.tid)
        )
        self.children[left.tid].append(cont.tid)
        self.m.continuations.inc()
        self.log_event("continuation", guess=record.guess.key(), tid=cont.tid)
        cont._pending_event = self.backend.after(
            0.0, cont.start, label=f"start {self.name}.t{cont.tid} (cont)"
        )

    # --------------------------------------------------- control processing

    def _emit_control(self, msg: Any) -> None:
        """Originate a control message (owner side)."""
        if self.tracer.enabled:
            self.tracer.event(
                ob.CONTROL, self.name, self.backend.now,
                name=type(msg).__name__, guess=msg.guess.key(),
                direction="sent",
            )
        if isinstance(msg, PrecedenceMsg):
            # PRECEDENCE must reach guess owners the sender may not have
            # messaged, so it is broadcast in both modes.
            self.system.broadcast_control(self.name, msg)
            return
        self._control_relayed.add((type(msg).__name__, msg.guess))
        # The owner already applied its own resolution; a copy relayed back
        # (targeted mode) or re-sent in answer to a QUERY must be a no-op.
        self._control_seen.add((type(msg).__name__, msg.guess))
        if self.config.control_plane is ControlPlane.BROADCAST:
            self.system.broadcast_control(self.name, msg)
            return
        targets = self.dependents.get(msg.guess, set()) - {self.name}
        for dst in sorted(targets):
            self.system.send_control(self.name, dst, msg)

    def _relay_control(self, src: str, msg: Any) -> None:
        """§4.2.5 targeted mode: forward resolutions to *our* dependents.

        A process that forwarded a guarded message created dependence the
        guess's owner cannot know about; relaying along the recorded edges
        makes the notification reach every transitive dependent.
        """
        if self.config.control_plane is not ControlPlane.TARGETED:
            return
        key = (type(msg).__name__, msg.guess)
        if key in self._control_relayed:
            return
        self._control_relayed.add(key)
        targets = self.dependents.get(msg.guess, set()) - {self.name, src}
        for dst in sorted(targets):
            self.system.send_control(self.name, dst, msg)

    def _note_control_received(self, msg: Any) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                ob.CONTROL, self.name, self.backend.now,
                name=type(msg).__name__, guess=msg.guess.key(),
                direction="received",
            )

    def _control_duplicate(self, key: Tuple) -> bool:
        """Record-and-test for re-delivered control messages.

        Keys carry the full :class:`GuessId` (process, incarnation, index),
        so resolutions of renumbered retries stay distinct; a true re-send
        — network duplicate, retransmission, or a QUERY reply racing the
        original — is suppressed after the relay step, keeping every
        handler idempotent.
        """
        if key in self._control_seen:
            self.m.control_dups.inc()
            return True
        self._control_seen.add(key)
        return False

    def _handle_commit(self, msg: CommitMsg, src: str = "") -> None:
        self._note_control_received(msg)
        self._relay_control(src, msg)
        if self._control_duplicate(("CommitMsg", msg.guess)):
            return
        self._on_resolved(self.view.note_commit(msg.guess))
        self.cdg.remove_node(msg.guess)
        self.log_event("commit_received", guess=msg.guess.key())
        self.resolve_sweep()

    def _handle_abort(self, msg: AbortMsg, src: str = "") -> None:
        self._note_control_received(msg)
        self._relay_control(src, msg)
        if self._control_duplicate(("AbortMsg", msg.guess)):
            return
        self._on_resolved(self.view.note_abort(msg.guess))
        self.log_event("abort_received", guess=msg.guess.key())
        self._rollback_for_abort(msg.guess)
        self.cdg.remove_node(msg.guess)
        self.resolve_sweep()

    def _rollback_for_abort(self, guess: GuessId) -> None:
        """One-shot §4.2.8 processing for ``ABORT(guess)``.

        Rolls back every thread whose guard holds the aborted guess or —
        with ``eager_cdg_rollback`` — any guard member that *follows* it in
        the local CDG (the paper's Abortset).  Applied once per abort:
        re-acquiring a follower afterwards is legitimate, since the
        follower's own fate is still open.
        """
        dead = {guess}
        if self.config.eager_cdg_rollback:
            dead |= self.cdg.descendants(guess)
        # Only holders of a dead guess can be affected, visited in tid
        # order.  A rollback's replay may make a later thread acquire a
        # follower, so holders are re-read after each; newborns wait for
        # the sweep.
        limit, done = self._next_tid, -1
        holders = self.index.holding(dead)
        while True:
            tids = [t for t in holders if done < t < limit]
            if not tids:
                return
            done = min(tids)
            thread = self.threads.get(done)
            if thread is None or not thread.alive:
                continue
            affected = thread.guard.members() & dead
            if affected:
                position = min(thread.rollbacks[g] for g in affected)
                self._perform_rollback(thread, position, cause=guess.key())
                holders = self.index.holding(dead)

    def _handle_precedence(self, msg: PrecedenceMsg) -> None:
        self._note_control_received(msg)
        if self._control_duplicate(("PrecedenceMsg", msg.guess, msg.guard)):
            return
        self.log_event("precedence_received", guess=msg.guess.key(),
                       guard=sorted(g.key() for g in msg.guard))
        if self.view.status(msg.guess).resolved:
            return  # stale: the guess already committed or aborted
        self.view.note_unknown(msg.guess)
        # Edges from already-resolved guard members carry no information:
        # committed ones are satisfied, aborted ones resolve via the abort
        # path — and re-adding them would leak nodes the resolution already
        # removed from the graph.
        live_guard = {
            g for g in msg.guard if not self.view.status(g).resolved
        }
        self.cdg.add_precedence(msg.guess, live_guard)
        self._check_own_cycles()
        self.resolve_sweep()

    def _check_own_cycles(self) -> None:
        """Abort any of our pending guesses caught in a CDG cycle (§4.2.6)."""
        for record in list(self.records.values()):
            if record.status != "pending":
                continue
            cycle = self.cdg.cycle_through(record.guess)
            if cycle is not None:
                self.m.aborts_cycle.inc()
                self.log_event(
                    "cycle_abort", guess=record.guess.key(),
                    cycle=[g.key() for g in cycle],
                )
                self.abort_own([record], reason="cycle",
                               detail={"cycle": [g.key() for g in cycle]})

    # --------------------------------------- orphan re-detection and crashes

    def _handle_query(self, msg: QueryMsg, src: str) -> None:
        """Answer a peer's fate probe for a guess we know about.

        A lost COMMIT/ABORT degrades to delayed cleanup rather than a hang:
        the dependent's periodic scan sends a QUERY and we re-send the
        resolution (the receiver's idempotence layer makes the re-send
        harmless even when the original eventually arrives too).  A
        still-pending guess gets no answer — the scan asks again next round.
        """
        status = self.view.status(msg.guess)
        if status is GuessStatus.COMMITTED:
            reply: Any = CommitMsg(guess=msg.guess)
        elif status is GuessStatus.ABORTED:
            reply = AbortMsg(guess=msg.guess)
        else:
            return
        self.m.query_replies.inc()
        self.log_event("query_reply", guess=msg.guess.key(), to=src)
        self.system.send_control(self.name, src, reply)

    def _unresolved_foreign(self) -> frozenset:
        """Foreign guesses this process depends on whose fate is unknown."""
        out = set()
        for thread in self._threads_in_order():
            if not thread.alive:
                continue
            for g in thread.guard:
                if g.process != self.name and not self.view.status(g).resolved:
                    out.add(g)
        for envelope in self.pool:
            for g in envelope.guard:
                if g.process != self.name and not self.view.status(g).resolved:
                    out.add(g)
        return frozenset(out)

    def _scan_armed(self) -> bool:
        t = self._scan_timer
        return t is not None and not t.cancelled and not t.fired

    def _maybe_arm_orphan_scan(self) -> None:
        """Arm the periodic orphan scan while unresolved foreign doubt exists.

        The timer exists only when needed: the scheduler runs until its
        queue drains, so an unconditional periodic timer would keep every
        run alive forever.
        """
        if self.config.resilience is None or self.crashed \
                or self._scan_armed():
            return
        if not self._unresolved_foreign():
            self._scan_last = frozenset()
            self._scan_idle = 0
            return
        self._scan_timer = self.backend.timer(
            ORPHAN_SCAN_INTERVAL, self._orphan_scan,
            label=f"{self.name}.orphan_scan",
        )

    def _orphan_scan(self) -> None:
        """One scan round: QUERY the owner of every unresolved dependency."""
        if self.crashed:
            return
        unresolved = self._unresolved_foreign()
        if not unresolved:
            self._scan_last = frozenset()
            self._scan_idle = 0
            return
        self.m.orphan_scans.inc()
        if unresolved == self._scan_last:
            self._scan_idle += 1
        else:
            self._scan_last = unresolved
            self._scan_idle = 0
        if self._scan_idle >= ORPHAN_SCAN_MAX_IDLE:
            # The same doubt survived several answered rounds: the owners
            # really are undecided (e.g. a deadlocked workload), not silent.
            # Disarm so the run can reach quiescence; new arrivals re-arm.
            self.log_event("orphan_scan_idle",
                           unresolved=sorted(g.key() for g in unresolved))
            return
        for g in sorted(unresolved):
            self.m.orphan_queries.inc()
            self.system.send_control(self.name, g.process, QueryMsg(guess=g))
        self._maybe_arm_orphan_scan()

    def crash(self) -> None:
        """Simulated process failure: freeze and lose uncommitted progress.

        Every pending timer and scheduled resume owned by this process is
        cancelled — a down process does nothing — and :meth:`on_network`
        drops deliveries while down.  Committed facts survive (peer views,
        journals, released output); :meth:`restart` rebuilds the rest.
        """
        if self.crashed:
            return
        self.crashed = True
        self.m.crashes.inc()
        self.log_event("crash")
        for thread in self._threads_in_order():
            thread._cancel_pending()
        for record in self.records.values():
            if record.timer is not None:
                record.timer.cancel()
        if self._scan_timer is not None:
            self._scan_timer.cancel()

    def restart(self) -> None:
        """Recover after a crash: abort own pending guesses, replay threads.

        Speculative state is volatile: every guess still in doubt at crash
        time is aborted — its tagged messages orphan everywhere, and the
        incarnation bump lets peers infer the abort even if the ABORT
        message itself is lost (§4.1.5).  Each surviving thread is then
        rebuilt by a *full-journal* replay: the journal is the stable log
        and replay suppresses already-performed sends, so recovery repeats
        nothing that was externally visible (the Optimistic Recovery
        position on logged inputs).
        """
        if not self.crashed:
            return
        self.crashed = False
        self.m.restarts.inc()
        self.log_event("restart")
        pending = [r for r in self.records.values() if r.status == "pending"]
        if pending:
            self.abort_own(pending, reason="crash")
        for thread in self._threads_in_order():
            if not thread.alive or not thread.active:
                continue
            self.m.crash_replays.inc()
            thread.rollback_to(len(thread.journal.slots), charge_retry=False)
            thread.replay()
        self.resolve_sweep()

    def _on_resolved(self, guesses: List[GuessId]) -> None:
        """Mark the holders of newly resolved guesses for the next sweep."""
        for tid in self.index.resolve(guesses):
            thread = self.threads.get(tid)
            if thread is not None and thread.own_guess is not None:
                self.index.records.mark(thread.own_guess)

    # -------------------------------------------------------- resolve sweep

    def resolve_sweep(self) -> None:
        """Propagate newly learned resolutions to their holders.

        Each pass settles what the holder index marked dirty, in the order
        below (§4.2.7/§4.2.8).  A resolution the pass itself causes only
        marks more holders for a later pass, so nested resolutions never
        reorder one pass's effects.
        """
        if self._in_sweep:
            return
        self._in_sweep = True
        try:
            while self.index:
                self._sweep_once()
        finally:
            self._in_sweep = False
        self.dispatch()
        self._check_completion()
        self._maybe_arm_orphan_scan()

    def _sweep_once(self) -> None:
        index = self.index
        # 1. CDG nodes resolved by *implication* (a commit of a later index
        # implies earlier ones; incarnation truncation implies aborts) —
        # explicit notifications for them may never arrive, especially
        # under the targeted control plane.
        for node in index.cdg:
            self.cdg.remove_node(node)
        index.cdg.clear()
        # 2. thread guards in tid order: prune commits, roll back aborts.
        # Threads born during the pass, or marked again after their turn,
        # wait for the next pass.
        for tid, resolved in index.threads.drain(self._next_tid):
            thread = self.threads.get(tid)
            if thread is None or not thread.alive:
                continue
            affected = self._settle_guard(thread, resolved)
            if affected:
                position = min(thread.rollbacks[g] for g in affected)
                self._perform_rollback(thread, position,
                                       cause=min(g.key() for g in affected))
        # 3. joins (or continuations) in fork order; guesses forked during
        # the pass sort above ``limit`` and wait.
        limit = GuessId(self.name, self.incarnation, self.next_fork_index)
        for guess, _ in index.records.drain(limit):
            record = self.records.get(guess)
            if record is not None and record.left_tid in self.threads:
                self.evaluate_join(record)
        # 4. buffered emissions.
        self._settle_emissions()

    def _settle_guard(self, thread: OptimisticThread,
                      resolved: Iterable[GuessId]) -> Set[GuessId]:
        """Prune the committed ``resolved`` guards; return the aborted ones.

        The CDG-follower part of §4.2.8's Abortset is applied one-shot in
        :meth:`_rollback_for_abort`; the sweep only needs the direct rule.
        """
        aborted = set()
        for g in resolved:
            if g in thread.guard:
                if self.view.is_committed(g):
                    thread.guard.discard(g)
                    thread.rollbacks.pop(g, None)
                else:
                    aborted.add(g)
        return aborted

    def _perform_rollback(self, thread: OptimisticThread, position: int,
                          cause: str) -> None:
        self.m.rollbacks.inc()
        self.log_event("rollback", tid=thread.tid, position=position,
                       cause=cause)
        thread.discard_cause = cause
        discarded = thread.rollback_to(position)
        self._requeue_consumed(discarded)
        for slot in discarded:
            if slot.kind == FORK:
                child_tid, guess, prev_end = slot.data
                thread.seg_end = prev_end
                thread.own_guess = None
                if child_tid in self.children.get(thread.tid, []):
                    self.children[thread.tid].remove(child_tid)
                record = self.records.get(guess)
                if record is not None:
                    # The fork itself is undone: the thread re-executes the
                    # whole range, so this record may never spawn a
                    # continuation (it would duplicate the range's effects).
                    record.fork_undone = True
                if record is not None and record.status == "pending":
                    self.abort_own([record], reason="parent_rollback",
                                   root=cause)
                elif record is not None and record.status == "aborted":
                    # Already aborted; just make sure the subtree is gone
                    # (and no pending nested guess leaks with it).
                    self._abort_orphaned_records(
                        self._destroy_subtree(record.right_tid, cause=cause),
                        root=cause)
            elif slot.kind == JOIN:
                cont_tid = slot.data
                self._abort_orphaned_records(
                    self._destroy_subtree(cont_tid, cause=cause), root=cause)
                if cont_tid in self.children.get(thread.tid, []):
                    self.children[thread.tid].remove(cont_tid)
            elif slot.kind == SEND and slot.signature[0] == "emit":
                self._drop_emission_by_id(slot.data)
        if thread.seg_end >= len(self.program.segments) and thread.own_guess is None:
            # The main line is running again: completion is no longer final.
            self.tentative_completion = None
        # A left thread rolled back past its join is re-executing S1: the
        # §3.2 divergence timeout must cover the re-execution too (the
        # original timer was cancelled when S1 first terminated).
        if thread.own_guess is not None:
            record = self.records.get(thread.own_guess)
            if (
                record is not None
                and record.status == "pending"
                and (record.timer is None or record.timer.cancelled
                     or record.timer.fired)
            ):
                record.timer = self.backend.timer(
                    _fork_timeout(record.spec),
                    lambda g=record.guess: self._on_fork_timeout(g),
                    label=f"{self.name}.{record.guess.key()}.retimeout",
                )
        thread.replay()

    def _settle_emissions(self) -> None:
        """Drop emissions holding an abort; release the fully committed."""
        dirty = self.index.emissions
        if not dirty:
            return
        self.index.emissions = {}
        ready: List[Emission] = []
        still: List[Emission] = []
        for em in self.emissions:
            if em.released or em.dropped:
                continue
            if em.emission_id in dirty:
                if any(self.view.is_aborted(g) for g in em.pending):
                    em.dropped = True
                    self.m.emissions_dropped.inc()
                    continue
                em.pending = {
                    g for g in em.pending if not self.view.is_committed(g)
                }
                if not em.pending:
                    ready.append(em)
                    continue
            still.append(em)
        ready.sort(key=lambda em: em.porder)
        for em in ready:
            self._release_emission(em)
        self.emissions = still

    # ------------------------------------------------------------ completion

    def _check_completion(self) -> None:
        if self.committed_completion is not None:
            return
        if self.tentative_completion is None:
            return
        main_done = any(self._is_main_line_done(t) and not t.guard
                        for t in self.threads.values())
        if not main_done:
            return
        if any(r.status == "pending" for r in self.records.values()):
            return
        if any(not em.released and not em.dropped for em in self.emissions):
            return
        self.committed_completion = self.backend.now
        self.log_event("committed_complete")

    def _is_main_line_done(self, t: OptimisticThread) -> bool:
        """``t`` finished the program's last segment, guessing nothing."""
        return (t.finished and t.status is ThreadStatus.TERMINATED
                and t.own_guess is None
                and t.seg_end >= len(self.program.segments))

    # ---------------------------------------------------------------- state

    def final_state(self) -> Optional[Dict[str, Any]]:
        """State of the completed main-line thread, if any.

        With static_effects on, deferred exports (never overlaid on the
        continuation — it provably ignores them) are patched in from the
        committed left threads, and bump-repair deltas shift the keys
        whose wrong guesses were certified commutative.
        """
        for t in self._threads_in_order():
            if self._is_main_line_done(t):
                if not self._deferred_actuals and not self._repair_deltas:
                    return t.state
                out = dict(t.state)
                out.update(self._deferred_actuals)
                for k, delta in self._repair_deltas.items():
                    if k in out and isinstance(out[k], (int, float)):
                        out[k] = out[k] + delta
                return out
        return None
