"""Reliable message transport: acks, retransmission, duplicate suppression.

The paper's §4.2.5 control protocol assumes every COMMIT/ABORT/PRECEDENCE
arrives exactly once.  :class:`ReliableTransport` implements that contract
on top of a lossy network: each participating channel ``(src, dst, plane)``
carries sequence-numbered :class:`~repro.core.messages.Wire` frames; the
receiver acks every frame (duplicates included — the previous ack may be
the thing that was lost) and delivers the inner message at most once, while
the sender retransmits unacked frames with capped exponential backoff.

Crash semantics (see ``docs/ROBUSTNESS.md``): a crashing process loses its
*control-plane* retransmission state — those messages are volatile protocol
state, and the orphan re-detection scan plus incarnation inference recover
from the loss — but keeps its *data-plane* retransmission state, which
models the Optimistic-Recovery position that sends are reconstructible from
the stable journal.  Receiver-side dedup state likewise persists: it is a
pure function of the logged input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.config import ResilienceConfig
from repro.core.messages import PLANE_CONTROL, PLANE_DATA, AckMsg, Wire

Channel = Tuple[str, str, str]          # (src, dst, plane)
FrameKey = Tuple[str, str, str, int]    # channel + seq


@dataclass
class _Pending:
    """One unacked frame awaiting ack or retransmission."""

    wire: Wire
    size: int
    control: bool
    attempts: int = 0
    timer: Any = None


class ReliableTransport:
    """Ack/retransmit framing over the simulated network.

    Only endpoints registered via :meth:`add_participant` are framed;
    traffic to anything else (external sinks) passes through untouched.
    ``is_down`` lets the owner (the system) veto delivery to a crashed
    process: a frame arriving during downtime is dropped *without* an ack,
    so the sender keeps retransmitting into the restart window.
    """

    def __init__(
        self,
        network,                 # Network (or FaultyNetwork)
        scheduler,
        config: ResilienceConfig,
        metrics,                 # RuntimeMetrics (resilience counters)
        is_down: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.network = network
        self.scheduler = scheduler
        self.config = config
        self.m = metrics
        self.is_down = is_down or (lambda name: False)
        self.participants: Set[str] = set()
        self._next_seq: Dict[Channel, int] = {}
        self._pending: Dict[FrameKey, _Pending] = {}
        self._seen: Dict[Channel, Set[int]] = {}
        #: slotted wheel for the retransmission-timer army: one scheduler
        #: event per slot instead of per in-flight frame (0 = per-frame
        #: exact timers, the seed behaviour)
        granularity = getattr(config, "timer_wheel_granularity", 0.0)
        self._wheel = scheduler.wheel(granularity) if granularity > 0 else None

    # ------------------------------------------------------------ assembly

    def add_participant(self, name: str) -> None:
        self.participants.add(name)

    # ------------------------------------------------------------- sending

    def send(
        self,
        src: str,
        dst: str,
        msg: Any,
        *,
        control: bool = False,
        size: int = 1,
    ) -> None:
        """Send ``msg``, framing it when the channel is covered."""
        if src not in self.participants or dst not in self.participants:
            self.network.send(src, dst, msg, control=control, size=size)
            return
        plane = PLANE_CONTROL if control else PLANE_DATA
        channel = (src, dst, plane)
        seq = self._next_seq.get(channel, 0)
        self._next_seq[channel] = seq + 1
        wire = Wire(src=src, dst=dst, plane=plane, seq=seq, msg=msg)
        entry = _Pending(wire=wire, size=size, control=control)
        self._pending[(src, dst, plane, seq)] = entry
        self._transmit(entry)

    def _transmit(self, entry: _Pending) -> None:
        wire = entry.wire
        self.network.send(
            wire.src, wire.dst, wire, control=entry.control, size=entry.size
        )
        rto = min(
            self.config.retransmit_timeout
            * (self.config.retransmit_backoff ** entry.attempts),
            self.config.retransmit_timeout_max,
        )
        if self._wheel is not None:
            entry.timer = self._wheel.after(rto, lambda: self._on_rto(entry))
            return
        scheduler = self.scheduler
        if scheduler.debug_labels or scheduler.tracer.enabled:
            label = f"rto {wire.src}->{wire.dst}.{wire.plane}.{wire.seq}"
        else:
            label = "rto"
        entry.timer = scheduler.timer(
            rto, lambda: self._on_rto(entry), label=label)

    def _on_rto(self, entry: _Pending) -> None:
        wire = entry.wire
        key = (wire.src, wire.dst, wire.plane, wire.seq)
        if key not in self._pending:
            return  # acked (or dropped) in the meantime
        if entry.attempts >= self.config.max_retransmits:
            del self._pending[key]
            self.m.retransmit_giveups.inc()
            return
        entry.attempts += 1
        self.m.retransmits.inc()
        self._transmit(entry)

    # ----------------------------------------------------------- receiving

    def receiver(
        self, name: str, inner: Callable[[str, Any], None]
    ) -> Callable[[str, Any], None]:
        """Wrap an endpoint handler with unframing, acking, and dedup."""

        def handler(src: str, payload: Any) -> None:
            if isinstance(payload, AckMsg):
                self._on_ack(payload)
                return
            if not isinstance(payload, Wire):
                inner(src, payload)
                return
            if self.is_down(name):
                return  # no ack: the sender must retry into the restart
            ack = AckMsg(
                src=payload.src, dst=name, plane=payload.plane,
                seq=payload.seq,
            )
            self.network.send(name, payload.src, ack, control=True, size=1)
            self.m.acks_sent.inc()
            seen = self._seen.setdefault(payload.channel(), set())
            if payload.seq in seen:
                self.m.frames_deduped.inc()
                return
            seen.add(payload.seq)
            inner(payload.src, payload.msg)

        return handler

    def _on_ack(self, ack: AckMsg) -> None:
        entry = self._pending.pop((ack.src, ack.dst, ack.plane, ack.seq), None)
        if entry is not None and entry.timer is not None:
            entry.timer.cancel()

    # --------------------------------------------------------------- crash

    def on_crash(self, name: str) -> None:
        """Drop the crashed sender's volatile control-plane retransmissions.

        Data-plane frames survive (journal-backed, see module docstring);
        their retransmission timers keep running through the downtime.
        """
        for key in [
            k for k, e in self._pending.items()
            if e.wire.src == name and e.wire.plane == "control"
        ]:
            entry = self._pending.pop(key)
            if entry.timer is not None:
                entry.timer.cancel()
            self.m.retransmit_giveups.inc()

    # ------------------------------------------------------------- queries

    def outstanding(self) -> int:
        """Unacked frames currently awaiting retransmission (tests)."""
        return len(self._pending)
