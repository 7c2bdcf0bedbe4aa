"""Mitigation: the detect → mitigate → recover loop.

DDoSim positions its results "for evaluating the effectiveness of
defense mechanisms, ranging from intrusion detection systems to traffic
filtering and mitigation techniques"; this module closes that loop.  A
:class:`MitigationPlan` (attached to a scenario) describes the defended
configuration; a :class:`MitigationController` subscribes to live IDS
window verdicts and drives three escalating actions:

* **source blocklisting** (:class:`BlocklistFilter`) — block src IPs
  whose packets the IDS flagged, with TTL expiry, false-positive
  unblock, and established-connection passthrough (works for ACK/UDP
  floods from real bot addresses without severing the compromised
  device's in-flight benign sessions);
* **handshake hardening** — destination-port SYN rate limiting here,
  plus SYN-cookie mode in :mod:`repro.sim.tcp` (catches spoofed SYN
  floods that rotate source addresses);
* **upstream filtering** (:class:`UpstreamFilter`) — persistent
  offenders are pushed to the LAN tier so their frames die at the
  channel before occupying the bottleneck link.

The loop is fault-tolerant: when the IDS container restarts or its link
is partitioned (see :mod:`repro.faults`), the controller enters a
*fallback* state that freezes the last-known policy with bounded
staleness (``MitigationPlan.fallback_staleness``) instead of failing
open (TTL expiry would unblock mid-outage) or wedging (blocks never
expiring).  Every transition is recorded as a ``mitigation.<action>``
:class:`~repro.obs.events.ObsEvent` in the testbed's run log, the same
log whose fault and supervisor events drive the fallback.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.obs.events import EventLog, ObsEvent
from repro.sim.address import Ipv4Address
from repro.sim.packet import Packet

if TYPE_CHECKING:
    from repro.features.columnar import RecordBatch
    from repro.ids.engine import RealTimeIds
    from repro.sim.core import Simulator
    from repro.sim.node import Node
    from repro.testbed.impact import ImpactSeries

#: Matches :data:`repro.faults.plan.ALL_TARGETS` (imported lazily to keep
#: this module free of testbed-layer dependencies).
_ALL_TARGETS = "*"

#: Run-log kinds that take the IDS container down (True) or bring it
#: back (False), keyed to the fallback reason they name.
_FALLBACK_EDGES = {
    "supervisor.kill": ("container", True),
    "supervisor.exit": ("container", True),
    "supervisor.restart": ("container", False),
    "fault.partition": ("link", True),
    "fault.heal": ("link", False),
}


def _fmt_ip(value: int) -> str:
    return str(Ipv4Address(value))


@dataclass
class TokenBucket:
    """Per-key rate limiter: ``rate`` tokens/s, burst up to ``burst``.

    A fresh bucket starts **full** (``tokens = burst``): an empty start
    would spuriously drop the first benign packets right after install.
    """

    rate: float
    burst: float
    tokens: float | None = None
    last_time: float = 0.0

    def __post_init__(self) -> None:
        if self.tokens is None:
            self.tokens = self.burst

    def allow(self, now: float, cost: float = 1.0) -> bool:
        self.tokens = min(self.burst, self.tokens + (now - self.last_time) * self.rate)
        self.last_time = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class _BlockTable:
    """The source block table both filters keep: an expiry time per source.

    An entry is enforced until its time; while ``ttl_grace`` is non-zero
    (fallback mode) an expired entry stays enforced for up to that many
    extra seconds — the conservative last-known policy used while the
    IDS is down.  Expired entries leave lazily, when a frame from their
    source is looked up or on :meth:`prune`, and each is reported once
    to ``on_expire``.
    """

    def __init__(self) -> None:
        self.blocked_until: dict[int, float] = {}
        self.ttl_grace = 0.0
        self.on_expire: Callable[[int, float], None] | None = None

    def block(self, src: int, until: float) -> bool:
        """Block ``src`` until ``until``; returns True for a new entry."""
        is_new = src not in self.blocked_until
        self.blocked_until[src] = until
        return is_new

    def unblock(self, src: int) -> bool:
        return self.blocked_until.pop(src, None) is not None

    def prune(self, now: float) -> list[tuple[int, float]]:
        """Drop (and report) entries expired as of ``now`` + grace."""
        expired = []
        for src, until in list(self.blocked_until.items()):
            if not self._enforced(src, until, now):
                expired.append((src, until))
        return expired

    def _enforced(self, src: int, until: float, now: float) -> bool:
        """Whether the held entry ``src`` → ``until`` is enforced at ``now``.

        An expired entry is dropped and reported.  Per-frame callers
        look the source up first and call this only on a hit, so a
        source the table does not hold costs one dict lookup.
        """
        if now < until + self.ttl_grace:
            return True
        del self.blocked_until[src]
        if self.on_expire is not None:
            self.on_expire(src, until)
        return False


class BlocklistFilter(_BlockTable):
    """Inline packet filter for a victim node, driven by IDS verdicts.

    Install with :meth:`install`; a :class:`MitigationController` fills
    the block table from window verdicts.  Blocking is conntrack-style —
    new work from a blocked source is dropped while packets of
    already-established victim connections pass (see
    :meth:`_blocked_verdict`).  Entries expire at the time the controller
    gives them, so false positives do not mute devices forever.
    """

    def __init__(
        self,
        node: "Node",
        syn_rate_limit: float = 200.0,
        syn_burst: float = 400.0,
    ) -> None:
        super().__init__()
        self.node = node
        self.syn_rate_limit = syn_rate_limit
        self.syn_burst = syn_burst
        self.dropped_by_blocklist = 0
        self.dropped_by_rate_limit = 0
        self.passed = 0
        self.passed_established = 0
        self._buckets: dict[int, TokenBucket] = defaultdict(
            lambda: TokenBucket(self.syn_rate_limit, self.syn_burst)
        )
        self._original_receive = None

    # ------------------------------------------------------------------
    # Installation

    def install(self) -> "BlocklistFilter":
        """Interpose on the node's inbound path: every frame the node
        receives is checked against the block table and SYN rate limit."""
        if self._original_receive is not None:
            return self
        self._original_receive = self.node.receive
        node = self.node

        def filtered_receive(frame: Packet, device) -> None:
            if self._should_drop(frame):
                return
            self.passed += 1
            assert self._original_receive is not None
            self._original_receive(frame, device)

        node.receive = filtered_receive  # type: ignore[method-assign]
        return self

    def uninstall(self) -> None:
        if self._original_receive is not None:
            # Remove the instance override so the class method shows again.
            self.node.__dict__.pop("receive", None)
            self._original_receive = None

    # ------------------------------------------------------------------
    # Filtering

    def _blocked_verdict(self, frame: Packet) -> bool:
        """Conntrack-style policy for a packet from a blocked source.

        Mirrors the standard iptables mitigation stance (``--ctstate
        INVALID -j DROP``): UDP and out-of-state TCP — exactly what the
        ACK/UDP floods emit — are dropped, packets of live victim
        connections pass (a compromised device's in-flight benign
        sessions survive its bot traffic being filtered), and bare SYNs
        count as NEW, falling through to the SYN rate-limit / cookie
        hardening instead of being source-dropped.  (The upstream
        LAN-tier ACL has no connection state — that is the escalation's
        collateral cost.)  Returns True to drop.
        """
        tcp = frame.tcp
        if tcp is None:
            return True  # UDP (or other non-TCP) flood traffic
        if (tcp.flags & 0x02) and not (tcp.flags & 0x10):
            return False  # NEW: handshake hardening decides, not the block
        assert frame.ip is not None
        key = (frame.ip.dst.value, tcp.dst_port, frame.ip.src.value, tcp.src_port)
        if key in self.node.tcp.sockets:
            self.passed_established += 1
            return False  # ESTABLISHED (includes victim-initiated SYN_SENT)
        listener = self.node.tcp.listeners.get(tcp.dst_port)
        if listener is not None:
            if (frame.ip.src.value, tcp.src_port) in listener.half_open:
                return False  # SYN_RECV: the handshake-completing ACK
            if (
                getattr(listener, "syn_cookies_enabled", False)
                and (tcp.ack - 1) & 0xFFFFFFFF
                == listener._cookie_isn(frame.ip.src.value, tcp.src_port)
            ):
                return False  # valid SYN-cookie completion (stateless)
        return True  # INVALID: unknown-4-tuple segments (the ACK flood)

    def _should_drop(self, frame: Packet) -> bool:
        if frame.ip is None:
            return False
        now = self.node.sim.now
        src = frame.ip.src.value
        until = self.blocked_until.get(src)
        if (
            until is not None
            and self._enforced(src, until, now)
            and self._blocked_verdict(frame)
        ):
            self.dropped_by_blocklist += 1
            return True
        # SYN-specific rate limiting (spoofed sources rotate, so the
        # bucket keys on the targeted service port instead).
        if frame.tcp is not None and (frame.tcp.flags & 0x02) and not (frame.tcp.flags & 0x10):
            bucket = self._buckets[frame.tcp.dst_port]
            if not bucket.allow(now):
                self.dropped_by_rate_limit += 1
                return True
        return False

    @property
    def active_blocks(self) -> int:
        now = self.node.sim.now
        return sum(1 for until in self.blocked_until.values() if until > now)


class UpstreamFilter(_BlockTable):
    """Channel-tier ACL: the escalated form of the victim blocklist.

    Installed via :meth:`repro.sim.channel.CsmaChannel.set_traffic_filter`;
    the channel consults :meth:`should_drop` at dequeue time, so a
    filtered frame never occupies the wire — the simulated analogue of
    pushing an ACL from the victim to the access switch/router.  Only
    frames *to the victim* from blocked sources are dropped; the rest of
    the LAN is untouched.
    """

    def __init__(self, victim_ip: int) -> None:
        super().__init__()
        self.victim_ip = victim_ip
        self.dropped = 0

    def should_drop(self, frame: Packet, sender, now: float) -> bool:
        if frame.ip is None or frame.ip.dst.value != self.victim_ip:
            return False
        src = frame.ip.src.value
        until = self.blocked_until.get(src)
        if until is not None and self._enforced(src, until, now):
            self.dropped += 1
            return True
        return False

    @property
    def active_blocks(self) -> int:
        return len(self.blocked_until)


@dataclass(frozen=True)
class MitigationPlan:
    """Defended-run configuration, attached to a Scenario.

    ``mode="monitor"`` deploys the live IDS tap and victim impact
    monitoring *without* any filtering — the measured undefended
    baseline that defended runs are compared against.  ``upstream_after``
    counts flagged windows before a source is escalated from the victim
    blocklist to the LAN-tier :class:`UpstreamFilter`.
    """

    model: str = "K-Means"
    mode: str = "mitigate"  # "mitigate" | "monitor"
    block_seconds: float = 20.0
    min_flagged: int = 10
    syn_rate_limit: float = 200.0
    syn_burst: float = 400.0
    syn_cookies: bool = True
    syn_cookie_threshold: float = 0.5
    upstream_filter: bool = True
    upstream_after: int = 5
    fallback_staleness: float = 15.0

    def __post_init__(self) -> None:
        if self.mode not in ("mitigate", "monitor"):
            raise ValueError(f"mode must be 'mitigate' or 'monitor', got {self.mode!r}")
        if self.block_seconds <= 0:
            raise ValueError("block_seconds must be positive")
        if self.min_flagged < 1:
            raise ValueError("min_flagged must be >= 1")
        if self.syn_rate_limit <= 0 or self.syn_burst <= 0:
            raise ValueError("SYN rate limit and burst must be positive")
        if not 0 < self.syn_cookie_threshold <= 1:
            raise ValueError("syn_cookie_threshold must be in (0, 1]")
        if self.upstream_after < 1:
            raise ValueError("upstream_after must be >= 1")
        if self.fallback_staleness < 0:
            raise ValueError("fallback_staleness must be non-negative")

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "MitigationPlan":
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown MitigationPlan field(s): {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class RecoveryMetrics:
    """Victim-side effectiveness of a defended (or monitor) run.

    * ``goodput_retained_pct`` — mean benign goodput during attack spans
      as a percentage of the clean-period baseline;
    * ``time_to_mitigate`` — median seconds from attack start to the
      first block/escalation (None when nothing was mitigated);
    * ``time_to_recovery`` — median seconds from the first goodput dip
      below ``recovery_fraction × baseline`` back above it (0.0 when
      goodput never dipped);
    * ``collateral_block_rate`` — fraction of blocked sources that were
      never attack participants (benign collateral damage).
    """

    goodput_retained_pct: float
    time_to_mitigate: float | None
    time_to_recovery: float | None
    collateral_block_rate: float
    blocked_sources: int
    collateral_blocks: int
    baseline_goodput: float
    attack_goodput: float

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RecoveryMetrics":
        return cls(**payload)

    def rows(self) -> list[tuple[str, str]]:
        fmt = lambda v: "n/a" if v is None else f"{v:.2f}s"  # noqa: E731
        return [
            ("goodput retained", f"{self.goodput_retained_pct:.1f}%"),
            ("time to mitigate", fmt(self.time_to_mitigate)),
            ("time to recovery", fmt(self.time_to_recovery)),
            ("collateral block rate", f"{self.collateral_block_rate:.2f}"),
            ("blocked sources", str(self.blocked_sources)),
            ("baseline goodput", f"{self.baseline_goodput:.0f} B/s"),
            ("attack goodput", f"{self.attack_goodput:.0f} B/s"),
        ]


def _median(values: list[float]) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compute_recovery_metrics(
    series: "ImpactSeries",
    events: list[ObsEvent],
    attack_spans: list[tuple[float, float]],
    malicious_srcs: set[int],
    blocked_srcs: set[int],
    recovery_fraction: float = 0.5,
) -> RecoveryMetrics:
    """Fold an impact series + run-log events into :class:`RecoveryMetrics`."""

    def in_attack(t: float) -> bool:
        return any(start <= t < end for start, end in attack_spans)

    samples = list(series.samples)
    clean = [s.goodput_bytes for s in samples if not in_attack(s.time)]
    hot = [s.goodput_bytes for s in samples if in_attack(s.time)]
    baseline = float(np.mean(clean)) if clean else 0.0
    attack_goodput = float(np.mean(hot)) if hot else 0.0
    retained = 100.0 * attack_goodput / baseline if baseline > 0 else 0.0

    acted = ("mitigation.block", "mitigation.reblock", "mitigation.escalate")
    mitigations = [e for e in events if e.kind in acted]
    to_mitigate = []
    for start, end in attack_spans:
        deltas = [e.time - start for e in mitigations if start <= e.time <= end + 5.0]
        if deltas:
            to_mitigate.append(min(deltas))

    floor = recovery_fraction * baseline
    to_recovery = []
    for start, end in attack_spans:
        dipped_at = None
        recovered = None
        for sample in samples:
            if sample.time < start:
                continue
            if dipped_at is None:
                if sample.time >= end + 2.0:
                    break  # never dipped during this span
                if sample.goodput_bytes < floor:
                    dipped_at = sample.time
            elif sample.goodput_bytes >= floor:
                recovered = sample.time - dipped_at
                break
        if dipped_at is None:
            to_recovery.append(0.0)
        elif recovered is not None:
            to_recovery.append(recovered)

    collateral = blocked_srcs - malicious_srcs
    rate = len(collateral) / len(blocked_srcs) if blocked_srcs else 0.0
    return RecoveryMetrics(
        goodput_retained_pct=retained,
        time_to_mitigate=_median(to_mitigate),
        time_to_recovery=_median(to_recovery),
        collateral_block_rate=rate,
        blocked_sources=len(blocked_srcs),
        collateral_blocks=len(collateral),
        baseline_goodput=baseline,
        attack_goodput=attack_goodput,
    )


class MitigationController:
    """Drives the fault-tolerant detect → mitigate → recover loop.

    Subscribes to live IDS window verdicts and maintains the victim
    blocklist plus the LAN-tier upstream ACL: :meth:`_on_window` is the
    one code path that turns a window's verdicts into blocks.  :meth:`on_event`, a
    subscriber of the run log, feeds the fallback state machine from the
    IDS container's supervisor events and partition events: while the
    IDS is down the filters hold their last-known policy with bounded
    staleness (``ttl_grace``); when it comes back, stale entries are
    pruned and a ``resync`` is recorded.

    Transitions are recorded as ``mitigation.<action>`` events in
    :attr:`events` (a fresh run log unless the testbed hands over its
    own), so defended runs stay byte-for-byte comparable even with
    telemetry disabled.
    """

    def __init__(
        self,
        plan: MitigationPlan,
        sim: "Simulator",
        victim: "Node",
        ids: "RealTimeIds",
        filter_: BlocklistFilter | None = None,
        upstream: UpstreamFilter | None = None,
        ids_container: str = "ids",
        events: EventLog | None = None,
    ) -> None:
        self.plan = plan
        self.sim = sim
        self.victim = victim
        self.ids = ids
        self.filter = filter_
        self.upstream = upstream
        self.ids_container = ids_container
        self.events = events if events is not None else obs.run_log()
        # This controller's own records; the run log is shared.
        self.events_recorded = 0
        self.blocks_issued = 0
        self.unblocks = 0
        self.fallback_entries = 0
        self.blocked_ever: set[int] = set()
        self.malicious_srcs: set[int] = set()
        self._offenses: dict[int, int] = defaultdict(int)
        self._fallback_reasons: set[str] = set()
        ids.add_window_listener(self._on_window)
        if filter_ is not None:
            filter_.on_expire = self._victim_expired
        if upstream is not None:
            upstream.on_expire = self._upstream_expired

    # ------------------------------------------------------------------
    # Event plumbing

    def _emit(self, time: float, action: str, detail: str = "", value: float = 1.0) -> None:
        self.events_recorded += 1
        self.events.record(time, f"mitigation.{action}", detail, value)

    def _victim_expired(self, src: int, until: float) -> None:
        self._emit(until, "expire", detail=_fmt_ip(src))

    def _upstream_expired(self, src: int, until: float) -> None:
        self._emit(until, "expire.upstream", detail=_fmt_ip(src))

    @property
    def in_fallback(self) -> bool:
        return bool(self._fallback_reasons)

    # ------------------------------------------------------------------
    # IDS verdicts → filter policy

    def _on_window(self, index: int, window: "RecordBatch", predictions, status: str) -> None:
        now = self.sim.now
        victim_ip = self.victim.address.value
        # Source ids leave NumPy here: they key sets, events and JSON.
        sources = window.src_ip
        flagged = Counter(sources[np.asarray(predictions) == 1].tolist())
        seen = Counter(sources.tolist())
        self.malicious_srcs.update(sources[window.label == 1].tolist())
        offenders = sorted(
            src
            for src, count in flagged.items()
            if count >= self.plan.min_flagged and src != victim_ip
        )
        if offenders:
            self._emit(now, "verdict", detail=f"window={index}", value=float(len(offenders)))
        if self.filter is None:
            return  # monitor mode: measure, never filter
        until = now + self.plan.block_seconds
        for src in offenders:
            self._offenses[src] += 1
            if self.filter.block(src, until):
                action = "block" if src not in self.blocked_ever else "reblock"
                self.blocked_ever.add(src)
                self.blocks_issued += 1
                self._emit(now, action, detail=_fmt_ip(src))
            if self.upstream is not None and self._offenses[src] >= self.plan.upstream_after:
                if self.upstream.block(src, until):
                    self._emit(now, "escalate", detail=_fmt_ip(src))
        # False-positive recovery: a blocked source with a full window of
        # clean evidence is released early (and its offense slate wiped).
        for src in sorted(self.filter.blocked_until):
            if flagged.get(src, 0) == 0 and seen.get(src, 0) >= self.plan.min_flagged:
                self.filter.unblock(src)
                if self.upstream is not None:
                    self.upstream.unblock(src)
                self._offenses[src] = 0
                self.unblocks += 1
                self._emit(now, "unblock", detail=_fmt_ip(src))

    # ------------------------------------------------------------------
    # Fault tolerance: fallback state machine

    def on_event(self, event: ObsEvent) -> None:
        """Run-log subscriber: IDS container outages drive the fallback."""
        edge = _FALLBACK_EDGES.get(event.kind)
        if edge is None or (
            self.ids_container not in event.targets and _ALL_TARGETS not in event.targets
        ):
            return
        reason, down = edge
        if down:
            self._enter_fallback(reason, event.time)
        else:
            self._leave_fallback(reason, event.time)

    def _enter_fallback(self, reason: str, time: float) -> None:
        entering = not self._fallback_reasons
        self._fallback_reasons.add(reason)
        if not entering:
            return
        self.fallback_entries += 1
        grace = self.plan.fallback_staleness
        if self.filter is not None:
            self.filter.ttl_grace = grace
        if self.upstream is not None:
            self.upstream.ttl_grace = grace
        self._emit(time, "fallback.enter", detail=reason)

    def _leave_fallback(self, reason: str, time: float) -> None:
        if reason not in self._fallback_reasons:
            return
        self._fallback_reasons.discard(reason)
        if self._fallback_reasons:
            return
        stale = 0
        if self.filter is not None:
            self.filter.ttl_grace = 0.0
            stale += len(self.filter.prune(time))
        if self.upstream is not None:
            self.upstream.ttl_grace = 0.0
            stale += len(self.upstream.prune(time))
        self._emit(time, "fallback.exit", detail=reason)
        self._emit(time, "resync", detail=f"stale={stale}", value=float(stale))

    # ------------------------------------------------------------------
    # Teardown / reporting

    def finish(self) -> None:
        """Flush lazy expiries so the event log covers the full run."""
        now = self.sim.now
        if self.filter is not None:
            self.filter.prune(now)
        if self.upstream is not None:
            self.upstream.prune(now)

    def summary(self) -> dict:
        cookies_sent = sum(
            getattr(listener, "syn_cookies_sent", 0)
            for listener in self.victim.tcp.listeners.values()
        )
        cookies_rejected = sum(
            getattr(listener, "syn_cookies_rejected", 0)
            for listener in self.victim.tcp.listeners.values()
        )
        return {
            "mode": self.plan.mode,
            "blocks_issued": self.blocks_issued,
            "unblocks": self.unblocks,
            "fallback_entries": self.fallback_entries,
            "blocked_sources": sorted(self.blocked_ever),
            "malicious_sources": len(self.malicious_srcs),
            "dropped_by_blocklist": self.filter.dropped_by_blocklist if self.filter else 0,
            "dropped_by_rate_limit": self.filter.dropped_by_rate_limit if self.filter else 0,
            "passed_established": self.filter.passed_established if self.filter else 0,
            "dropped_upstream": self.upstream.dropped if self.upstream else 0,
            "syn_cookies_sent": cookies_sent,
            "syn_cookies_rejected": cookies_rejected,
            "events": self.events_recorded,
        }

