"""Capture analytics: flow aggregation and attack forensics.

The paper's workflow inspects captures with external tools (Wireshark);
this module provides the equivalent programmatic views: per-flow
aggregates (the conversation list), top-talker rankings, per-second rate
series, and ground-truth attack interval extraction, for describing what
a run actually contained.  No pipeline stage, example or benchmark calls
them; they are a toolbox for interactive inspection.  They walk
:class:`~repro.sim.tracing.PacketRecord` rows, such as the ones a
:class:`~repro.capture.dataset.TrafficDataset` builds on iteration.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.sim.tracing import PacketRecord

FlowKey = tuple[int, int, int, int, int]  # src, sport, dst, dport, proto


@dataclass
class FlowStats:
    """Aggregate view of one 5-tuple conversation."""

    key: FlowKey
    packets: int = 0
    payload_bytes: int = 0
    first_seen: float = float("inf")
    last_seen: float = 0.0
    syn_count: int = 0
    fin_count: int = 0
    malicious_packets: int = 0

    @property
    def duration(self) -> float:
        if self.packets == 0:
            return 0.0
        return max(0.0, self.last_seen - self.first_seen)

    @property
    def is_malicious(self) -> bool:
        """Majority-label verdict for the flow."""
        return self.malicious_packets * 2 > self.packets

    def add(self, record: PacketRecord) -> None:
        self.packets += 1
        self.payload_bytes += record.size
        self.first_seen = min(self.first_seen, record.timestamp)
        self.last_seen = max(self.last_seen, record.timestamp)
        if record.is_syn:
            self.syn_count += 1
        if record.is_fin:
            self.fin_count += 1
        self.malicious_packets += record.label


def aggregate_flows(records: Iterable[PacketRecord]) -> dict[FlowKey, FlowStats]:
    """Group a capture into per-flow aggregates (the conversation list)."""
    flows: dict[FlowKey, FlowStats] = {}
    for record in records:
        key = record.flow_key
        stats = flows.get(key)
        if stats is None:
            stats = flows[key] = FlowStats(key)
        stats.add(record)
    return flows


def top_talkers(
    records: Iterable[PacketRecord], n: int = 10, by: str = "packets"
) -> list[tuple[int, int]]:
    """(src_ip, count) pairs of the busiest sources, descending.

    ``by`` is ``"packets"`` or ``"bytes"``.
    """
    if by not in ("packets", "bytes"):
        raise ValueError(f"unknown ranking {by!r}")
    totals: dict[int, int] = defaultdict(int)
    for record in records:
        totals[record.src_ip] += record.size if by == "bytes" else 1
    ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
    return ranked[:n]


def rate_series(
    records: Sequence[PacketRecord], interval: float = 1.0
) -> list[tuple[float, int, int]]:
    """(interval start, benign packets, malicious packets) per interval."""
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    buckets: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for record in records:
        buckets[int(record.timestamp // interval)][record.label] += 1
    return [
        (index * interval, counts[0], counts[1])
        for index, counts in sorted(buckets.items())
    ]


@dataclass(frozen=True)
class AttackInterval:
    """One contiguous span of a labelled attack in a capture."""

    attack: str
    start: float
    end: float
    packets: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def attack_intervals(
    records: Sequence[PacketRecord], gap: float = 2.0
) -> list[AttackInterval]:
    """Ground-truth attack spans, split where traffic pauses > ``gap``.

    Used to annotate timelines and to verify schedules actually executed.
    """
    by_attack: dict[str, list[float]] = defaultdict(list)
    for record in records:
        if record.label == 1 and record.attack:
            by_attack[record.attack].append(record.timestamp)
    intervals: list[AttackInterval] = []
    for attack, times in by_attack.items():
        times.sort()
        span_start = times[0]
        previous = times[0]
        count = 1
        for t in times[1:]:
            if t - previous > gap:
                intervals.append(AttackInterval(attack, span_start, previous, count))
                span_start = t
                count = 0
            previous = t
            count += 1
        intervals.append(AttackInterval(attack, span_start, previous, count))
    intervals.sort(key=lambda i: i.start)
    return intervals


@dataclass
class CaptureReport:
    """A one-call forensic summary of a capture."""

    n_flows: int
    n_malicious_flows: int
    talkers: list[tuple[int, int]]
    intervals: list[AttackInterval] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [
            f"flows: {self.n_flows} ({self.n_malicious_flows} malicious)",
            "top talkers (src ip value, packets): "
            + ", ".join(f"{ip}:{count}" for ip, count in self.talkers[:5]),
        ]
        for interval in self.intervals:
            lines.append(
                f"  {interval.attack}: t={interval.start:.1f}-{interval.end:.1f}s "
                f"({interval.packets} packets)"
            )
        return "\n".join(lines)


def analyze(records: Sequence[PacketRecord]) -> CaptureReport:
    """Build the full forensic report for a capture."""
    flows = aggregate_flows(records)
    return CaptureReport(
        n_flows=len(flows),
        n_malicious_flows=sum(1 for f in flows.values() if f.is_malicious),
        talkers=top_talkers(records),
        intervals=attack_intervals(records),
    )
