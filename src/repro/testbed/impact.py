"""Victim-impact instrumentation (the DDoSim heritage measurements).

DDoSim's evaluation watches the TServer while the botnet fires:
"alterations in the target server's throughput, the average data
reception frequency, and the number of connected bots".  The
:class:`VictimMonitor` samples exactly those signals per second from the
TServer's node and listeners, producing the time series that defense
benchmarks (rate limiting, blocklists) are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.containers.container import Container, Process
from repro.sim.core import PeriodicEvent


@dataclass(frozen=True)
class ImpactSample:
    """One sampling interval of victim-side health."""

    time: float
    rx_packets: float  # packets received per second
    rx_bytes: float  # bytes received per second
    goodput_bytes: float  # application bytes actually served per second
    half_open: int  # SYN backlog occupancy
    syn_dropped: int  # cumulative SYNs dropped by the backlog
    rst_sent: int  # cumulative RSTs (ACK-flood response storm)
    udp_unreachable: int  # cumulative unanswerable datagrams
    accepted: int = 0  # cumulative completed handshakes (conn success)


@dataclass
class ImpactSeries:
    """The collected samples plus convenience aggregates."""

    samples: list[ImpactSample] = field(default_factory=list)

    def between(self, start: float, end: float) -> list[ImpactSample]:
        return [s for s in self.samples if start <= s.time < end]

    def mean_goodput(self, start: float | None = None, end: float | None = None) -> float:
        window = self.samples
        if start is not None and end is not None:
            window = self.between(start, end)
        if not window:
            return 0.0
        return sum(s.goodput_bytes for s in window) / len(window)

    def peak_half_open(self) -> int:
        return max((s.half_open for s in self.samples), default=0)


class _FrameTap:
    """Device RX callback counting received bytes."""

    __slots__ = ("monitor",)

    def __init__(self, monitor: "VictimMonitor") -> None:
        self.monitor = monitor

    def __call__(self, frame) -> None:
        self.monitor._rx_bytes_total += frame.size


class VictimMonitor(Process):
    """Samples the TServer's health every ``interval`` virtual seconds.

    Goodput is measured as bytes the benign servers pushed into accepted
    connections (HTTP responses, RTMP chunks, FTP data), taken from the
    node's TCP sockets — the server-side view of service actually being
    delivered.

    Sampling is *anchored*: sample ``k`` lands at exactly
    ``t_start + k*interval`` (:meth:`~repro.sim.core.Simulator.schedule_periodic`)
    rather than drifting by one float ulp per re-schedule, so sample
    timestamps — and therefore window boundaries in defense benchmarks —
    land on exact multiples of the interval however long the run.
    """

    name = "victim-monitor"

    def __init__(self, interval: float = 1.0) -> None:
        super().__init__()
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.series = ImpactSeries()
        self._event: PeriodicEvent | None = None
        self._tap = _FrameTap(self)
        self._last_rx_packets = 0
        self._last_rx_bytes = 0.0
        self._last_goodput = 0.0
        self._rx_bytes_total = 0.0

    def on_start(self) -> None:
        # Count every frame this node's device accepts (attack + benign).
        for iface in self.node.interfaces:
            iface.device.add_rx_callback(self._tap)
        # Baseline the cumulative counters so the first sample is a rate,
        # not the node's lifetime total.
        self._last_rx_packets = self.node.packets_received
        self._last_goodput = self._total_goodput()
        self._event = self.sim.schedule_periodic(self.interval, self._sample)

    def on_stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
        for iface in self.node.interfaces:
            iface.device.remove_rx_callback(self._tap)

    def _total_goodput(self) -> float:
        # The stack keeps a monotone application-payload counter, so the
        # measure survives connection teardown.
        return float(self.node.tcp.payload_bytes_sent)

    def _sample(self) -> None:
        if not self.running:
            return
        node = self.node
        rx_packets = node.packets_received
        goodput = self._total_goodput()
        listener = node.tcp.listeners.get(80)
        self.series.samples.append(
            ImpactSample(
                time=self.sim.now,
                rx_packets=(rx_packets - self._last_rx_packets) / self.interval,
                rx_bytes=(self._rx_bytes_total - self._last_rx_bytes) / self.interval,
                goodput_bytes=max(0.0, goodput - self._last_goodput) / self.interval,
                half_open=len(listener.half_open) if listener else 0,
                syn_dropped=listener.syn_dropped if listener else 0,
                rst_sent=node.tcp.rst_sent,
                udp_unreachable=node.udp.unreachable,
                accepted=sum(l.accepted for l in node.tcp.listeners.values()),
            )
        )
        self._last_rx_packets = rx_packets
        self._last_rx_bytes = self._rx_bytes_total
        self._last_goodput = goodput


def attach_victim_monitor(container: Container, interval: float = 1.0) -> VictimMonitor:
    """Install a :class:`VictimMonitor` on a running container."""
    return container.exec(VictimMonitor(interval=interval))
