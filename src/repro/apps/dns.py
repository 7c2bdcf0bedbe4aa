"""Benign UDP services: DNS lookups and NTP time sync.

IoT devices chatter constantly over UDP — name lookups before every
cloud call, periodic clock sync.  These small request/response exchanges
put benign UDP on the wire, so a UDP flood cannot be identified by the
protocol field alone (as on any real network).

The chatter generator runs on the anchored periodic kernel: one
drift-free tick per device (tick k fires at exactly ``t0 + k*tick``)
books every Poisson arrival due in the next tick window, and each
datagram leaves at its own arrival instant.
"""

from __future__ import annotations

import random

from repro.containers.container import Process
from repro.sim.address import Ipv4Address

DNS_PORT = 53
NTP_PORT = 123


class DnsServer(Process):
    """Answers DNS queries with fixed-size responses."""

    name = "dns-server"

    def __init__(self, port: int = DNS_PORT, response_bytes: int = 120) -> None:
        super().__init__()
        self.port = port
        self.response_bytes = response_bytes
        self.queries_answered = 0
        self._sock = None

    def on_start(self) -> None:
        self._sock = self.node.udp.bind(self.port)
        self._sock.on_receive = self._answer

    def on_stop(self) -> None:
        if self._sock is not None:
            self._sock.close()

    def _answer(self, sock, payload, length, src, sport) -> None:
        self.queries_answered += 1
        sock.send_to(src, sport, length=self.response_bytes, app_data=("dns", "answer"))


class NtpServer(Process):
    """Answers NTP requests with 48-byte timestamps."""

    name = "ntp-server"

    def __init__(self, port: int = NTP_PORT) -> None:
        super().__init__()
        self.port = port
        self.requests_answered = 0
        self._sock = None

    def on_start(self) -> None:
        self._sock = self.node.udp.bind(self.port)
        self._sock.on_receive = self._answer

    def on_stop(self) -> None:
        if self._sock is not None:
            self._sock.close()

    def _answer(self, sock, payload, length, src, sport) -> None:
        self.requests_answered += 1
        sock.send_to(src, sport, length=48, app_data=("ntp", "reply"))


class UdpChatter(Process):
    """A device's background UDP behaviour: DNS queries and NTP syncs.

    Poisson arrival chains for both streams are maintained as absolute
    next-arrival times and consumed by one anchored periodic tick
    (``schedule_periodic``), so a long run never accumulates float
    drift.  The tick only bounds how far ahead arrivals are booked:
    each datagram still leaves at its own arrival instant.
    """

    name = "udp-chatter"

    def __init__(
        self,
        server: Ipv4Address,
        mean_dns_interval: float = 2.0,
        mean_ntp_interval: float = 16.0,
        seed: int = 0,
        start_delay: float = 0.0,
        tick: float | None = None,
    ) -> None:
        super().__init__()
        self.server = server
        self.mean_dns_interval = mean_dns_interval
        self.mean_ntp_interval = mean_ntp_interval
        self.rng = random.Random(seed)
        self.start_delay = start_delay
        self.tick = tick if tick is not None else min(
            mean_dns_interval, mean_ntp_interval
        )
        self.queries_sent = 0
        self.responses_received = 0
        self._next_dns = 0.0
        self._next_ntp = 0.0
        self._ticker = None
        self._sock = None

    def on_start(self) -> None:
        self._sock = self.node.udp.bind(0)
        self._sock.on_receive = self._on_response
        base = self.sim.now + self.start_delay
        self._next_dns = base + self.rng.expovariate(1.0 / self.mean_dns_interval)
        self._next_ntp = base + self.rng.expovariate(1.0 / self.mean_ntp_interval)
        # The bootstrap covers (base, base+tick]; the anchored ticker
        # takes over from base+tick with zero accumulated drift.
        self._boot = self.sim.schedule(self.start_delay, self._tick)
        self._ticker = self.sim.schedule_periodic(self.tick, self._tick, t0=base)

    def on_stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None
        if self._boot is not None:
            self._boot.cancel()
            self._boot = None
        if self._sock is not None:
            self._sock.close()

    def _on_response(self, sock, payload, length, src, sport) -> None:
        self.responses_received += 1

    def _tick(self) -> None:
        """Look ahead one tick window and book every datagram in it.

        Both Poisson chains are merged in chronological arrival order, so
        the RNG stream is consumed exactly as the old per-event chains
        consumed it, and emissions keep their exact arrival instants
        (the tick only bounds the look-ahead).
        """
        if not self.running:
            return
        horizon = self.sim.now + self.tick
        while True:
            t_dns, t_ntp = self._next_dns, self._next_ntp
            if t_dns > horizon and t_ntp > horizon:
                break
            if t_dns <= t_ntp:
                name = f"device-{self.rng.randrange(64)}.iot.example"
                self.sim.schedule_abs(
                    t_dns, self._emit_one, DNS_PORT, 30 + len(name), ("dns", name)
                )
                self._next_dns = t_dns + self.rng.expovariate(
                    1.0 / self.mean_dns_interval
                )
            else:
                self.sim.schedule_abs(t_ntp, self._emit_one, NTP_PORT, 48, ("ntp", "req"))
                self._next_ntp = t_ntp + self.rng.expovariate(
                    1.0 / self.mean_ntp_interval
                )
            # Counted at booking time, so a run cut off inside a tick
            # window still counts the window's later arrivals.
            self.queries_sent += 1

    def _emit_one(self, port: int, length: int, tag: tuple) -> None:
        if not self.running or self._sock is None:
            return
        self._sock.send_to(self.server, port, length=length, app_data=tag)
