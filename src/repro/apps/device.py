"""IoT device behaviour profiles.

Each Dev container runs a :class:`DeviceProfile`: a weighted mix of the
three benign clients (HTTP, FTP, RTMP) aimed at the TServer, plus the
vulnerable telnet service the Mirai scanner exploits (installed
separately by the testbed builder).  The mix and pacing are seeded per
device so the fleet's aggregate traffic is diverse but reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.ftp import FtpClient
from repro.apps.http import HttpClient
from repro.apps.rtmp import RtmpClient
from repro.containers.container import Process
from repro.sim.address import Ipv4Address


@dataclass(frozen=True)
class TrafficMix:
    """Relative weights and pacing for a device's benign sessions."""

    http_weight: float = 0.6
    ftp_weight: float = 0.15
    rtmp_weight: float = 0.25
    mean_session_interval: float = 8.0

    def __post_init__(self) -> None:
        total = self.http_weight + self.ftp_weight + self.rtmp_weight
        if total <= 0:
            raise ValueError("traffic mix weights must sum to a positive value")


class DeviceProfile(Process):
    """Drives a device's benign sessions against the TServer.

    Session launches follow a Poisson arrival chain held as absolute
    next-arrival times and consumed by one anchored periodic tick
    (``schedule_periodic``, tick k at exactly ``t0 + k*tick``): long
    runs stay drift-free, and each tick books the coming window's
    launches at their exact arrival instants — timing identical to the
    old self-rescheduling chain, but drawn ahead in arrival order.
    """

    name = "device-profile"

    def __init__(
        self,
        tserver: Ipv4Address,
        http_pages: list[str],
        ftp_files: list[str],
        mix: TrafficMix | None = None,
        seed: int = 0,
        start_delay: float = 0.0,
        rtmp_duration: tuple[float, float] = (4.0, 10.0),
        tick: float | None = None,
    ) -> None:
        super().__init__()
        self.tserver = tserver
        self.mix = mix or TrafficMix()
        self.rng = random.Random(seed)
        self.start_delay = start_delay
        self.tick = tick if tick is not None else self.mix.mean_session_interval / 2
        # Built once, so their draws and counters carry on across restarts.
        self.http = HttpClient(tserver, http_pages, seed=seed * 3 + 1)
        self.ftp = FtpClient(tserver, ftp_files, seed=seed * 3 + 2)
        self.rtmp = RtmpClient(
            tserver,
            min_duration=rtmp_duration[0],
            max_duration=rtmp_duration[1],
            seed=seed * 3 + 3,
        )
        self.sessions_started = 0
        self._next_session = 0.0
        self._ticker = None
        self._boot = None

    def on_start(self) -> None:
        base = self.sim.now + self.start_delay
        self._next_session = base + self.rng.expovariate(
            1.0 / self.mix.mean_session_interval
        )
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

    def _tick(self) -> None:
        """Look ahead one tick window and book every session in it.

        Launches are scheduled at their exact Poisson arrival instants,
        so traffic timing is independent of the tick size — the tick
        only bounds how far ahead arrivals are drawn.  Draws stay in
        arrival order (kind, then gap), the same stream the
        self-rescheduling implementation consumed.
        """
        if not self.running:
            return
        horizon = self.sim.now + self.tick
        weights = (self.mix.http_weight, self.mix.ftp_weight, self.mix.rtmp_weight)
        while self._next_session <= horizon:
            kind = self.rng.choices(("http", "ftp", "rtmp"), weights=weights)[0]
            self.sim.schedule_abs(self._next_session, self._launch_session, kind)
            self._next_session += self.rng.expovariate(
                1.0 / self.mix.mean_session_interval
            )

    def _launch_session(self, kind: str) -> None:
        if not self.running:
            return
        self.sessions_started += 1
        if kind == "http":
            self.http.fetch_once(self.node)
        elif kind == "ftp":
            self.ftp.download_once(self.node)
        else:
            self.rtmp.play_once(self.node)
