"""RTMP-style video streaming (the TServer's Nginx-RTMP analogue).

A client connects to port 1935 and sends a ``play`` command; the server
then pushes fixed-interval chunks sized to the stream's bitrate for the
session duration, ending with an end-of-stream marker.  The result is the
long-lived, high-volume, steady-rate flow class the paper's benign mix
needs next to bursty HTTP and bulk FTP.
"""

from __future__ import annotations

import random

from repro.containers.container import Process
from repro.sim.address import Ipv4Address
from repro.sim.core import Event
from repro.sim.node import Node
from repro.sim.tcp import TcpSocket

RTMP_PORT = 1935


class RtmpServer(Process):
    """Streams chunked video to players on port 1935."""

    name = "rtmp-server"

    def __init__(
        self,
        port: int = RTMP_PORT,
        bitrate_bps: float = 800_000.0,
        chunk_interval: float = 0.1,
    ) -> None:
        super().__init__()
        self.port = port
        self.bitrate_bps = bitrate_bps
        self.chunk_interval = chunk_interval
        self.sessions_started = 0
        self.sessions_completed = 0
        self._listener = None
        self._active: dict[TcpSocket, Event] = {}

    @property
    def chunk_bytes(self) -> int:
        return int(self.bitrate_bps / 8 * self.chunk_interval)

    def on_start(self) -> None:
        self._listener = self.node.tcp.listen(self.port, self._on_accept)

    def on_stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
        for event in self._active.values():
            event.cancel()
        self._active.clear()

    def _on_accept(self, sock: TcpSocket) -> None:
        sock.on_data = self._on_command
        sock.on_reset = lambda s: self._end_session(s, completed=False)
        sock.on_close = lambda s: self._end_session(s, completed=False)

    def _on_command(self, sock: TcpSocket, payload: bytes, length: int, app_data: object) -> None:
        line = payload.decode("ascii", errors="replace").strip()
        verb, _, argument = line.partition(" ")
        if verb != "play":
            sock.send(b"error unsupported\r\n")
            sock.close()
            return
        try:
            duration = float(argument)
        except ValueError:
            duration = 10.0
        self.sessions_started += 1
        remaining = max(1, int(duration / self.chunk_interval))
        self._schedule_chunk(sock, remaining)

    def _schedule_chunk(self, sock: TcpSocket, remaining: int) -> None:
        event = self.sim.schedule(self.chunk_interval, self._push_chunk, sock, remaining)
        self._active[sock] = event

    def _push_chunk(self, sock: TcpSocket, remaining: int) -> None:
        if sock not in self._active:
            return
        from repro.sim.tcp import TcpState

        if sock.state is not TcpState.ESTABLISHED:
            self._end_session(sock, completed=False)
            return
        if remaining <= 1:
            sock.send(b"EOS", app_data=("rtmp", "end-of-stream"))
            sock.close()
            self._end_session(sock, completed=True)
            return
        sock.send(length=self.chunk_bytes, app_data=("rtmp", "chunk"))
        self._schedule_chunk(sock, remaining - 1)

    def _end_session(self, sock: TcpSocket, completed: bool) -> None:
        event = self._active.pop(sock, None)
        if event is not None:
            event.cancel()
            if completed:
                self.sessions_completed += 1


class RtmpClient:
    """Opens a playback session of random duration, one per call.

    Driven by a :class:`~repro.apps.device.DeviceProfile`, like
    :class:`~repro.apps.http.HttpClient`.
    """

    def __init__(
        self,
        server: Ipv4Address,
        port: int = RTMP_PORT,
        min_duration: float = 5.0,
        max_duration: float = 20.0,
        seed: int = 5,
    ) -> None:
        self.server = server
        self.port = port
        self.min_duration = min_duration
        self.max_duration = max_duration
        self.rng = random.Random(seed)
        self.sessions_completed = 0
        self.bytes_streamed = 0
        self.failed = 0

    def play_once(self, node: Node, duration: float | None = None) -> None:
        """Open a single playback session from ``node`` immediately."""
        chosen = (
            duration
            if duration is not None
            else self.rng.uniform(self.min_duration, self.max_duration)
        )
        sock = node.tcp.socket()

        def on_established(s: TcpSocket) -> None:
            s.send(f"play {chosen:.3f}\r\n".encode("ascii"))

        def on_data(s: TcpSocket, payload: bytes, length: int, app_data: object) -> None:
            self.bytes_streamed += length
            if app_data == ("rtmp", "end-of-stream"):
                self.sessions_completed += 1

        sock.on_data = on_data
        sock.on_reset = lambda s: self._count_failure()
        sock.connect(self.server, self.port, on_established)

    def _count_failure(self) -> None:
        self.failed += 1
