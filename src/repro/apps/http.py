"""HTTP server and client (the TServer's Apache analogue).

The server publishes a small site of pages with deterministic,
seed-derived sizes; a client requests a random page and reads the
response, one session per call.
Requests and responses are literal HTTP/1.0-style messages so captures
look like web traffic, with response bodies carried as virtual payload
bytes of the advertised Content-Length.
"""

from __future__ import annotations

import random

from repro.containers.container import Process
from repro.sim.address import Ipv4Address
from repro.sim.node import Node
from repro.sim.tcp import TcpSocket

HTTP_PORT = 80


class HttpServer(Process):
    """Serves GET requests for a generated site on port 80."""

    name = "http-server"

    def __init__(
        self,
        port: int = HTTP_PORT,
        n_pages: int = 32,
        min_page_bytes: int = 2_000,
        max_page_bytes: int = 60_000,
        seed: int = 1,
    ) -> None:
        super().__init__()
        self.port = port
        rng = random.Random(seed)
        self.pages = {
            f"/page{i}.html": rng.randint(min_page_bytes, max_page_bytes)
            for i in range(n_pages)
        }
        self.requests_served = 0
        self.not_found = 0
        self._listener = None

    def on_start(self) -> None:
        self._listener = self.node.tcp.listen(self.port, self._on_accept)

    def on_stop(self) -> None:
        if self._listener is not None:
            self._listener.close()

    def page_names(self) -> list[str]:
        return sorted(self.pages)

    def _on_accept(self, sock: TcpSocket) -> None:
        sock.on_data = self._on_request

    def _on_request(self, sock: TcpSocket, payload: bytes, length: int, app_data: object) -> None:
        if not sock.writable:
            return  # request raced with our close (pipelined clients)
        line = payload.decode("ascii", errors="replace").split("\r\n", 1)[0]
        parts = line.split(" ")
        path = parts[1] if len(parts) >= 2 else "/"
        size = self.pages.get(path)
        if size is None:
            self.not_found += 1
            sock.send(b"HTTP/1.0 404 Not Found\r\n\r\n", app_data=("http", 404))
        else:
            self.requests_served += 1
            header = (
                f"HTTP/1.0 200 OK\r\nContent-Length: {size}\r\n\r\n"
            ).encode("ascii")
            sock.send(header, length=len(header) + size, app_data=("http", 200))
        sock.close()


class HttpClient:
    """Fetches random pages from a server, one GET session per call.

    A :class:`~repro.apps.device.DeviceProfile` builds one client and
    says when and from which node each session runs, so the client's
    page choices and counters carry on across container restarts.
    """

    def __init__(
        self,
        server: Ipv4Address,
        pages: list[str],
        port: int = HTTP_PORT,
        seed: int = 2,
    ) -> None:
        self.server = server
        self.port = port
        self.pages = pages
        self.rng = random.Random(seed)
        self.completed = 0
        self.failed = 0
        self.bytes_fetched = 0

    def fetch_once(self, node: Node, path: str | None = None) -> None:
        """Send one GET from ``node`` immediately."""
        chosen = path if path is not None else self.rng.choice(self.pages)
        sock = node.tcp.socket()
        request = f"GET {chosen} HTTP/1.0\r\nHost: tserver\r\n\r\n".encode("ascii")

        def on_established(s: TcpSocket) -> None:
            s.send(request, app_data=("http-get", chosen))

        def on_data(s: TcpSocket, payload: bytes, length: int, app_data: object) -> None:
            self.bytes_fetched += length
            if app_data is not None:  # final segment of the response
                self.completed += 1
                s.close()

        sock.on_data = on_data
        sock.on_reset = lambda s: self._count_failure()
        sock.connect(self.server, self.port, on_established)

    def _count_failure(self) -> None:
        self.failed += 1
