"""The Mirai loader: turns found credentials into infections.

Given (target, username, password) reports from the scanner, the loader
logs into the victim's telnet service, pushes the bot binary over the
session with the ``DOWNLOAD`` command, and confirms execution.  The
victim-side execution hook (wired by the testbed) then starts the bot
process inside the device container.
"""

from __future__ import annotations

from typing import Callable

from repro.botnet.telnet import TELNET_PORT
from repro.containers.container import Process
from repro.sim.address import Ipv4Address
from repro.sim.packet import Provenance

#: Size of the pushed bot binary (the real Mirai ELF is ~60-120 KB).
BOT_BINARY_BYTES = 80_000


class Loader(Process):
    """Delivers the bot binary to cracked devices."""

    name = "mirai-loader"

    def __init__(
        self,
        binary_bytes: int = BOT_BINARY_BYTES,
        on_loaded: Callable[[Ipv4Address], None] | None = None,
    ) -> None:
        super().__init__()
        self.binary_bytes = binary_bytes
        self.on_loaded = on_loaded
        self.provenance = Provenance(origin="loader", malicious=True, attack="loader")
        self.infections_started = 0
        self.infections_completed = 0
        self._in_progress: set[int] = set()
        self._done: set[int] = set()

    def infect(self, target: Ipv4Address, username: str, password: str) -> None:
        """Log in and push the binary (idempotent per target)."""
        if target.value in self._done or target.value in self._in_progress:
            return
        self._in_progress.add(target.value)
        self.infections_started += 1
        sock = self.node.tcp.socket()
        sock.provenance = self.provenance
        state = {"stage": "user"}

        def fail(_s) -> None:
            self._in_progress.discard(target.value)

        def on_data(s, payload: bytes, length: int, app_data: object) -> None:
            text = payload.decode("ascii", errors="replace")
            stage = state["stage"]
            if stage == "user" and "login:" in text:
                state["stage"] = "pass"
                s.send(username.encode("ascii") + b"\r\n")
            elif stage == "pass" and "Password:" in text:
                state["stage"] = "shell"
                s.send(password.encode("ascii") + b"\r\n")
            elif stage == "shell" and ("shell" in text or text.startswith("# ")):
                state["stage"] = "ready"
                s.send(f"DOWNLOAD {self.binary_bytes}\r\n".encode("ascii"))
            elif stage == "ready" and "READY" in text:
                state["stage"] = "pushing"
                s.send(length=self.binary_bytes, app_data=("mirai", "bot.bin"))
            elif stage == "pushing" and "EXECUTED" in text:
                state["stage"] = "done"
                self._in_progress.discard(target.value)
                self._done.add(target.value)
                self.infections_completed += 1
                s.send(b"exit\r\n")
                s.close()
                if self.on_loaded is not None:
                    self.on_loaded(target)

        sock.on_data = on_data
        sock.on_reset = fail
        sock.connect(target, TELNET_PORT)
