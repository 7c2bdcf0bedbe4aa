"""The Mirai bot process dropped onto infected devices.

Registers with the CNC, keeps the channel alive, executes attack orders
with the flood modules, and — when self-propagation is enabled — runs its
own scanner and reports cracked devices back so the loader can widen the
botnet, reproducing Mirai's worm behaviour.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.botnet.attacks import AttackModule, make_attack
from repro.botnet.cnc import CNC_PORT, AttackOrder
from repro.botnet.scanner import MiraiScanner
from repro.containers.container import Process
from repro.sim.address import Ipv4Address
from repro.sim.packet import Provenance
from repro.sim.tcp import TcpSocket

KEEPALIVE_INTERVAL = 30.0
RECONNECT_DELAY = 5.0

#: Propagation report: (target, username, password) found by a bot's scanner.
ReportFn = Callable[[Ipv4Address, str, str], None]


class MiraiBot(Process):
    """A bot: C2 client + attack executor (+ optional propagation scanner)."""

    name = "mirai-bot"

    def __init__(
        self,
        cnc_address: Ipv4Address,
        cnc_port: int = CNC_PORT,
        bot_id: str | None = None,
        seed: int = 0,
        self_propagate: bool = False,
        propagation_targets: list[Ipv4Address] | None = None,
        report_credentials: ReportFn | None = None,
    ) -> None:
        super().__init__()
        self.cnc_address = cnc_address
        self.cnc_port = cnc_port
        self.bot_id = bot_id
        self.seed = seed
        self.rng = random.Random(seed)
        self.self_propagate = self_propagate
        self.propagation_targets = propagation_targets or []
        self.report_credentials = report_credentials
        self.provenance = Provenance(origin="bot", malicious=True, attack="c2")
        self.registered = False
        self.attacks_executed = 0
        self.current_attack: AttackModule | None = None
        self._sock: TcpSocket | None = None
        self._keepalive_event = None
        self._scanner: MiraiScanner | None = None

    def on_start(self) -> None:
        if self.bot_id is None:
            self.bot_id = f"bot-{self.node.address}"
        self._connect()

    def on_stop(self) -> None:
        if self._keepalive_event is not None:
            self._keepalive_event.cancel()
        if self.current_attack is not None:
            self.current_attack.stop()
        if self._scanner is not None:
            self._scanner.stop()
        if self._sock is not None:
            self._sock.abort()
            self._sock = None

    # ------------------------------------------------------------------
    # C2 channel

    def _connect(self) -> None:
        if not self.running:
            return
        sock = self.node.tcp.socket()
        sock.provenance = self.provenance
        sock.on_data = self._on_message
        sock.on_reset = lambda s: self._on_disconnect()
        sock.on_close = lambda s: self._on_disconnect()
        self._sock = sock
        sock.connect(self.cnc_address, self.cnc_port, self._on_connected)

    def _on_connected(self, sock: TcpSocket) -> None:
        sock.send(f"REG {self.bot_id}\r\n".encode("ascii"))

    def _on_disconnect(self) -> None:
        self.registered = False
        self._sock = None
        if self._keepalive_event is not None:
            self._keepalive_event.cancel()
            self._keepalive_event = None
        if self.running:
            self.sim.schedule(RECONNECT_DELAY, self._connect)

    def _on_message(self, sock: TcpSocket, payload: bytes, length: int, app_data: object) -> None:
        line = payload.decode("ascii", errors="replace").strip()
        if line == "OK":
            self.registered = True
            self._schedule_keepalive()
            if self.self_propagate:
                self._start_propagation()
        elif line.startswith("ATTACK"):
            self._execute(AttackOrder.decode(line))

    def _schedule_keepalive(self) -> None:
        self._keepalive_event = self.sim.schedule(KEEPALIVE_INTERVAL, self._keepalive)

    def _keepalive(self) -> None:
        if self._sock is not None and self.registered:
            self._sock.send(b"PING\r\n")
            self._schedule_keepalive()

    # ------------------------------------------------------------------
    # Attacks

    def _execute(self, order: AttackOrder) -> None:
        if self.current_attack is not None:
            self.current_attack.stop()
        self.attacks_executed += 1
        self.current_attack = make_attack(
            order.kind,
            self.node,
            self.sim,
            order.target,
            order.target_port,
            order.pps,
            order.duration,
            seed=self.rng.randrange(1 << 30),
        )
        self.current_attack.start()

    # ------------------------------------------------------------------
    # Propagation

    def _start_propagation(self) -> None:
        if self._scanner is not None or not self.propagation_targets:
            return
        if self.report_credentials is None:
            return
        self._scanner = MiraiScanner(
            on_credentials_found=self.report_credentials,
            seed=self.seed + 7,
            concurrency=2,
        )
        self._scanner.container = self.container
        self._scanner.running = True
        self._scanner.on_start()
        self._scanner.scan(self.propagation_targets)
