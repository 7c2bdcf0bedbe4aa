"""Mirai DDoS attack modules: SYN flood, ACK flood, UDP flood.

Each module runs inside a bot process and emits raw packets at a target
rate, paced on a 10 ms tick: each tick sends its budget of packets back
to back.  Packet shapes follow Mirai's ``attack_tcp.c`` /
``attack_udp.c``: randomized ephemeral source ports, random sequence
numbers, and (for the SYN flood) spoofed source addresses, which is why
victims accumulate half-open connections they can never complete.

Ticks are *anchored*: tick ``k`` fires at exactly ``t0 + k*TICK`` (via
:meth:`~repro.sim.core.Simulator.schedule_periodic`) instead of the
drift-accumulating ``now + TICK`` re-scheduling, so per-seed tick
counts — and therefore packet counts — do not depend on how long a
flood has run.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.sim.address import Ipv4Address
from repro.sim.packet import Provenance, TcpFlags

if TYPE_CHECKING:
    from repro.sim.core import PeriodicEvent, Simulator
    from repro.sim.node import Node

TICK = 0.01
#: Spoofed-source pool for SYN floods (off-subnet, so SYN-ACKs die).
SPOOF_BASE = (172 << 24) | (16 << 16)
#: Flood source-port range.  The real Mirai draws the full 16-bit space,
#: but the testbed's container traffic exits through bridge/conntrack
#: plumbing that rewrites sources into the host's ephemeral range, so
#: observed flood ports overlap benign ephemeral ports (as in the paper's
#: captures, where source port alone does not identify flood packets).
SPORT_RANGE = (32768, 61000)


class AttackModule:
    """Base class: paced packet generation toward one target.

    Subclasses implement :meth:`_send_one`, which builds and sends one
    packet; the base class calls it ``pps * TICK`` times per tick (the
    fractional remainder carries over to the next tick).
    """

    attack_name = "attack"

    def __init__(
        self,
        node: "Node",
        sim: "Simulator",
        target: Ipv4Address,
        target_port: int,
        pps: float,
        duration: float,
        seed: int = 0,
    ) -> None:
        self.node = node
        self.sim = sim
        self.target = target
        self.target_port = target_port
        self.pps = pps
        self.duration = duration
        self.rng = random.Random(seed)
        self.provenance = Provenance(origin="bot", malicious=True, attack=self.attack_name)
        self.packets_sent = 0
        self.active = False
        self._ticker: "PeriodicEvent | None" = None
        self._end_time = 0.0
        self._carry = 0.0

    def start(self) -> None:
        """Begin flooding for ``duration`` seconds."""
        if self.active:
            return
        self.active = True
        t0 = self.sim.now
        self._end_time = t0 + self.duration
        self._tick()  # tick 0 fires immediately at t0
        if self.active:
            # Ticks k >= 1 land on exact multiples of TICK past t0.
            self._ticker = self.sim.schedule_periodic(TICK, self._tick, t0=t0)

    def stop(self) -> None:
        self.active = False
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def _tick(self) -> None:
        if not self.active:
            return
        if self.sim.now >= self._end_time:
            self.stop()
            return
        budget = self.pps * TICK + self._carry
        count = int(budget)
        self._carry = budget - count
        for _ in range(count):
            self._send_one()
        self.packets_sent += count

    def _send_one(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class SynFlood(AttackModule):
    """TCP SYN flood with spoofed sources and random ISNs."""

    attack_name = "syn_flood"

    def __init__(self, *args, spoof: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spoof = spoof

    def _spoofed_source(self) -> Ipv4Address:
        return Ipv4Address(SPOOF_BASE | self.rng.randrange(1, 1 << 16))

    def _send_one(self) -> None:
        self.node.tcp.send_segment(
            src_port=self.rng.randrange(*SPORT_RANGE),
            dst=self.target,
            dst_port=self.target_port,
            seq=self.rng.randrange(1 << 32),
            ack=0,
            flags=TcpFlags.SYN,
            provenance=self.provenance,
            src=self._spoofed_source() if self.spoof else None,
        )


class AckFlood(AttackModule):
    """TCP ACK flood with random seq/ack (draws RSTs from the victim).

    Carries a junk payload like the real Mirai (``ATK_OPT_PAYLOAD_SIZE``
    defaults to 512 random bytes), so each flood packet also consumes
    downstream bandwidth.
    """

    attack_name = "ack_flood"

    def __init__(self, *args, payload_bytes: int = 512, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.payload_bytes = payload_bytes

    def _send_one(self) -> None:
        self.node.tcp.send_segment(
            src_port=self.rng.randrange(*SPORT_RANGE),
            dst=self.target,
            dst_port=self.target_port,
            seq=self.rng.randrange(1 << 32),
            ack=self.rng.randrange(1 << 32),
            flags=TcpFlags.ACK,
            payload_len=self.payload_bytes,
            provenance=self.provenance,
        )


class UdpFlood(AttackModule):
    """Generic UDP flood: fixed-size junk to randomized destination ports."""

    attack_name = "udp_flood"

    def __init__(self, *args, payload_bytes: int = 512, randomize_dport: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.payload_bytes = payload_bytes
        self.randomize_dport = randomize_dport

    def _send_one(self) -> None:
        dport = (
            self.rng.randrange(1, 65536) if self.randomize_dport else self.target_port
        )
        self.node.udp.send_datagram(
            src_port=self.rng.randrange(*SPORT_RANGE),
            dst=self.target,
            dst_port=dport,
            payload_len=self.payload_bytes,
            provenance=self.provenance,
        )


ATTACKS = {
    "syn": SynFlood,
    "syn_flood": SynFlood,
    "ack": AckFlood,
    "ack_flood": AckFlood,
    "udp": UdpFlood,
    "udp_flood": UdpFlood,
}


def make_attack(
    kind: str,
    node: "Node",
    sim: "Simulator",
    target: Ipv4Address,
    target_port: int,
    pps: float,
    duration: float,
    seed: int = 0,
) -> AttackModule:
    """Instantiate an attack module by its command name."""
    try:
        cls = ATTACKS[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown attack {kind!r}; expected one of {sorted(set(ATTACKS))}"
        ) from None
    return cls(node, sim, target, target_port, pps, duration, seed=seed)
