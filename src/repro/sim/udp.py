"""UDP datagram sockets for the simulated network."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.address import Ipv4Address
from repro.sim.packet import (
    PROTO_UDP,
    UNKNOWN_ORIGIN,
    Ipv4Header,
    Packet,
    Provenance,
    UdpHeader,
)

if TYPE_CHECKING:
    from repro.sim.node import Node

#: Receive callback: (socket, payload bytes, virtual length, src ip, src port).
RecvFn = Callable[["UdpSocket", bytes, int, Ipv4Address, int], None]


class UdpSocket:
    """A bound UDP endpoint; datagrams are fire-and-forget."""

    def __init__(self, stack: "UdpStack", port: int) -> None:
        self.stack = stack
        self.port = port
        self.on_receive: RecvFn | None = None
        self.provenance: Provenance | None = None
        self.datagrams_sent = 0
        self.datagrams_received = 0

    def send_to(
        self,
        dst: Ipv4Address,
        dst_port: int,
        payload: bytes = b"",
        length: int | None = None,
        app_data: object | None = None,
    ) -> bool:
        """Send one datagram; returns False if the TX queue dropped it."""
        self.datagrams_sent += 1
        return self.stack.send_datagram(
            src_port=self.port,
            dst=dst,
            dst_port=dst_port,
            payload=payload,
            payload_len=length,
            app_data=app_data,
            provenance=self.provenance,
        )

    def handle(self, packet: Packet) -> None:
        assert packet.ip is not None and packet.udp is not None
        self.datagrams_received += 1
        if self.on_receive is not None:
            self.on_receive(
                self,
                packet.payload,
                packet.data_len,
                packet.ip.src,
                packet.udp.src_port,
            )

    def close(self) -> None:
        self.stack.sockets.pop(self.port, None)


class UdpStack:
    """Per-node UDP demultiplexer."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.sockets: dict[int, UdpSocket] = {}
        self._next_port = 49152
        self.unreachable = 0
        self.default_provenance: Provenance | None = None

    def bind(self, port: int = 0) -> UdpSocket:
        """Bind a socket; ``port=0`` picks an ephemeral port."""
        if port == 0:
            while self._next_port in self.sockets:
                self._next_port += 1
            port = self._next_port
            self._next_port += 1
        if port in self.sockets:
            raise RuntimeError(f"UDP port {port} already bound on {self.node.name}")
        sock = UdpSocket(self, port)
        self.sockets[port] = sock
        return sock

    def receive(self, packet: Packet) -> None:
        assert packet.udp is not None
        sock = self.sockets.get(packet.udp.dst_port)
        if sock is None:
            # A real host answers ICMP port-unreachable; we only count it.
            # UDP floods aimed at closed ports still congest the victim's
            # link, which is the effect the testbed observes.
            self.unreachable += 1
            return
        sock.handle(packet)

    def send_datagram(
        self,
        src_port: int,
        dst: Ipv4Address,
        dst_port: int,
        payload: bytes = b"",
        payload_len: int | None = None,
        app_data: object | None = None,
        provenance: Provenance | None = None,
        src: Ipv4Address | None = None,
    ) -> bool:
        # Positional builds, as in TcpStack.send_segment.
        ip = Ipv4Header(src if src is not None else self.node.address, dst, PROTO_UDP)
        prov = provenance or self.default_provenance
        packet = Packet(
            None, ip, None, UdpHeader(src_port, dst_port), payload, payload_len,
            prov if prov is not None else UNKNOWN_ORIGIN, app_data,
        )
        return self.node.send_ipv4(packet)
