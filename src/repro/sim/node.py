"""Simulated hosts: a node owns net devices, an IPv4 stack, and transports.

A :class:`Node` is the simulation-side anchor that a container's tap
bridge grafts onto (NS-3 calls these "ghost nodes").  It routes outbound
packets to the right interface, resolves next-hop MACs through the
channel, and demultiplexes inbound packets to its TCP and UDP stacks.

Routing is longest-prefix over connected interfaces, then static routes
(:meth:`Node.add_route` — how hosts on a hierarchical topology's backbone
reach leaf segments behind routers), then the default gateway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.address import (
    ANY_ADDRESS,
    BROADCAST_MAC,
    Ipv4Address,
    Ipv4Network,
    MacAddress,
)
from repro.sim.channel import CsmaChannel, CsmaNetDevice
from repro.sim.core import Simulator
from repro.sim.packet import (
    PROTO_TCP,
    PROTO_UDP,
    UNRESOLVED_MARKER,
    Ipv4Header,
    Packet,
)


class NetworkError(RuntimeError):
    """Raised for unroutable destinations and similar stack failures."""


@dataclass
class Interface:
    """An IPv4 address bound to a net device on a subnet."""

    device: CsmaNetDevice
    address: Ipv4Address
    network: Ipv4Network


@dataclass(frozen=True)
class StaticRoute:
    """``network``-destined traffic goes via the ``via`` next hop."""

    network: Ipv4Network
    via: Ipv4Address


class Node:
    """A simulated host with interfaces and TCP/UDP stacks."""

    def __init__(self, sim: Simulator, name: str = "node") -> None:
        self.sim = sim
        self.name = name
        self.interfaces: list[Interface] = []
        self.default_gateway: Ipv4Address | None = None
        self.routes: list[StaticRoute] = []
        #: Routers forward packets not addressed to them between their
        #: interfaces (with TTL decrement); hosts silently drop them.
        self.is_router = False
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_unroutable = 0
        self.ttl_expired = 0
        # Imported lazily to avoid a circular import at module load.
        from repro.sim.tcp import TcpStack
        from repro.sim.udp import UdpStack

        self.tcp = TcpStack(self)
        self.udp = UdpStack(self)

    def __repr__(self) -> str:
        addrs = ", ".join(str(iface.address) for iface in self.interfaces)
        return f"Node({self.name!r}, [{addrs}])"

    # ------------------------------------------------------------------
    # Interface management

    def add_interface(
        self,
        device: CsmaNetDevice,
        address: Ipv4Address,
        network: Ipv4Network,
    ) -> Interface:
        """Bind ``address`` (within ``network``) to ``device``."""
        device.node = self
        interface = Interface(device, address, network)
        self.interfaces.append(interface)
        # The channel may have cached a negative resolution for this
        # address before it existed.
        device.channel.invalidate_resolve_cache()
        return interface

    def add_route(self, network: Ipv4Network, via: Ipv4Address) -> None:
        """Install a static route: ``network`` is reachable via ``via``.

        ``via`` must itself be reachable through a connected interface.
        """
        self.routes.append(StaticRoute(network, via))
        self.routes.sort(key=lambda r: -r.network.prefix_len)

    def owns_address(self, address: Ipv4Address) -> bool:
        """Whether any interface holds ``address`` (used for ARP-free resolve)."""
        return any(iface.address == address for iface in self.interfaces)

    @property
    def address(self) -> Ipv4Address:
        """Primary (first-interface) address; convenience for single-homed hosts."""
        if not self.interfaces:
            raise NetworkError(f"{self.name} has no interfaces")
        return self.interfaces[0].address

    def route_for(self, destination: Ipv4Address) -> tuple[Interface, Ipv4Address]:
        """Resolve ``destination`` to ``(interface, next_hop)``."""
        best: Interface | None = None
        for iface in self.interfaces:
            if iface.network.contains(destination):
                if best is None or iface.network.prefix_len > best.network.prefix_len:
                    best = iface
        if best is not None:
            return best, destination
        for route in self.routes:  # kept sorted longest-prefix first
            if route.network.contains(destination):
                return self._interface_toward(route.via), route.via
        if self.default_gateway is not None and self.interfaces:
            return self.interfaces[0], self.default_gateway
        raise NetworkError(f"{self.name}: no route to {destination}")

    def _interface_toward(self, next_hop: Ipv4Address) -> Interface:
        for iface in self.interfaces:
            if iface.network.contains(next_hop):
                return iface
        raise NetworkError(f"{self.name}: next hop {next_hop} is not on-link")

    # ------------------------------------------------------------------
    # Packet I/O

    def send_ipv4(self, packet: Packet) -> bool:
        """Route and transmit an IPv4 packet built by a transport stack.

        Unroutable destinations (e.g. SYN-ACK replies to spoofed flood
        sources) are counted and dropped, as a host without a default
        route would.
        """
        assert packet.ip is not None
        try:
            iface, next_hop = self.route_for(packet.ip.dst)
        except NetworkError:
            self.packets_unroutable += 1
            return False
        # As ints: a dataclass __eq__ is a Python call, once per routed send.
        if next_hop.value == iface.network.broadcast.value:
            dst_mac: MacAddress | None = BROADCAST_MAC
        else:
            dst_mac = iface.device.channel.resolve(next_hop)
        if dst_mac is None:
            # Unresolvable destination: the frame still occupies the wire in
            # a real scan (switches flood unknown unicast), so transmit it to
            # nobody rather than silently dropping — scanners probing dark
            # address space must still generate observable traffic.
            dst_mac = BROADCAST_MAC
            packet = _mark_unresolved(packet)
        self.packets_sent += 1
        return iface.device.send(packet, dst_mac)

    def receive(self, frame: Packet, device: CsmaNetDevice) -> None:
        """Inbound frame from a device; demux to the transports.

        Routers forward packets addressed elsewhere; hosts drop them.
        """
        if frame.ip is None:
            return
        if getattr(frame, "app_data", None) == UNRESOLVED_MARKER:
            return
        # Ours if some interface holds the destination, or it is that
        # interface's subnet broadcast or the unspecified address.  Read
        # as ints: this runs once per delivered frame.
        dst = frame.ip.dst.value
        for iface in self.interfaces:
            if (
                dst == iface.address.value
                or dst == iface.network.broadcast.value
                or dst == ANY_ADDRESS.value
            ):
                break
        else:
            if self.is_router:
                self._forward(frame)
            return
        self.packets_received += 1
        if frame.ip.protocol == PROTO_TCP and frame.tcp is not None:
            self.tcp.receive(frame)
        elif frame.ip.protocol == PROTO_UDP and frame.udp is not None:
            self.udp.receive(frame)

    def _forward(self, frame: Packet) -> None:
        """Route a transit packet out the next-hop interface."""
        assert frame.ip is not None
        if frame.ip.ttl <= 1:
            self.ttl_expired += 1
            return
        ip = frame.ip
        decremented = Packet(
            None,
            Ipv4Header(
                ip.src, ip.dst, ip.protocol, ip.ttl - 1, ip.identification,
                ip.total_length,
            ),
            frame.tcp, frame.udp, frame.payload, frame.payload_len,
            frame.provenance, frame.app_data,
        )
        self.packets_forwarded += 1
        self.send_ipv4(decremented)


def _mark_unresolved(packet: Packet) -> Packet:
    """Tag a frame destined to a dead address so no stack consumes it."""
    return Packet(
        packet.eth, packet.ip, packet.tcp, packet.udp, packet.payload,
        packet.payload_len, packet.provenance, UNRESOLVED_MARKER,
    )


def connect_to_lan(
    node: Node,
    channel: CsmaChannel,
    network: Ipv4Network,
    mac: MacAddress,
    address: Ipv4Address | None = None,
    queue_capacity: int = 512,
) -> Interface:
    """Create a device on ``channel`` and bind the next free subnet address."""
    device = CsmaNetDevice(channel, mac, queue_capacity=queue_capacity)
    addr = address if address is not None else network.allocate()
    return node.add_interface(device, addr, network)
