"""Discrete-event packet-level network simulator (NS-3 substitute).

This subpackage provides the network substrate that DDoShield-IoT built on
NS-3: an event-driven kernel (:mod:`repro.sim.core`), IPv4 addressing
(:mod:`repro.sim.address`), packets with binary-serializable protocol
headers (:mod:`repro.sim.packet`), CSMA channels with drop-tail queues
(:mod:`repro.sim.channel`, :mod:`repro.sim.queue`), nodes with an IPv4
stack (:mod:`repro.sim.node`), TCP and UDP transports with a sockets API
(:mod:`repro.sim.tcp`, :mod:`repro.sim.udp`), promiscuous tracing with a
libpcap-format writer (:mod:`repro.sim.tracing`), and topology helpers
(:mod:`repro.sim.topology`).

The simulator is deliberately packet-granular: SYN floods really exhaust
listen backlogs, UDP floods really overflow drop-tail queues, and every
packet an IDS sees carries genuine TCP sequence numbers and flags, because
the paper's feature pipeline (SYN-without-ACK counts, sequence-number
variance, port entropy) depends on them.
"""

from repro.sim.address import Ipv4Address, Ipv4Network, MacAddress
from repro.sim.channel import CsmaChannel, CsmaNetDevice
from repro.sim.core import Event, Simulator
from repro.sim.node import Node
from repro.sim.packet import (
    EthernetHeader,
    Ipv4Header,
    Packet,
    TcpFlags,
    TcpHeader,
    UdpHeader,
)
from repro.sim.queue import DropTailQueue
from repro.sim.tcp import TcpSocket
from repro.sim.topology import CsmaLan, Router, SegmentedLan, set_default_gateway
from repro.sim.tracing import PacketProbe, PacketRecord, PcapReader, PcapWriter
from repro.sim.udp import UdpSocket

__all__ = [
    "CsmaChannel",
    "CsmaLan",
    "CsmaNetDevice",
    "DropTailQueue",
    "EthernetHeader",
    "Event",
    "Ipv4Address",
    "Ipv4Header",
    "Ipv4Network",
    "MacAddress",
    "Node",
    "Packet",
    "PacketProbe",
    "PacketRecord",
    "PcapReader",
    "PcapWriter",
    "Router",
    "SegmentedLan",
    "Simulator",
    "TcpFlags",
    "TcpHeader",
    "TcpSocket",
    "UdpSocket",
    "set_default_gateway",
]
