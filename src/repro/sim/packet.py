"""Packets and protocol headers.

A :class:`Packet` is a stack of typed headers plus an opaque payload.
It is the simulator's only wire unit: every frame moves as one
``Packet`` through its own events, one packet at a time as in NS-3.
Headers serialize to their real wire layouts (Ethernet II, IPv4, TCP,
UDP) so captures written by :class:`repro.sim.tracing.PcapWriter` open
in any standard pcap tool, and header sizes contribute correctly to
transmission delay on simulated channels.

Packets also carry out-of-band ``provenance`` metadata (which process
created them, and whether that process was a botnet attack module).  The
provenance never appears on the wire or in any feature the IDS sees; it
exists solely so captures can be ground-truth labelled, mirroring how the
paper labels traffic by knowing which container emitted it.

Packets, headers and provenance are ``typing.NamedTuple`` classes:
immutable and hashable like frozen dataclasses, but a build is one C
tuple allocation instead of an ``object.__setattr__`` per field, and
the per-frame path builds them positionally.  Being tuples, two of
them compare equal when their fields do, whatever their class.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.sim.address import Ipv4Address, MacAddress

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17

ETHERNET_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
TCP_HEADER_LEN = 20
UDP_HEADER_LEN = 8


class TcpFlags:
    """TCP control flag bits (subset used by the testbed and the IDS features).

    Plain ``int`` constants, not an ``enum.IntFlag``: ``TcpHeader.flags``
    and every capture column hold the flags byte as an ``int``
    (``TcpFlags.SYN | TcpFlags.ACK`` is ``18``), so a flag test on the
    per-frame path is one C-level ``int &``.
    """

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


class EthernetHeader(NamedTuple):
    """Ethernet II frame header."""

    src: MacAddress
    dst: MacAddress
    ethertype: int = ETHERTYPE_IPV4

    def to_bytes(self) -> bytes:
        return struct.pack(
            "!6s6sH",
            self.dst.value.to_bytes(6, "big"),
            self.src.value.to_bytes(6, "big"),
            self.ethertype,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetHeader":
        dst, src, ethertype = struct.unpack("!6s6sH", data[:ETHERNET_HEADER_LEN])
        return cls(
            src=MacAddress(int.from_bytes(src, "big")),
            dst=MacAddress(int.from_bytes(dst, "big")),
            ethertype=ethertype,
        )


class Ipv4Header(NamedTuple):
    """IPv4 header (no options)."""

    src: Ipv4Address
    dst: Ipv4Address
    protocol: int
    ttl: int = 64
    identification: int = 0
    total_length: int = 0  # filled by serialization when zero

    def to_bytes(self, payload_len: int = 0) -> bytes:
        total = self.total_length or (IPV4_HEADER_LEN + payload_len)
        header = struct.pack(
            "!BBHHHBBH4s4s",
            0x45,  # version 4, IHL 5
            0,  # DSCP/ECN
            total,
            self.identification & 0xFFFF,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src.value.to_bytes(4, "big"),
            self.dst.value.to_bytes(4, "big"),
        )
        checksum = _ipv4_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Header":
        (_vihl, _tos, total, ident, _frag, ttl, proto, _ck, src, dst) = struct.unpack(
            "!BBHHHBBH4s4s", data[:IPV4_HEADER_LEN]
        )
        return cls(
            src=Ipv4Address(int.from_bytes(src, "big")),
            dst=Ipv4Address(int.from_bytes(dst, "big")),
            protocol=proto,
            ttl=ttl,
            identification=ident,
            total_length=total,
        )


class TcpHeader(NamedTuple):
    """TCP header (no options)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    def to_bytes(self) -> bytes:
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            (TCP_HEADER_LEN // 4) << 4,
            self.flags,
            self.window,
            0,  # checksum (not computed; pcap tools tolerate zero)
            0,  # urgent pointer
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpHeader":
        (sport, dport, seq, ack, _off, flags, window, _ck, _urg) = struct.unpack(
            "!HHIIBBHHH", data[:TCP_HEADER_LEN]
        )
        return cls(sport, dport, seq, ack, flags, window)


class UdpHeader(NamedTuple):
    """UDP header."""

    src_port: int
    dst_port: int
    length: int = UDP_HEADER_LEN

    def to_bytes(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, 0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpHeader":
        sport, dport, length, _ck = struct.unpack("!HHHH", data[:UDP_HEADER_LEN])
        return cls(sport, dport, length)


def _ipv4_checksum(header: bytes) -> int:
    """Standard ones-complement sum over 16-bit words."""
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class Provenance(NamedTuple):
    """Out-of-band origin tag used only for ground-truth labelling."""

    origin: str = "unknown"
    malicious: bool = False
    attack: str | None = None


BENIGN = Provenance(origin="app", malicious=False)

#: The tag a transport stamps on a packet whose sender set none; shared,
#: like every immutable tag, rather than built per packet.
UNKNOWN_ORIGIN = Provenance()


class Packet(NamedTuple):
    """An immutable packet: Ethernet/IPv4/transport headers + payload.

    ``payload`` is application data as bytes; ``payload_len`` lets bulk
    transfers model large payloads without materialising the bytes (the
    wire format pads with zeros on serialization).

    Equality and hashing cover every field, ``app_data`` included, so
    hashing a packet whose ``app_data`` is unhashable raises
    ``TypeError``.  The simulator itself never compares or hashes
    packets.
    """

    eth: EthernetHeader | None = None
    ip: Ipv4Header | None = None
    tcp: TcpHeader | None = None
    udp: UdpHeader | None = None
    payload: bytes = b""
    payload_len: int | None = None
    provenance: Provenance = BENIGN
    app_data: object | None = None

    @property
    def data_len(self) -> int:
        """Length of the application payload in bytes."""
        return self.payload_len if self.payload_len is not None else len(self.payload)

    @property
    def size(self) -> int:
        """Total on-wire size in bytes, headers included."""
        size = self.payload_len if self.payload_len is not None else len(self.payload)
        if self.eth is not None:
            size += ETHERNET_HEADER_LEN
        if self.ip is not None:
            size += IPV4_HEADER_LEN
        if self.tcp is not None:
            size += TCP_HEADER_LEN
        if self.udp is not None:
            size += UDP_HEADER_LEN
        return size

    def with_eth(self, eth: EthernetHeader) -> "Packet":
        """Return a copy with the Ethernet header replaced (L2 framing)."""
        # Positional: this runs once per transmitted frame, and _replace()
        # or a keyword build costs about 1.7 times as much.
        _, ip, tcp, udp, payload, payload_len, provenance, app_data = self
        return Packet(eth, ip, tcp, udp, payload, payload_len, provenance, app_data)

    def to_bytes(self) -> bytes:
        """Serialize to real wire format (for pcap export)."""
        body = self.payload + b"\x00" * (self.data_len - len(self.payload))
        if self.tcp is not None:
            segment = self.tcp.to_bytes() + body
        elif self.udp is not None:
            udp = UdpHeader(
                self.udp.src_port, self.udp.dst_port, UDP_HEADER_LEN + len(body)
            )
            segment = udp.to_bytes() + body
        else:
            segment = body
        if self.ip is not None:
            segment = self.ip.to_bytes(payload_len=len(segment)) + segment
        if self.eth is not None:
            segment = self.eth.to_bytes() + segment
        return segment

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse a wire-format frame back into structured headers."""
        eth = EthernetHeader.from_bytes(data)
        offset = ETHERNET_HEADER_LEN
        ip = tcp = udp = None
        if eth.ethertype == ETHERTYPE_IPV4:
            ip = Ipv4Header.from_bytes(data[offset:])
            offset += IPV4_HEADER_LEN
            if ip.protocol == PROTO_TCP:
                tcp = TcpHeader.from_bytes(data[offset:])
                offset += TCP_HEADER_LEN
            elif ip.protocol == PROTO_UDP:
                udp = UdpHeader.from_bytes(data[offset:])
                offset += UDP_HEADER_LEN
        return cls(eth=eth, ip=ip, tcp=tcp, udp=udp, payload=data[offset:])


#: app_data marker for frames whose next hop MAC could not be resolved
#: (set by the node L3 send path, dropped on receive).
UNRESOLVED_MARKER = "__unresolved__"

