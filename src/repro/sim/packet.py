"""Packets and protocol headers.

A :class:`Packet` is a stack of typed headers plus an opaque payload.
Headers serialize to their real wire layouts (Ethernet II, IPv4, TCP, UDP)
so captures written by :class:`repro.sim.tracing.PcapWriter` open in any
standard pcap tool, and header sizes contribute correctly to transmission
delay on simulated channels.

Packets also carry out-of-band ``provenance`` metadata (which process
created them, and whether that process was a botnet attack module).  The
provenance never appears on the wire or in any feature the IDS sees; it
exists solely so captures can be ground-truth labelled, mirroring how the
paper labels traffic by knowing which container emitted it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

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

    Plain ``int`` constants, not an ``enum.IntFlag``: ``TcpHeader.flags``,
    ``PacketBatch.flags`` and every capture column hold the flags byte as
    an ``int`` (``TcpFlags.SYN | TcpFlags.ACK`` is ``18``), so a flag test
    on the per-frame path is one C-level ``int &``.
    """

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


@dataclass(frozen=True, slots=True)
class EthernetHeader:
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


@dataclass(frozen=True, slots=True)
class Ipv4Header:
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


@dataclass(frozen=True, slots=True)
class TcpHeader:
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


@dataclass(frozen=True, slots=True)
class UdpHeader:
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


@dataclass(frozen=True, slots=True)
class Provenance:
    """Out-of-band origin tag used only for ground-truth labelling."""

    origin: str = "unknown"
    malicious: bool = False
    attack: str | None = None


BENIGN = Provenance(origin="app", malicious=False)


@dataclass(frozen=True, slots=True)
class Packet:
    """An immutable packet: Ethernet/IPv4/transport headers + payload.

    ``payload`` is application data as bytes; ``payload_len`` lets bulk
    transfers model large payloads without materialising the bytes (the
    wire format pads with zeros on serialization).
    """

    eth: EthernetHeader | None = None
    ip: Ipv4Header | None = None
    tcp: TcpHeader | None = None
    udp: UdpHeader | None = None
    payload: bytes = b""
    payload_len: int | None = None
    provenance: Provenance = BENIGN
    app_data: object | None = field(default=None, compare=False)

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
        # The constructor, not dataclasses.replace: this runs once per
        # transmitted frame and replace() costs twice as much.
        return Packet(
            eth, self.ip, self.tcp, self.udp, self.payload, self.payload_len,
            self.provenance, self.app_data,
        )

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


def _column(value: object, n: int) -> np.ndarray:
    """Coerce a scalar or sequence into an ``int64`` column of length ``n``."""
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim == 0:
        return np.full(n, int(arr), dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"column shape {arr.shape} != ({n},)")
    return arr


def _object_column(value: object, n: int) -> tuple | None:
    """Coerce an optional per-row object sequence into a tuple of length ``n``."""
    if value is None:
        return None
    values = tuple(value)  # type: ignore[call-overload]
    if len(values) != n:
        raise ValueError(f"object column length {len(values)} != {n}")
    return values


def _take_objects(values: tuple, selector: object, n: int) -> tuple:
    """Apply a numpy-style selector (slice/mask/indices) to a tuple column."""
    if isinstance(selector, slice):
        return values[selector]
    indices = np.arange(n)[selector]
    return tuple(values[int(i)] for i in indices)


@dataclass(slots=True)
class PacketBatch:
    """Struct-of-arrays view of many same-shaped packets (the flood path).

    One batch models ``n`` packets that share every *structural* attribute
    (protocol, TCP flags, TTL, provenance, L2 framing) while the per-packet
    fields (addresses, ports, sequence numbers, payload lengths) live in
    int64 numpy columns.  Attack modules emit batches; queues and channels
    move them as units; :meth:`packet` materialises any row back into an
    ordinary :class:`Packet` so scalar consumers stay correct.

    IP addresses are stored as raw 32-bit values (``Ipv4Address.value``)
    and MACs as shared scalars — flood frames from one device always carry
    one ``(src_mac, dst_mac)`` pair.

    The benign plane additionally threads literal payload bytes and
    application metadata through ``payloads``/``app_data``: optional
    per-row tuple columns that materialise back onto scalar
    :class:`Packet` rows bit-for-bit (``None`` means every row has an
    empty payload / no app metadata, the flood-path common case).
    """

    protocol: int
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    payload_len: np.ndarray
    seq: np.ndarray | None = None
    ack: np.ndarray | None = None
    flags: int = 0
    ttl: int = 64
    provenance: Provenance = BENIGN
    src_mac: MacAddress | None = None
    dst_mac: MacAddress | None = None
    unresolved: bool = False
    payloads: tuple | None = None
    app_data: tuple | None = None

    # ------------------------------------------------------------------
    # Construction helpers

    @classmethod
    def tcp_batch(
        cls,
        n: int,
        *,
        src_ip: object,
        dst_ip: object,
        src_port: object,
        dst_port: object,
        seq: object = 0,
        ack: object = 0,
        flags: int = 0,
        payload_len: object = 0,
        ttl: int = 64,
        provenance: Provenance = BENIGN,
        payloads: object = None,
        app_data: object = None,
    ) -> "PacketBatch":
        return cls(
            protocol=PROTO_TCP,
            src_ip=_column(src_ip, n),
            dst_ip=_column(dst_ip, n),
            src_port=_column(src_port, n),
            dst_port=_column(dst_port, n),
            payload_len=_column(payload_len, n),
            seq=_column(seq, n),
            ack=_column(ack, n),
            flags=flags,
            ttl=ttl,
            provenance=provenance,
            payloads=_object_column(payloads, n),
            app_data=_object_column(app_data, n),
        )

    @classmethod
    def udp_batch(
        cls,
        n: int,
        *,
        src_ip: object,
        dst_ip: object,
        src_port: object,
        dst_port: object,
        payload_len: object = 0,
        ttl: int = 64,
        provenance: Provenance = BENIGN,
        payloads: object = None,
        app_data: object = None,
    ) -> "PacketBatch":
        return cls(
            protocol=PROTO_UDP,
            src_ip=_column(src_ip, n),
            dst_ip=_column(dst_ip, n),
            src_port=_column(src_port, n),
            dst_port=_column(dst_port, n),
            payload_len=_column(payload_len, n),
            ttl=ttl,
            provenance=provenance,
            payloads=_object_column(payloads, n),
            app_data=_object_column(app_data, n),
        )

    # ------------------------------------------------------------------
    # Shape and sizes

    def __len__(self) -> int:
        return int(self.src_ip.shape[0])

    @property
    def header_size(self) -> int:
        """Per-packet header bytes (identical across the batch)."""
        size = IPV4_HEADER_LEN
        size += TCP_HEADER_LEN if self.protocol == PROTO_TCP else UDP_HEADER_LEN
        if self.src_mac is not None:
            size += ETHERNET_HEADER_LEN
        return size

    @property
    def sizes(self) -> np.ndarray:
        """On-wire size of each packet in bytes (int64 column)."""
        return self.payload_len + self.header_size

    @property
    def size(self) -> int:
        """Total on-wire bytes across the batch."""
        return int(self.sizes.sum())

    # ------------------------------------------------------------------
    # Transformations (all return new batches sharing columns when possible)

    def _replace_columns(self, **overrides: object) -> "PacketBatch":
        kwargs = dict(
            protocol=self.protocol,
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            payload_len=self.payload_len,
            seq=self.seq,
            ack=self.ack,
            flags=self.flags,
            ttl=self.ttl,
            provenance=self.provenance,
            src_mac=self.src_mac,
            dst_mac=self.dst_mac,
            unresolved=self.unresolved,
            payloads=self.payloads,
            app_data=self.app_data,
        )
        kwargs.update(overrides)
        return PacketBatch(**kwargs)  # type: ignore[arg-type]

    def with_macs(
        self,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        *,
        unresolved: bool = False,
    ) -> "PacketBatch":
        """L2-frame the batch (adds Ethernet header bytes to ``sizes``)."""
        return self._replace_columns(
            src_mac=src_mac, dst_mac=dst_mac, unresolved=unresolved
        )

    def with_ttl(self, ttl: int) -> "PacketBatch":
        """Return a copy with a new TTL and the L2 framing stripped."""
        return self._replace_columns(ttl=ttl, src_mac=None, dst_mac=None)

    def _index(self, selector: object) -> "PacketBatch":
        n = len(self)
        return self._replace_columns(
            src_ip=self.src_ip[selector],
            dst_ip=self.dst_ip[selector],
            src_port=self.src_port[selector],
            dst_port=self.dst_port[selector],
            payload_len=self.payload_len[selector],
            seq=None if self.seq is None else self.seq[selector],
            ack=None if self.ack is None else self.ack[selector],
            payloads=(
                None
                if self.payloads is None
                else _take_objects(self.payloads, selector, n)
            ),
            app_data=(
                None
                if self.app_data is None
                else _take_objects(self.app_data, selector, n)
            ),
        )

    def slice(self, start: int, stop: int | None = None) -> "PacketBatch":
        return self._index(np.s_[start:stop])

    def split(self, k: int) -> tuple["PacketBatch", "PacketBatch"]:
        """Split into the first ``k`` packets and the remainder."""
        return self.slice(0, k), self.slice(k)

    def compress(self, mask: np.ndarray) -> "PacketBatch":
        """Keep only packets where ``mask`` is True."""
        return self._index(mask)

    def take(self, indices: np.ndarray) -> "PacketBatch":
        return self._index(indices)

    # ------------------------------------------------------------------
    # Materialisation back to scalar packets

    def packet(self, i: int) -> Packet:
        """Materialise row ``i`` as an ordinary :class:`Packet`."""
        ip = Ipv4Header(
            src=Ipv4Address(int(self.src_ip[i])),
            dst=Ipv4Address(int(self.dst_ip[i])),
            protocol=self.protocol,
            ttl=self.ttl,
        )
        tcp = udp = None
        if self.protocol == PROTO_TCP:
            tcp = TcpHeader(
                src_port=int(self.src_port[i]),
                dst_port=int(self.dst_port[i]),
                seq=0 if self.seq is None else int(self.seq[i]),
                ack=0 if self.ack is None else int(self.ack[i]),
                flags=self.flags,
            )
        else:
            udp = UdpHeader(
                src_port=int(self.src_port[i]),
                dst_port=int(self.dst_port[i]),
                length=UDP_HEADER_LEN + int(self.payload_len[i]),
            )
        eth = None
        if self.src_mac is not None and self.dst_mac is not None:
            eth = EthernetHeader(src=self.src_mac, dst=self.dst_mac)
        app_data: object | None
        if self.unresolved:
            app_data = UNRESOLVED_MARKER
        elif self.app_data is not None:
            app_data = self.app_data[i]
        else:
            app_data = None
        return Packet(
            eth=eth,
            ip=ip,
            tcp=tcp,
            udp=udp,
            payload=b"" if self.payloads is None else self.payloads[i],
            payload_len=int(self.payload_len[i]),
            provenance=self.provenance,
            app_data=app_data,
        )

    def packets(self) -> Iterator[Packet]:
        for i in range(len(self)):
            yield self.packet(i)
