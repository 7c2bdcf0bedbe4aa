"""Traffic capture: in-memory packet records and libpcap-format files.

The IDS container in the paper sniffs the simulated network and feeds the
capture to its feature pipeline.  Here a :class:`PacketProbe` registered
on a channel captures the flat per-packet facts of a
:class:`PacketRecord` — as columns, the form the feature extractor
consumes — and can simultaneously stream the raw frames to a
:class:`PcapWriter`, which emits genuine libpcap files readable by
Wireshark/tcpdump (DDoSim's external-analysis workflow).
:func:`packet_fields` is the one field extraction, shared by the probe
and the live IDS tap; both see one delivered frame per call.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.sim.packet import PROTO_TCP, PROTO_UDP, Packet, TcpFlags

PCAP_MAGIC = 0xA1B2C3D2  # nanosecond-resolution variant
PCAP_LINKTYPE_ETHERNET = 1


class PacketRecord(NamedTuple):
    """One captured packet, flattened for feature extraction.

    ``label`` is ground truth taken from packet provenance (which process
    emitted it) — never from anything the wire carries — and is used only
    for training labels and accuracy scoring.

    Captures are stored as columns; a row is only an on-demand view of
    them (:attr:`PacketProbe.records`, ``RecordBatch.to_records``).  A
    named tuple rather than a dataclass keeps building one cheap.
    """

    timestamp: float
    src_ip: int
    dst_ip: int
    protocol: int
    src_port: int
    dst_port: int
    size: int
    tcp_flags: int
    seq: int
    label: int  # 1 = malicious, 0 = benign
    attack: str | None = None

    @classmethod
    def from_packet(cls, packet: Packet, timestamp: float) -> "PacketRecord":
        if packet.ip is None:
            raise ValueError("cannot record a packet without an IPv4 header")
        return cls._make(packet_fields(packet, timestamp))

    @property
    def is_tcp(self) -> bool:
        return self.protocol == PROTO_TCP

    @property
    def is_udp(self) -> bool:
        return self.protocol == PROTO_UDP

    @property
    def is_syn(self) -> bool:
        return bool(self.tcp_flags & TcpFlags.SYN) and not bool(
            self.tcp_flags & TcpFlags.ACK
        )

    @property
    def is_ack(self) -> bool:
        return bool(self.tcp_flags & TcpFlags.ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.tcp_flags & TcpFlags.FIN)

    @property
    def flow_key(self) -> tuple[int, int, int, int, int]:
        """The connection 5-tuple this packet belongs to."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol)


def packet_fields(packet: Packet, timestamp: float) -> tuple:
    """One IPv4 packet's :class:`PacketRecord` field values, in field order."""
    ip = packet.ip
    tcp = packet.tcp
    if tcp is not None:
        src_port, dst_port, tcp_flags, seq = tcp.src_port, tcp.dst_port, tcp.flags, tcp.seq
    elif packet.udp is not None:
        src_port, dst_port, tcp_flags, seq = packet.udp.src_port, packet.udp.dst_port, 0, 0
    else:
        src_port = dst_port = tcp_flags = seq = 0
    provenance = packet.provenance
    return (
        timestamp,
        ip.src.value,
        ip.dst.value,
        ip.protocol,
        src_port,
        dst_port,
        packet.size,
        tcp_flags,
        seq,
        1 if provenance.malicious else 0,
        provenance.attack,
    )


class PacketProbe:
    """Promiscuous channel tap capturing packets as columns.

    The capture is one columnar buffer, :attr:`columns`: a list per
    :class:`PacketRecord` field, appended in arrival order.
    :meth:`drain_columns` hands it over (the testbed turns it into a
    :class:`~repro.features.columnar.RecordBatch`); :attr:`records`
    builds :class:`PacketRecord` rows from it on demand.
    """

    def __init__(
        self,
        pcap: "PcapWriter | None" = None,
        keep_records: bool = True,
    ) -> None:
        self.columns: tuple[list, ...] = tuple([] for _ in PacketRecord._fields)
        self.pcap = pcap
        self.keep_records = keep_records
        self.count = 0

    @property
    def records(self) -> list[PacketRecord]:
        """Captured rows in arrival order, built from the columns."""
        return list(map(PacketRecord._make, zip(*self.columns)))

    def drain_columns(self) -> Iterator[list]:
        """Hand the capture over column by column, in field order.

        Each column is emptied once the next one is requested, so a
        consumer converting them one at a time (``RecordBatch.from_columns``)
        never holds the whole capture twice.
        """
        for column in self.columns:
            yield column
            column.clear()

    def __call__(self, packet: Packet, timestamp: float) -> None:
        if packet.ip is None:
            return
        self.count += 1
        if self.keep_records:
            for column, value in zip(self.columns, packet_fields(packet, timestamp)):
                column.append(value)
        if self.pcap is not None:
            self.pcap.write(packet, timestamp)

    def clear(self) -> None:
        for column in self.columns:
            column.clear()


class PcapWriter:
    """Writes frames to a libpcap file (nanosecond timestamps, Ethernet).

    Designed to survive an experiment dying mid-capture: each record
    (header + frame bytes) is written in one ``write()`` call so a crash
    cannot leave a record header without its data, :meth:`flush` pushes
    buffered records to the OS so readers see everything captured so
    far, and :meth:`close` is idempotent.  Use as a context manager —
    the file is flushed and closed even when the body raises.
    """

    def __init__(self, path: str | Path, snaplen: int = 65535) -> None:
        self.path = Path(path)
        self.snaplen = snaplen
        self._fh = open(self.path, "wb")
        self._fh.write(
            struct.pack(
                "<IHHiIII",
                PCAP_MAGIC,
                2,
                4,
                0,
                0,
                snaplen,
                PCAP_LINKTYPE_ETHERNET,
            )
        )
        self.packets_written = 0

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def write(self, packet: Packet, timestamp: float) -> None:
        if self._fh.closed:
            raise ValueError(f"write() on closed pcap {self.path}")
        data = packet.to_bytes()[: self.snaplen]
        seconds = int(timestamp)
        nanos = int(round((timestamp - seconds) * 1e9))
        record = (
            struct.pack("<IIII", seconds, nanos, len(data), packet.size) + data
        )
        self._fh.write(record)
        self.packets_written += 1

    def flush(self) -> None:
        """Push buffered records to the OS (a readable capture prefix)."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PcapReader:
    """Reads frames back from a libpcap file written by :class:`PcapWriter`."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[tuple[float, Packet]]:
        with open(self.path, "rb") as fh:
            header = fh.read(24)
            if len(header) < 24:
                raise ValueError(f"{self.path} is not a pcap file")
            (magic,) = struct.unpack("<I", header[:4])
            if magic not in (PCAP_MAGIC, 0xA1B2C3D4):
                raise ValueError(f"{self.path}: unknown pcap magic {magic:#x}")
            nanos_resolution = magic == PCAP_MAGIC
            while True:
                record_header = fh.read(16)
                if len(record_header) < 16:
                    return
                seconds, frac, caplen, _origlen = struct.unpack("<IIII", record_header)
                data = fh.read(caplen)
                if len(data) < caplen:
                    # Truncated trailing record (writer died mid-flush):
                    # every complete record before it is still valid.
                    return
                scale = 1e-9 if nanos_resolution else 1e-6
                yield seconds + frac * scale, Packet.from_bytes(data)
