"""Tests for packet records, probes, and pcap round-trips."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.sim import CsmaLan, PacketProbe, PcapReader, PcapWriter, Simulator
from repro.sim.address import Ipv4Address, MacAddress
from repro.sim.packet import (
    EthernetHeader,
    Ipv4Header,
    Packet,
    PROTO_TCP,
    Provenance,
    TcpFlags,
    TcpHeader,
)
from repro.sim.tracing import PacketRecord


def make_packet(flags=TcpFlags.SYN, malicious=False, attack=None):
    return Packet(
        eth=EthernetHeader(MacAddress(1), MacAddress(2)),
        ip=Ipv4Header(
            src=Ipv4Address.parse("10.0.0.1"),
            dst=Ipv4Address.parse("10.0.0.2"),
            protocol=PROTO_TCP,
        ),
        tcp=TcpHeader(src_port=1000, dst_port=80, seq=5, flags=flags),
        payload=b"data",
        provenance=Provenance("x", malicious, attack),
    )


class TestPacketRecord:
    def test_from_packet_extracts_fields(self):
        record = PacketRecord.from_packet(make_packet(), 1.5)
        assert record.timestamp == 1.5
        assert record.src_port == 1000
        assert record.dst_port == 80
        assert record.is_tcp and not record.is_udp
        assert record.is_syn
        assert record.label == 0

    def test_malicious_label_from_provenance(self):
        record = PacketRecord.from_packet(
            make_packet(malicious=True, attack="udp"), 0.0
        )
        assert record.label == 1
        assert record.attack == "udp"

    def test_syn_ack_is_not_pure_syn(self):
        record = PacketRecord.from_packet(
            make_packet(flags=TcpFlags.SYN | TcpFlags.ACK), 0.0
        )
        assert not record.is_syn
        assert record.is_ack

    def test_flow_key_five_tuple(self):
        record = PacketRecord.from_packet(make_packet(), 0.0)
        src = Ipv4Address.parse("10.0.0.1").value
        dst = Ipv4Address.parse("10.0.0.2").value
        assert record.flow_key == (src, 1000, dst, 80, PROTO_TCP)

    def test_packet_without_ip_rejected(self):
        with pytest.raises(ValueError):
            PacketRecord.from_packet(Packet(payload=b"raw"), 0.0)


class TestProbe:
    def test_keep_records_false_still_counts(self):
        probe = PacketProbe(keep_records=False)
        probe(make_packet(), 1.0)
        assert probe.count == 1
        assert probe.records == []

    def test_non_ip_frames_ignored(self):
        probe = PacketProbe()
        probe(Packet(payload=b"junk"), 0.0)
        assert probe.count == 0


class TestPcap:
    def test_roundtrip_preserves_headers_and_timestamps(self, tmp_path):
        path = tmp_path / "trace.pcap"
        packets = [make_packet(flags=f) for f in (2, 18, 16)]
        with PcapWriter(path) as writer:
            for i, packet in enumerate(packets):
                writer.write(packet, 10.0 + i * 0.125)
        readback = list(PcapReader(path))
        assert len(readback) == 3
        for i, (ts, packet) in enumerate(readback):
            assert ts == pytest.approx(10.0 + i * 0.125, abs=1e-9)
            assert packet.tcp == packets[i].tcp
            assert packet.ip.src == packets[i].ip.src

    def test_global_header_is_valid_libpcap(self, tmp_path):
        path = tmp_path / "t.pcap"
        PcapWriter(path).close()
        header = path.read_bytes()
        magic, major, minor = struct.unpack("<IHH", header[:8])
        assert magic == 0xA1B2C3D2
        assert (major, minor) == (2, 4)
        (linktype,) = struct.unpack("<I", header[20:24])
        assert linktype == 1  # Ethernet

    def test_reader_rejects_non_pcap(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(ValueError):
            list(PcapReader(path))

    def test_reader_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError):
            list(PcapReader(path))

    def test_context_manager_closes_on_error(self, tmp_path):
        path = tmp_path / "crash.pcap"
        with pytest.raises(RuntimeError):
            with PcapWriter(path) as writer:
                writer.write(make_packet(), 1.0)
                raise RuntimeError("experiment died mid-capture")
        assert writer.closed
        # Everything written before the crash is readable.
        assert len(list(PcapReader(path))) == 1

    def test_close_is_idempotent_and_blocks_writes(self, tmp_path):
        writer = PcapWriter(tmp_path / "t.pcap")
        writer.write(make_packet(), 0.5)
        writer.close()
        writer.close()
        assert writer.closed
        with pytest.raises(ValueError, match="closed"):
            writer.write(make_packet(), 1.0)

    def test_flush_makes_partial_capture_readable(self, tmp_path):
        path = tmp_path / "partial.pcap"
        writer = PcapWriter(path)
        writer.write(make_packet(), 1.0)
        writer.write(make_packet(), 2.0)
        writer.flush()
        # Read while the writer is still open — a monitoring tool's view.
        assert [ts for ts, _ in PcapReader(path)] == pytest.approx([1.0, 2.0])
        writer.close()
        writer.flush()  # no-op after close

    def test_reader_drops_truncated_trailing_record(self, tmp_path):
        path = tmp_path / "torn.pcap"
        with PcapWriter(path) as writer:
            writer.write(make_packet(), 1.0)
            writer.write(make_packet(), 2.0)
        # Simulate a crash torn mid-record: cut the last record's data short.
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        frames = list(PcapReader(path))
        assert [ts for ts, _ in frames] == pytest.approx([1.0])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
    def test_property_timestamps_roundtrip(self, timestamps):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ts.pcap"
            with PcapWriter(path) as writer:
                for ts in timestamps:
                    writer.write(make_packet(), ts)
            readback = [ts for ts, _ in PcapReader(path)]
        for original, recovered in zip(timestamps, readback):
            assert recovered == pytest.approx(original, abs=1e-6)


class TestLiveCapture:
    def test_probe_with_pcap_during_simulation(self, tmp_path):
        sim = Simulator()
        lan = CsmaLan(sim)
        a, b = lan.add_host("a"), lan.add_host("b")
        writer = PcapWriter(tmp_path / "live.pcap")
        probe = lan.add_probe(PacketProbe(pcap=writer))
        b.tcp.listen(80, lambda s: None)
        sock = a.tcp.socket()
        sock.connect(b.address, 80, lambda s: s.send(b"payload"))
        sim.run(until=2.0)
        writer.close()
        frames = list(PcapReader(tmp_path / "live.pcap"))
        assert len(frames) == probe.count
        assert any(f.payload == b"payload" for _, f in frames)
