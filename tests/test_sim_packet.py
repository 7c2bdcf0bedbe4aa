"""Tests for packet and header wire-format serialization."""

import inspect

import pytest
from hypothesis import given, strategies as st

from repro.sim.address import Ipv4Address, MacAddress
from repro.sim.packet import (
    ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER_LEN,
    UDP_HEADER_LEN,
    EthernetHeader,
    Ipv4Header,
    Packet,
    Provenance,
    TcpFlags,
    TcpHeader,
    UdpHeader,
    _ipv4_checksum,
)

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")
IP_A = Ipv4Address.parse("10.0.0.1")
IP_B = Ipv4Address.parse("10.0.0.2")


def make_tcp_packet(payload=b"hi", flags=TcpFlags.ACK):
    return Packet(
        eth=EthernetHeader(src=MAC_A, dst=MAC_B),
        ip=Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_TCP),
        tcp=TcpHeader(src_port=1234, dst_port=80, seq=42, ack=7, flags=flags),
        payload=payload,
    )


class TestHeaderSizes:
    def test_tcp_packet_size_sums_headers(self):
        packet = make_tcp_packet(payload=b"x" * 10)
        expected = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + 10
        assert packet.size == expected

    def test_udp_packet_size(self):
        packet = Packet(
            ip=Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_UDP),
            udp=UdpHeader(src_port=1, dst_port=2),
            payload=b"abc",
        )
        assert packet.size == IPV4_HEADER_LEN + UDP_HEADER_LEN + 3

    def test_virtual_payload_length(self):
        packet = Packet(
            ip=Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_TCP),
            tcp=TcpHeader(src_port=1, dst_port=2),
            payload_len=1400,
        )
        assert packet.data_len == 1400
        assert packet.size == IPV4_HEADER_LEN + TCP_HEADER_LEN + 1400


class TestWireFormat:
    def test_ethernet_roundtrip(self):
        header = EthernetHeader(src=MAC_A, dst=MAC_B)
        assert EthernetHeader.from_bytes(header.to_bytes()) == header

    def test_ipv4_roundtrip(self):
        header = Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_TCP, ttl=33, identification=99)
        parsed = Ipv4Header.from_bytes(header.to_bytes(payload_len=100))
        assert parsed.src == IP_A
        assert parsed.dst == IP_B
        assert parsed.protocol == PROTO_TCP
        assert parsed.ttl == 33
        assert parsed.identification == 99
        assert parsed.total_length == IPV4_HEADER_LEN + 100

    def test_ipv4_checksum_validates(self):
        header = Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_TCP).to_bytes()
        # Recomputing the checksum over a valid header yields zero.
        assert _ipv4_checksum(header) == 0

    def test_tcp_roundtrip(self):
        header = TcpHeader(
            src_port=5000, dst_port=80, seq=2**31 + 5, ack=77,
            flags=TcpFlags.SYN | TcpFlags.ACK,
        )
        assert TcpHeader.from_bytes(header.to_bytes()) == header

    def test_udp_roundtrip(self):
        header = UdpHeader(src_port=53, dst_port=5353, length=20)
        assert UdpHeader.from_bytes(header.to_bytes()) == header

    def test_full_tcp_packet_roundtrip(self):
        packet = make_tcp_packet(payload=b"hello world")
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.eth == packet.eth
        assert parsed.tcp == packet.tcp
        assert parsed.payload == b"hello world"
        assert parsed.ip.src == IP_A

    def test_virtual_payload_padded_on_wire(self):
        packet = Packet(
            eth=EthernetHeader(src=MAC_A, dst=MAC_B),
            ip=Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_UDP),
            udp=UdpHeader(src_port=1, dst_port=2),
            payload=b"ab",
            payload_len=10,
        )
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.payload == b"ab" + b"\x00" * 8

    @given(
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
        seq=st.integers(0, 2**32 - 1),
        ack=st.integers(0, 2**32 - 1),
        flags=st.integers(0, 63),
    )
    def test_property_tcp_header_roundtrip(self, sport, dport, seq, ack, flags):
        header = TcpHeader(sport, dport, seq, ack, flags)
        assert TcpHeader.from_bytes(header.to_bytes()) == header

    @given(payload=st.binary(max_size=200))
    def test_property_packet_payload_roundtrip(self, payload):
        packet = make_tcp_packet(payload=payload)
        assert Packet.from_bytes(packet.to_bytes()).payload == payload


class TestProvenance:
    def test_default_is_benign(self):
        assert make_tcp_packet().provenance.malicious is False

    def test_provenance_not_on_wire(self):
        tainted = Packet(
            eth=EthernetHeader(src=MAC_A, dst=MAC_B),
            ip=Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_TCP),
            tcp=TcpHeader(src_port=1, dst_port=2),
            provenance=Provenance(origin="bot", malicious=True, attack="syn"),
        )
        clean = Packet.from_bytes(tainted.to_bytes())
        assert clean.provenance.malicious is False

    def test_with_eth_preserves_provenance(self):
        tainted = make_tcp_packet()
        tainted = Packet(
            ip=tainted.ip, tcp=tainted.tcp,
            provenance=Provenance("bot", True, "udp"),
        )
        framed = tainted.with_eth(EthernetHeader(src=MAC_A, dst=MAC_B))
        assert framed.provenance.attack == "udp"


class TestImmutability:
    @pytest.mark.parametrize(
        "value",
        [
            EthernetHeader(src=MAC_A, dst=MAC_B),
            Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_TCP),
            TcpHeader(src_port=1, dst_port=2),
            UdpHeader(src_port=1, dst_port=2),
            Provenance(origin="bot", malicious=True, attack="syn"),
            make_tcp_packet(),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_every_field_is_read_only(self, value):
        names = list(inspect.signature(type(value)).parameters)
        assert names
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
