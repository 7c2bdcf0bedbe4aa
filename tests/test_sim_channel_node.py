"""Tests for CSMA channel arbitration, delivery, and node routing."""

import pytest

from repro.sim import CsmaLan, PacketProbe, Simulator
from repro.sim.address import Ipv4Address, MacAllocator
from repro.sim.channel import CsmaChannel, CsmaNetDevice
from repro.sim.node import NetworkError
from repro.sim.packet import PROTO_UDP, Packet


@pytest.fixture()
def lan():
    sim = Simulator()
    return sim, CsmaLan(sim, data_rate="10Mbps", delay="10us")


def test_udp_datagram_delivered(lan):
    sim, net = lan
    a = net.add_host("a")
    b = net.add_host("b")
    inbox = []
    sock_b = b.udp.bind(5000)
    sock_b.on_receive = lambda s, p, n, src, sport: inbox.append((p, src, sport))
    sock_a = a.udp.bind(6000)
    sock_a.send_to(b.address, 5000, b"hello")
    sim.run(until=1.0)
    assert inbox == [(b"hello", a.address, 6000)]


def test_transmission_delay_matches_rate(lan):
    sim, net = lan
    a = net.add_host("a")
    b = net.add_host("b")
    arrival = []
    sock_b = b.udp.bind(5000)
    sock_b.on_receive = lambda *args: arrival.append(sim.now)
    sock_a = a.udp.bind(0)
    sock_a.send_to(b.address, 5000, length=1000)
    sim.run(until=1.0)
    # 1000B payload + 8 UDP + 20 IP + 14 Eth = 1042B at 10 Mbps, + 10us prop.
    expected = 1042 * 8 / 10e6 + 10e-6
    assert arrival[0] == pytest.approx(expected, rel=1e-9)


def test_channel_serializes_concurrent_senders(lan):
    sim, net = lan
    a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
    arrivals = []
    sock = c.udp.bind(7000)
    sock.on_receive = lambda *args: arrivals.append(sim.now)
    a.udp.bind(0).send_to(c.address, 7000, length=1000)
    b.udp.bind(0).send_to(c.address, 7000, length=1000)
    sim.run(until=1.0)
    assert len(arrivals) == 2
    # Second frame cannot start until the first finishes serializing.
    assert arrivals[1] - arrivals[0] >= 1042 * 8 / 10e6 - 1e-12


def test_probe_sees_every_frame_once(lan):
    sim, net = lan
    a = net.add_host("a")
    b = net.add_host("b")
    probe = net.add_probe(PacketProbe())
    b.udp.bind(5000)
    sock = a.udp.bind(0)
    for _ in range(5):
        sock.send_to(b.address, 5000, b"x")
    sim.run(until=1.0)
    assert probe.count == 5


def test_queue_overflow_drops_frames():
    sim = Simulator()
    net = CsmaLan(sim, data_rate="1Mbps")
    a = net.add_host("a", queue_capacity=4)
    b = net.add_host("b")
    b.udp.bind(5000)
    received = []
    b.udp.sockets[5000].on_receive = lambda *args: received.append(1)
    sock = a.udp.bind(0)
    sent_ok = sum(1 for _ in range(50) if sock.send_to(b.address, 5000, length=1000))
    sim.run(until=5.0)
    device = a.interfaces[0].device
    assert device.queue.dropped > 0
    assert sent_ok < 50
    assert len(received) == sent_ok


def test_unroutable_destination_counted(lan):
    sim, net = lan
    a = net.add_host("a")
    sock = a.udp.bind(0)
    assert not sock.send_to(Ipv4Address.parse("192.168.99.1"), 1, b"x")
    assert a.packets_unroutable == 1


def test_send_to_dead_address_still_occupies_wire(lan):
    """Scans of unused addresses must be observable by the IDS tap."""
    sim, net = lan
    a = net.add_host("a")
    probe = net.add_probe(PacketProbe())
    sock = a.udp.bind(0)
    dead = Ipv4Address.parse("10.0.0.200")  # in-subnet, unassigned
    sock.send_to(dead, 23, b"probe")
    sim.run(until=1.0)
    assert probe.count == 1
    assert probe.records[0].dst_ip == dead.value


def test_node_without_interfaces_raises():
    sim = Simulator()
    from repro.sim.node import Node

    with pytest.raises(NetworkError):
        Node(sim, "bare").address


def test_remove_host_stops_delivery(lan):
    sim, net = lan
    a = net.add_host("a")
    b = net.add_host("b")
    inbox = []
    sock_b = b.udp.bind(5000)
    sock_b.on_receive = lambda *args: inbox.append(1)
    net.remove_host(b)
    a.udp.bind(0).send_to(b.address, 5000, b"x")
    sim.run(until=1.0)
    assert inbox == []


def test_broadcast_reaches_all_other_hosts(lan):
    sim, net = lan
    a = net.add_host("a")
    listeners = []
    for i in range(3):
        h = net.add_host(f"h{i}")
        sock = h.udp.bind(9000)
        sock.on_receive = lambda s, p, n, src, sp, i=i: listeners.append(i)
    a.udp.bind(0).send_to(net.network.broadcast, 9000, b"hello-all")
    sim.run(until=1.0)
    assert sorted(listeners) == [0, 1, 2]


def test_record_fields_match_packet(lan):
    sim, net = lan
    a = net.add_host("a")
    b = net.add_host("b")
    probe = net.add_probe(PacketProbe())
    b.udp.bind(5353)
    a.udp.bind(1111).send_to(b.address, 5353, b"dns?")
    sim.run(until=1.0)
    record = probe.records[0]
    assert record.protocol == PROTO_UDP
    assert record.src_port == 1111
    assert record.dst_port == 5353
    assert record.src_ip == a.address.value
    assert record.dst_ip == b.address.value
    assert record.label == 0


def test_channel_fifo_survives_detach_and_reattach_of_a_waiting_device():
    """Devices queue on a busy medium; one leaves while it waits and comes
    back.  The others keep FIFO order, the returning device's next frame is
    served, and every frame is accounted for."""
    sim = Simulator()
    channel = CsmaChannel(sim, data_rate="10Mbps", delay="10us")
    macs = MacAllocator()
    a, b, c, d, sink = (CsmaNetDevice(channel, macs.allocate()) for _ in range(5))
    delivered = []
    sink.add_rx_callback(lambda frame: delivered.append(frame.payload))

    def send(device, tag):
        assert device.send(Packet(payload=tag, payload_len=500), sink.mac)

    send(a, b"a0")  # takes the idle medium
    send(a, b"a1")  # the rest wait: a, b, c, d in FIFO order
    send(b, b"b0")
    send(b, b"b1")
    send(c, b"c0")
    send(d, b"d0")
    assert list(channel._waiting) == [a, b, c, d]

    def churn():
        b.detach()  # flushes b0 and b1
        channel.attach(b)
        send(b, b"b2")
        assert list(channel._waiting) == [a, c, d, b]

    sim.schedule(channel.transmission_time(100), churn)  # a0 still on the wire
    sim.run(until=1.0)

    assert delivered == [b"a0", b"a1", b"c0", b"d0", b"b2"]
    assert not channel._waiting
    assert not any(device.waiting for device in (a, b, c, d, sink))
    for device in (a, b, c, d, sink):
        assert device.queue.conservation_error() is None
    assert (b.queue.enqueued, b.queue.dequeued, b.queue.flushed) == (3, 1, 2)
    assert channel.frames_dequeued == sum(
        device.queue.dequeued for device in (a, b, c, d, sink)
    )
    assert channel.frames_dequeued == channel.frames_delivered == 5
