"""Tests for the TCP state machine: handshake, data, loss, teardown, floods."""

import random

import pytest

from repro.sim import CsmaLan, PacketProbe, Simulator
from repro.sim.address import Ipv4Address
from repro.sim.packet import Provenance, TcpFlags, TcpHeader
from repro.sim.tcp import TcpState, _seq_le, _seq_lt
from repro.sim.tracing import PacketRecord, packet_fields


@pytest.fixture()
def net():
    sim = Simulator()
    lan = CsmaLan(sim, data_rate="100Mbps")
    return sim, lan


def connect(sim, lan, server, client, port=80, on_server_data=None):
    """Helper: establish a connection and return (server_socks, client_sock)."""
    server_socks = []

    def on_accept(sock):
        server_socks.append(sock)
        if on_server_data is not None:
            sock.on_data = on_server_data

    server.tcp.listen(port, on_accept)
    csock = client.tcp.socket()
    established = []
    csock.connect(server.address, port, lambda s: established.append(s))
    sim.run(until=2.0)
    assert established, "handshake did not complete"
    return server_socks, csock


class TestHandshake:
    def test_three_way_handshake(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        probe = lan.add_probe(PacketProbe())
        server_socks, csock = connect(sim, lan, server, client)
        assert csock.state is TcpState.ESTABLISHED
        assert server_socks[0].state is TcpState.ESTABLISHED
        flags = [r.tcp_flags for r in probe.records]
        assert flags[0] == int(TcpFlags.SYN)
        assert flags[1] == int(TcpFlags.SYN | TcpFlags.ACK)
        assert flags[2] == int(TcpFlags.ACK)

    def test_connect_to_closed_port_draws_rst(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        csock = client.tcp.socket()
        resets = []
        csock.on_reset = lambda s: resets.append(s)
        csock.connect(server.address, 9999)
        sim.run(until=2.0)
        assert resets
        assert csock.state is TcpState.CLOSED

    def test_connect_to_dead_host_times_out(self, net):
        sim, lan = net
        client = lan.add_host("c")
        lan.network.allocate()  # burn an address nobody owns
        csock = client.tcp.socket()
        resets = []
        csock.on_reset = lambda s: resets.append(s)
        csock.connect(Ipv4Address.parse("10.0.0.250"), 80)
        sim.run(until=120.0)
        assert resets
        assert csock.retransmissions > 0

    def test_double_connect_rejected(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        _, csock = connect(sim, lan, server, client)
        with pytest.raises(RuntimeError):
            csock.connect(server.address, 80)


class TestDataTransfer:
    def test_small_message_delivery(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        inbox = []
        connect(sim, lan, server, client,
                on_server_data=lambda s, p, n, a: inbox.append((p, n, a)))
        _, csock = inbox_client = None, None
        # reconnect with data
        csock = client.tcp.socket()
        csock.connect(server.address, 80, lambda s: s.send(b"GET /", app_data="req"))
        sim.run(until=4.0)
        assert (b"GET /", 5, "req") in inbox

    def test_bulk_transfer_segmented(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        total = []
        connect(sim, lan, server, client,
                on_server_data=lambda s, p, n, a: total.append(n))
        csock = client.tcp.socket()
        csock.connect(server.address, 80, lambda s: s.send(length=50_000))
        sim.run(until=10.0)
        assert sum(total) == 50_000
        assert max(total) <= 1400  # MSS

    def test_bidirectional_transfer(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        server_inbox, client_inbox = [], []

        def server_data(sock, payload, length, app_data):
            server_inbox.append(payload)
            sock.send(b"response:" + payload)

        connect(sim, lan, server, client, on_server_data=server_data)
        csock = client.tcp.socket()

        def on_est(sock):
            sock.on_data = lambda s, p, n, a: client_inbox.append(p)
            sock.send(b"query")

        csock.connect(server.address, 80, on_est)
        sim.run(until=4.0)
        assert server_inbox == [b"query"]
        assert client_inbox == [b"response:query"]

    def test_byte_counters(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        server_socks, _ = connect(sim, lan, server, client)
        csock = client.tcp.socket()
        csock.connect(server.address, 80, lambda s: s.send(length=10_000))
        sim.run(until=5.0)
        assert csock.bytes_sent == 10_000
        receiver = [s for s in server.tcp.sockets.values() if s.bytes_received][0]
        assert receiver.bytes_received == 10_000

    def test_send_before_established_rejected(self, net):
        sim, lan = net
        client = lan.add_host("c")
        with pytest.raises(RuntimeError):
            client.tcp.socket().send(b"x")


class TestLossRecovery:
    def test_retransmission_recovers_from_queue_drops(self):
        sim = Simulator()
        lan = CsmaLan(sim, data_rate="1Mbps")
        server = lan.add_host("s", queue_capacity=64)
        client = lan.add_host("c", queue_capacity=4)  # tiny TX queue -> drops
        received = []
        server.tcp.listen(80, lambda s: setattr(
            s, "on_data", lambda ss, p, n, a: received.append(n)))
        csock = client.tcp.socket()
        csock.connect(server.address, 80, lambda s: s.send(length=100_000))
        sim.run(until=120.0)
        assert sum(received) == 100_000
        assert csock.retransmissions > 0

    def test_no_duplicate_delivery_on_retransmit(self):
        sim = Simulator()
        lan = CsmaLan(sim, data_rate="1Mbps")
        server = lan.add_host("s")
        client = lan.add_host("c", queue_capacity=3)
        received = []
        server.tcp.listen(80, lambda s: setattr(
            s, "on_data", lambda ss, p, n, a: received.append(ss.bytes_received)))
        csock = client.tcp.socket()
        csock.connect(server.address, 80, lambda s: s.send(length=60_000))
        sim.run(until=120.0)
        # bytes_received strictly increases => no duplicate segment delivered
        assert received == sorted(set(received))
        assert received[-1] == 60_000


class TestRetransmissionTimer:
    """RTO backoff behaviour under injected total-loss windows."""

    def _arm_total_loss(self, sim, lan, duration):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec

        injector = FaultInjector(sim, lan.channel, seed=1)
        injector.schedule_plan(
            FaultPlan.of(
                FaultSpec(kind="loss", start=0.0, duration=duration, rate=1.0)
            )
        )
        return injector

    def test_rto_doubles_per_timeout_up_to_max(self, net):
        from repro.sim.tcp import RTO_INITIAL, RTO_MAX

        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        _, csock = connect(sim, lan, server, client)
        assert csock._rto == RTO_INITIAL
        self._arm_total_loss(sim, lan, duration=60.0)
        csock.send(b"x")
        # Timeouts land at +1, +2, +4, +8 seconds: four doublings capped
        # at RTO_MAX, with the retry budget (5) not yet exhausted.
        sim.run(until=sim.now + 20.0)
        assert csock._rto == RTO_MAX
        assert csock.retransmissions >= 3
        assert csock.state is TcpState.ESTABLISHED

    def test_retry_budget_exhaustion_tears_down(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        resets = []
        _, csock = connect(sim, lan, server, client)
        csock.on_reset = lambda s: resets.append(s)
        self._arm_total_loss(sim, lan, duration=120.0)
        csock.send(b"x")
        sim.run(until=sim.now + 60.0)
        assert csock.state is TcpState.CLOSED
        assert resets

    def test_connection_survives_loss_window_and_resets_rto(self, net):
        from repro.sim.tcp import RTO_INITIAL

        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        received = []
        _, csock = connect(
            sim, lan, server, client,
            on_server_data=lambda s, p, n, a: received.append(n),
        )
        # A 6-second blackout is shorter than the ~31s retry budget: the
        # transfer must stall, retransmit through, and complete.
        self._arm_total_loss(sim, lan, duration=6.0)
        csock.send(length=5_000)
        sim.run(until=sim.now + 30.0)
        assert sum(received) == 5_000
        assert csock.retransmissions > 0
        assert csock.state is TcpState.ESTABLISHED
        # A successful ACK resets the backoff to the initial RTO.
        assert csock._rto == RTO_INITIAL


class TestTeardown:
    def test_fin_close_both_sides(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        closed = []

        def on_accept(sock):
            sock.on_close = lambda s: (closed.append("server"), s.close())

        server.tcp.listen(80, on_accept)
        csock = client.tcp.socket()
        csock.on_close = lambda s: closed.append("client")
        csock.connect(server.address, 80, lambda s: s.send(b"bye"))
        sim.schedule(1.0, csock.close)
        sim.run(until=60.0)
        assert "server" in closed
        assert csock.state in (TcpState.TIME_WAIT, TcpState.CLOSED)

    def test_abort_sends_rst(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        server_socks, csock = connect(sim, lan, server, client)
        resets = []
        server_socks[0].on_reset = lambda s: resets.append(1)
        csock.abort()
        sim.run(until=4.0)
        assert resets
        assert csock.state is TcpState.CLOSED

    def test_close_flushes_pending_data_first(self, net):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        received = []
        connect(sim, lan, server, client,
                on_server_data=lambda s, p, n, a: received.append(n))
        csock = client.tcp.socket()

        def on_est(sock):
            sock.send(length=20_000)
            sock.close()

        csock.connect(server.address, 80, on_est)
        sim.run(until=30.0)
        assert sum(received) == 20_000


class TestSynFlood:
    def flood(self, sim, attacker, victim, count, spoof=True):
        rng = random.Random(7)
        for i in range(count):
            src = (
                Ipv4Address.parse(f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}")
                if spoof
                else None
            )
            sim.schedule(
                i * 0.0005,
                attacker.tcp.send_segment,
                rng.randrange(1024, 65535),
                victim.address,
                80,
                rng.randrange(2**32),
                0,
                TcpFlags.SYN,
                b"",
                None,
                None,
                Provenance("bot", True, "syn"),
                src,
            )

    def test_backlog_exhaustion_blocks_legit_clients(self, net):
        sim, lan = net
        victim, attacker, legit = lan.add_host("v"), lan.add_host("a"), lan.add_host("l")
        listener = victim.tcp.listen(80, lambda s: None, backlog=16)
        self.flood(sim, attacker, victim, 300)
        ok = []
        legit_sock = legit.tcp.socket()
        sim.schedule(0.05, legit_sock.connect, victim.address, 80, lambda s: ok.append(1))
        sim.run(until=1.0)
        assert len(listener.half_open) == 16
        assert listener.syn_dropped > 200
        assert not ok

    def test_backlog_recovers_after_timeout(self, net):
        sim, lan = net
        victim, attacker = lan.add_host("v"), lan.add_host("a")
        listener = victim.tcp.listen(80, lambda s: None, backlog=8)
        self.flood(sim, attacker, victim, 50)
        sim.run(until=30.0)
        assert len(listener.half_open) == 0

    def test_ack_flood_draws_rsts(self, net):
        sim, lan = net
        victim, attacker = lan.add_host("v"), lan.add_host("a")
        victim.tcp.listen(80, lambda s: None)
        rng = random.Random(3)
        for i in range(50):
            sim.schedule(
                i * 0.001,
                attacker.tcp.send_segment,
                rng.randrange(1024, 65535),
                victim.address,
                80,
                rng.randrange(2**32),
                rng.randrange(2**32),
                TcpFlags.ACK,
            )
        sim.run(until=1.0)
        assert victim.tcp.rst_sent == 50

    def test_duplicate_port_listen_rejected(self, net):
        sim, lan = net
        victim = lan.add_host("v")
        victim.tcp.listen(80, lambda s: None)
        with pytest.raises(RuntimeError):
            victim.tcp.listen(80, lambda s: None)


class TestSequenceArithmetic:
    def test_lt_simple(self):
        assert _seq_lt(1, 2)
        assert not _seq_lt(2, 1)

    def test_lt_wraparound(self):
        assert _seq_lt(0xFFFFFFF0, 5)
        assert not _seq_lt(5, 0xFFFFFFF0)

    def test_le(self):
        assert _seq_le(7, 7)
        assert _seq_le(6, 7)
        assert not _seq_le(8, 7)


#: Index of the TCP flags field in a capture row.
FLAGS_FIELD = PacketRecord._fields.index("tcp_flags")


class FlagTypeTap:
    """A probe noting the type and value of every TCP flags field it sees."""

    def __init__(self):
        self.types = set()
        self.values = set()

    def __call__(self, frame, timestamp):
        if frame.tcp is not None:
            self.note(frame.tcp.flags)
            self.note(packet_fields(frame, timestamp)[FLAGS_FIELD])

    def note(self, value):
        self.types.add(type(value))
        self.values.add(value)


class TestWireFlagsArePlainInts:
    """TCP flags travel as plain ``int`` on every path, so the per-frame
    flag tests stay C-level ``int &``: tens of nanoseconds, where an
    ``enum.IntFlag`` ``&`` takes over a microsecond."""

    # The id names the data plane, on which every segment leaves the
    # stack as one packet.
    @pytest.mark.parametrize("plane", ["scalar"])
    def test_stack_puts_int_flags_on_the_wire(self, net, plane):
        sim, lan = net
        server, client = lan.add_host("s"), lan.add_host("c")
        tap = lan.add_probe(FlagTypeTap())

        def on_accept(sock):
            sock.on_close = lambda s: s.close()

        server.tcp.listen(80, on_accept)
        csock = client.tcp.socket()
        csock.connect(server.address, 80, lambda s: (s.send(length=20_000), s.close()))
        stray = client.tcp.socket()
        stray.connect(server.address, 9999)  # closed port: draws RST|ACK
        sim.run(until=30.0)
        assert tap.types == {int}
        SYN, ACK, FIN, RST, PSH = (
            TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.RST, TcpFlags.PSH
        )
        assert {SYN, SYN | ACK, ACK, ACK | PSH, FIN | ACK, RST | ACK} <= tap.values

    def test_parsed_flags_are_ints(self):
        header = TcpHeader.from_bytes(TcpHeader(1, 2, flags=TcpFlags.SYN).to_bytes())
        assert type(header.flags) is int
        assert type(TcpHeader(1, 2).flags) is int
