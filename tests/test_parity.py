"""Tests for the dual-path parity checker (``ddoshield check-parity``).

Three layers pin the batch/scalar contract:

* **static** — the BAT/ORD002 rules fire at exactly the expected
  fixture lines, pair discovery covers the real dual-path surface, and
  the committed tree has zero unbaselined findings;
* **structural** — every discovered packet-train ``*_batch`` method is
  a no-op on an empty :class:`~repro.sim.packet.PacketBatch`;
* **behavioural** — hypothesis drives random trains through
  ``receive_batch``-style methods and asserts they leave components in
  exactly the state a fold of scalar calls would.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import (
    Baseline,
    check_parity_paths,
    diff_findings,
    format_text,
)
from repro.analysis.effects import collect_class_effects
from repro.analysis.parity import (
    DEFAULT_PARITY_PATHS,
    _batch_param,
    discover_pairs,
)
from repro.analysis.walker import build_context, iter_python_files, run_rules
from repro.analysis.rules import iter_rules
from repro.cli import main
from repro.ids.defense import UpstreamFilter
from repro.sim import CsmaLan, PacketProbe, Simulator
from repro.sim.address import BROADCAST_MAC, Ipv4Address
from repro.sim.packet import PacketBatch, TcpFlags
from repro.sim.queue import DropTailQueue
from repro.sim.tcp import TcpSocket, TcpState
from repro.testbed.impact import _FrameTap, VictimMonitor

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def check_fixture(name: str):
    ctx = build_context(
        (FIXTURES / name).read_text(), path=f"tests/lint_fixtures/{name}"
    )
    rules = [r for r in iter_rules(category="parity") if r.rule_id != "BAT003"]
    return run_rules(ctx, rules)


def hits(findings) -> set[tuple[str, int]]:
    return {(f.rule_id, f.line) for f in findings}


# ----------------------------------------------------------------------
# Rule fixtures


class TestParityRuleFixtures:
    def test_bat001_bat002_bat004_fire_on_drifting_twins(self):
        findings, _ = check_fixture("parity_drift.py")
        assert hits(findings) == {
            ("BAT001", 21),  # receive_batch drops the self.dropped update
            ("BAT004", 21),  # ... and mutates state with no empty guard
            ("BAT002", 40),  # observe_batch loops the scalar twin
        }
        divergence = next(f for f in findings if f.rule_id == "BAT001")
        assert divergence.severity == "error"
        assert "dropped" in divergence.message

    def test_ord002_fires_on_racing_handlers_only(self):
        findings, _ = check_fixture("ord002_race.py")
        assert hits(findings) == {("ORD002", 20), ("ORD002", 24)}
        # The commutative counter-only handler stays quiet.
        assert all("_bump" not in f.message for f in findings)
        assert all("last_winner" in f.message for f in findings)

    def test_lint_ok_comment_suppresses_parity_rules(self):
        source = (FIXTURES / "parity_drift.py").read_text()
        source = source.replace(
            "def receive_batch(self, batch, times) -> None:",
            "def receive_batch(self, batch, times) -> None:  # repro: lint-ok[BAT001,BAT004]",
        )
        ctx = build_context(source, path="tests/lint_fixtures/parity_drift.py")
        rules = [r for r in iter_rules(category="parity") if r.rule_id != "BAT003"]
        findings, suppressed = run_rules(ctx, rules)
        assert suppressed == 2
        assert {f.rule_id for f in findings} == {"BAT002"}


# ----------------------------------------------------------------------
# Pair discovery


def _discovered_train_methods() -> set[tuple[str, str, str]]:
    """(class, scalar, batch) triples for packet-train batch methods."""
    triples = set()
    for file in iter_python_files(list(DEFAULT_PARITY_PATHS), REPO_ROOT):
        ctx = build_context(file.read_text(encoding="utf-8"), path=str(file))
        for info in collect_class_effects(ctx.tree):
            for scalar, batch in discover_pairs(info):
                if _batch_param(info.methods[batch]) is not None:
                    triples.add((info.name, scalar, batch))
    return triples


#: The dual-path surface this suite must keep covered.  Growing the set
#: is expected (add the twin here + an empty-batch case below); silently
#: shrinking or renaming it is what this pin catches.
EXPECTED_TRAIN_METHODS = {
    ("CsmaNetDevice", "receive", "receive_batch"),
    ("CsmaNetDevice", "send", "send_batch"),
    ("Node", "receive", "receive_batch"),
    ("Node", "_forward", "_forward_batch"),
    ("Node", "send_ipv4", "send_ipv4_batch"),
    ("DropTailQueue", "enqueue", "enqueue_batch"),
    ("TcpStack", "receive", "receive_batch"),
    ("TcpStack", "send_segment", "send_segment_batch"),
    ("TcpSocket", "handle", "handle_batch"),
    ("PacketProbe", "__call__", "observe_batch"),
    ("UdpSocket", "handle", "handle_batch"),
    ("UdpSocket", "send_to", "send_to_batch"),
    ("UdpStack", "receive", "receive_batch"),
    ("UdpStack", "send_datagram", "send_datagram_batch"),
    ("UpstreamFilter", "should_drop", "should_drop_batch"),
    ("_LiveTapRx", "__call__", "observe_batch"),
    ("_FrameTap", "__call__", "observe_batch"),
    ("RealTimeIds", "__call__", "observe_batch"),
}


class TestPairDiscovery:
    def test_discovery_covers_the_dual_path_surface(self):
        assert _discovered_train_methods() == EXPECTED_TRAIN_METHODS


# ----------------------------------------------------------------------
# Clean tree + CLI


class TestTreeParity:
    def test_tree_has_no_unbaselined_parity_findings(self):
        """Acceptance: ``ddoshield check-parity`` is green on the tree."""
        findings, suppressed, files = check_parity_paths(root=REPO_ROOT)
        baseline = Baseline.load(REPO_ROOT / "analysis" / "parity_baseline.json")
        report = diff_findings(
            findings, baseline, suppressed=suppressed, files_checked=files
        )
        assert report.ok, format_text(report)
        assert files > 25  # sanity: the walk covered the dual-path subtrees
        assert not report.stale_fingerprints, (
            "parity baseline has stale entries; refresh with "
            "`ddoshield check-parity --update-baseline`"
        )

    def test_every_baseline_entry_is_justified(self):
        payload = json.loads(
            (REPO_ROOT / "analysis" / "parity_baseline.json").read_text()
        )
        for entry in payload["findings"]:
            assert entry["justification"].strip(), entry


class TestCheckParityCli:
    def test_cli_green_against_committed_baseline(self, capsys):
        rc = main(["check-parity", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 new finding(s)" in out

    def test_cli_fails_on_counter_drift_fixture(self, capsys):
        """Acceptance: a batch twin dropping a scalar counter update is a
        nonzero exit naming the rule and location."""
        rc = main([
            "check-parity", "--root", str(REPO_ROOT),
            "tests/lint_fixtures/parity_drift.py", "--no-baseline",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "BAT001" in out
        assert "tests/lint_fixtures/parity_drift.py:21" in out

    def test_cli_fails_on_unparseable_file(self, capsys):
        rc = main([
            "check-parity", "--root", str(REPO_ROOT),
            "tests/lint_fixtures/unparseable.py", "--no-baseline",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PARSE001" in out


# ----------------------------------------------------------------------
# Empty-batch no-op property


def _empty_tcp(**overrides):
    kwargs = dict(
        src_ip=0x0A000001, dst_ip=0x0A000002,
        src_port=1000, dst_port=80, flags=TcpFlags.SYN,
    )
    kwargs.update(overrides)
    return PacketBatch.tcp_batch(0, **kwargs)


def _empty_udp():
    return PacketBatch.udp_batch(
        0, src_ip=0x0A000001, dst_ip=0x0A000002, src_port=1000, dst_port=53
    )


class TestEmptyBatchIsNoOp:
    """``len(batch) == 0`` must be a structural no-op for every
    discovered packet-train batch method (the BAT004 contract)."""

    def test_every_discovered_method_has_an_empty_batch_case(self):
        covered = {
            ("CsmaNetDevice", "receive_batch"),
            ("CsmaNetDevice", "send_batch"),
            ("Node", "receive_batch"),
            ("Node", "_forward_batch"),
            ("Node", "send_ipv4_batch"),
            ("DropTailQueue", "enqueue_batch"),
            ("TcpStack", "receive_batch"),
            ("TcpStack", "send_segment_batch"),
            ("TcpSocket", "handle_batch"),
            ("PacketProbe", "observe_batch"),
            ("UdpSocket", "handle_batch"),
            ("UdpSocket", "send_to_batch"),
            ("UdpStack", "receive_batch"),
            ("UdpStack", "send_datagram_batch"),
            ("UpstreamFilter", "should_drop_batch"),
            ("_LiveTapRx", "observe_batch"),
            ("_FrameTap", "observe_batch"),
            ("RealTimeIds", "observe_batch"),
        }
        discovered = {(c, b) for c, _, b in _discovered_train_methods()}
        assert discovered == covered

    def test_network_stack_methods_ignore_empty_trains(self):
        sim = Simulator()
        lan = CsmaLan(sim)
        host = lan.add_host("tserver")
        peer = lan.add_host("dev-0")
        probe = lan.add_probe(PacketProbe())
        host.tcp.listen(80, on_accept=lambda sock: None)
        device = host.interfaces[0].device
        times = np.zeros(0, dtype=np.float64)
        empty = _empty_tcp()
        framed = empty.with_macs(device.mac, device.mac)

        before = sim.state_hash()
        device.receive_batch(framed, times)
        assert device.send_batch(empty, BROADCAST_MAC) == 0
        host.receive_batch(framed, device)
        host._forward_batch(empty)
        assert host.send_ipv4_batch(empty) == 0
        host.tcp.receive_batch(empty)
        assert host.tcp.send_segment_batch(empty) == 0
        probe.observe_batch(empty, times)
        host.udp.receive_batch(_empty_udp())
        assert host.udp.send_datagram_batch(_empty_udp()) == 0
        from repro.sim.tcp import TcpSocket

        tsock = TcpSocket(host.tcp, local_port=2000)
        tsock.handle_batch(empty)
        assert tsock.bytes_received == 0 and tsock.rcv_nxt == 0
        usock = host.udp.bind(5353)
        usock.handle_batch(_empty_udp())
        assert usock.send_to_batch(_empty_udp()) == 0
        assert usock.datagrams_sent == 0 and usock.datagrams_received == 0
        usock.close()
        assert sim.state_hash() == before
        assert device.rx_count == 0 and device.tx_count == 0
        assert host.packets_received == 0 and peer.packets_received == 0
        assert probe.count == 0 and probe.records == []
        assert host.udp.unreachable == 0

    def test_queue_filter_and_taps_ignore_empty_trains(self):
        queue = DropTailQueue(capacity=4)
        assert queue.enqueue_batch(_empty_tcp()) == 0
        assert (len(queue), queue.enqueued, queue.dropped) == (0, 0, 0)

        upstream = UpstreamFilter(victim_ip=0x0A000002)
        upstream.block(0x0A000001, until=100.0)
        assert upstream.should_drop_batch(_empty_tcp(), None, now=0.0) is None
        assert upstream.dropped == 0 and upstream.active_blocks == 1

        monitor = VictimMonitor()
        tap = _FrameTap(monitor)
        tap.observe_batch(_empty_tcp(), np.zeros(0))
        assert monitor._rx_bytes_total == 0.0

        from repro.ids import RealTimeIds
        from repro.testbed.builder import _LiveTapRx

        ids = RealTimeIds(model=None, model_name="m")
        live = _LiveTapRx(ids, Simulator())
        live.observe_batch(_empty_tcp(), np.zeros(0))
        ids.observe_batch(_empty_udp(), np.zeros(0))
        assert ids.finish().n_windows == 0


# ----------------------------------------------------------------------
# Fold equivalence: a train through *_batch == n scalar calls


def _syn_train(rows):
    src_ip = [0x0A000100 + s for s, _, _ in rows]
    return PacketBatch.tcp_batch(
        len(rows),
        src_ip=src_ip,
        dst_ip=0x0A000002,
        src_port=[p for _, p, _ in rows],
        dst_port=80,
        seq=[q for _, _, q in rows],
        flags=TcpFlags.SYN,
    )


def _listener(backlog=8, cookies=False):
    sim = Simulator()
    lan = CsmaLan(sim)
    host = lan.add_host("tserver")
    host.tcp.seed(99)
    listener = host.tcp.listen(80, on_accept=lambda sock: None, backlog=backlog)
    listener.syn_cookies_enabled = cookies
    return sim, host, listener


syn_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # source host (collisions!)
        st.integers(min_value=1000, max_value=1004),  # source port
        st.integers(min_value=0, max_value=2**31),  # ISN
    ),
    min_size=1,
    max_size=30,
)


class TestFoldEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(rows=syn_rows, cookies=st.booleans())
    def test_tcp_listener_syn_train_equals_scalar_fold(self, rows, cookies):
        """handle_syn_batch == n handle_syn calls: same backlog entries in
        the same order, same ISN draws, same drop/cookie counters."""
        batch = _syn_train(rows)
        _, _, scalar = _listener(cookies=cookies)
        for packet in batch.packets():
            scalar.handle_syn(packet)
        _, _, batched = _listener(cookies=cookies)
        batched.handle_syn_batch(batch.src_ip, batch.src_port, batch.seq)
        assert list(batched.half_open) == list(scalar.half_open)
        assert batched._isns == scalar._isns
        assert batched.syn_dropped == scalar.syn_dropped
        assert batched.syn_cookies_sent == scalar.syn_cookies_sent

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # dst port selector
                st.integers(min_value=40, max_value=200),  # payload length
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_udp_stack_train_equals_scalar_fold(self, rows):
        """receive_batch == n receive calls: same per-socket delivery
        order, same unreachable count."""
        ports = [53, 9000]  # bound; selectors 2-4 hit closed ports

        def build():
            host = CsmaLan(Simulator()).add_host("tserver")
            log = []
            for port in ports:
                sock = host.udp.bind(port)
                sock.on_receive = (
                    lambda sock, payload, length, src, sport, _p=port: log.append(
                        (_p, length, sport)
                    )
                )
            return host.udp, log

        batch = PacketBatch.udp_batch(
            len(rows),
            src_ip=0x0A000001,
            dst_ip=0x0A000002,
            src_port=2000,
            dst_port=[ports[s] if s < len(ports) else 7000 + s for s, _ in rows],
            payload_len=[ln for _, ln in rows],
        )
        scalar_udp, scalar_log = build()
        for packet in batch.packets():
            scalar_udp.receive(packet)
        batch_udp, batch_log = build()
        batch_udp.receive_batch(batch)
        assert batch_log == scalar_log
        assert batch_udp.unreachable == scalar_udp.unreachable

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # source host
                st.booleans(),  # aimed at the victim?
            ),
            min_size=1,
            max_size=30,
        ),
        now=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_upstream_filter_train_equals_scalar_fold(self, rows, now):
        """should_drop_batch == n should_drop calls: same verdict per
        frame, same lazy expiries, same final blocklist."""
        victim = 0x0A000002

        def build():
            f = UpstreamFilter(victim_ip=victim)
            f.block(0x0A000100, until=10.0)  # may expire depending on now
            f.block(0x0A000102, until=100.0)  # always live
            expired = []
            f.on_expire = lambda src, until: expired.append(src)
            return f, expired

        batch = PacketBatch.tcp_batch(
            len(rows),
            src_ip=[0x0A000100 + s for s, _ in rows],
            dst_ip=[victim if hit else victim + 1 for _, hit in rows],
            src_port=3000,
            dst_port=80,
            flags=TcpFlags.SYN,
        )
        scalar_f, scalar_expired = build()
        scalar_mask = [
            scalar_f.should_drop(packet, None, now) for packet in batch.packets()
        ]
        batch_f, batch_expired = build()
        result = batch_f.should_drop_batch(batch, None, now)
        batch_mask = (
            [False] * len(rows) if result is None else result.tolist()
        )
        assert batch_mask == scalar_mask
        assert batch_f.dropped == scalar_f.dropped
        assert batch_f.blocked_until == scalar_f.blocked_until
        # Expiry is lazy in both paths; batch dedupes per unique source.
        assert set(batch_expired) == set(scalar_expired)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        capacity=st.integers(min_value=1, max_value=12),
        prefill=st.integers(min_value=0, max_value=12),
    )
    def test_droptail_queue_train_equals_scalar_fold(self, n, capacity, prefill):
        """enqueue_batch == n enqueue calls: same accepted head, same
        drop count, same drained packet order."""
        prefill = min(prefill, capacity)
        batch = PacketBatch.tcp_batch(
            n,
            src_ip=0x0A000001,
            dst_ip=0x0A000002,
            src_port=list(range(5000, 5000 + n)),
            dst_port=80,
            flags=TcpFlags.SYN,
        )
        seed = PacketBatch.tcp_batch(
            prefill, src_ip=1, dst_ip=2, src_port=4000, dst_port=80,
            flags=TcpFlags.SYN,
        )

        def drain(queue):
            out = []
            while True:
                packet = queue.dequeue()
                if packet is None:
                    return out
                out.append(packet.tcp.src_port)

        scalar_q = DropTailQueue(capacity=capacity)
        scalar_q.enqueue_batch(seed)
        accepted_scalar = sum(
            1 for packet in batch.packets() if scalar_q.enqueue(packet)
        )
        batch_q = DropTailQueue(capacity=capacity)
        batch_q.enqueue_batch(seed)
        accepted_batch = batch_q.enqueue_batch(batch)
        assert accepted_batch == accepted_scalar
        assert batch_q.dropped == scalar_q.dropped
        assert batch_q.enqueued == scalar_q.enqueued
        assert drain(batch_q) == drain(scalar_q)


# ----------------------------------------------------------------------
# Transport demux: a train through receive_batch == a fold of receive
#
# Emitted segments are compared per flow — ``(dst, dst_port)``, in
# emission order — because the scalar fold interleaves across flows what
# a train emits from separate code paths (socket replies first, one RST
# train last).

PEER_BASE = 0x0A000100


def _wire_row(packet):
    return (
        packet.ip.src.value, packet.ip.dst.value,
        packet.tcp.src_port, packet.tcp.dst_port,
        packet.tcp.seq, packet.tcp.ack, int(packet.tcp.flags), packet.data_len,
    )


def _record_wire(node):
    """Capture every segment the node's TCP stack emits, in order."""
    wire = []

    def send_ipv4(packet):
        wire.append(_wire_row(packet))
        return True

    def send_ipv4_batch(batch, on_accepted=None):
        wire.extend(_wire_row(packet) for packet in batch.packets())
        if on_accepted is not None:
            on_accepted(batch, len(batch))
        return len(batch)

    node.send_ipv4 = send_ipv4
    node.send_ipv4_batch = send_ipv4_batch
    return wire


def _per_flow(wire):
    return sorted(wire, key=lambda row: (row[1], row[3]))  # stable


def _tcp_server(
    *, established=(), half_open=(), cookies=False, backlog=16, client_sockets=()
):
    """A server with a listener on port 80, some established peers on
    it, some half-open peers and, optionally, outbound client sockets."""
    sim = Simulator()
    host = CsmaLan(sim).add_host("tserver")
    host.tcp.seed(99)
    stack = host.tcp
    accepted = []
    listener = stack.listen(80, on_accept=accepted.append, backlog=backlog)
    for local_port, peer, peer_port in [(80, *key) for key in established] + list(
        client_sockets
    ):
        sock = TcpSocket(stack, local_port=local_port)
        sock.remote_address = Ipv4Address(PEER_BASE + peer)
        sock.remote_port = peer_port
        sock.state = TcpState.ESTABLISHED
        sock.snd_una = sock.snd_nxt = 5000
        sock.rcv_nxt = 7000
        stack.register(sock)
    for peer, peer_port in half_open:
        listener.handle_syn(_syn_train([(peer, peer_port, 1)]).packet(0))
    listener.syn_cookies_enabled = cookies
    wire = _record_wire(host)
    return sim, stack, listener, wire, accepted


def _tcp_state(sim, stack, listener, accepted):
    return {
        "rst_sent": stack.rst_sent,
        "sockets": [
            (key, sock.state, sock.snd_una, sock.rcv_nxt, sock.bytes_received)
            for key, sock in stack.sockets.items()
        ],
        "accepted": [(s.remote_address.value, s.remote_port) for s in accepted],
        "half_open": list(listener.half_open),
        "isns": dict(listener._isns),
        "listener": (
            listener.syn_dropped, listener.accepted, listener.syn_cookies_sent,
            listener.syn_cookies_accepted, listener.syn_cookies_rejected,
        ),
        "kernel": sim.state_hash(),
    }


def _assert_train_equals_fold(make_world, batch):
    sim, stack, listener, wire, accepted = make_world()
    for packet in batch.packets():
        stack.receive(packet)
    expected = _tcp_state(sim, stack, listener, accepted)
    expected_wire = _per_flow(wire)
    sim, stack, listener, wire, accepted = make_world()
    stack.receive_batch(batch)
    assert _tcp_state(sim, stack, listener, accepted) == expected
    assert _per_flow(wire) == expected_wire


def _tcp_train(rows, flags, server, dst_port=80):
    """rows: (peer, peer_port, seq, ack, payload_len, dst_port or None)."""
    return PacketBatch.tcp_batch(
        len(rows),
        src_ip=[PEER_BASE + peer for peer, *_ in rows],
        dst_ip=server,
        src_port=[port for _, port, *_ in rows],
        dst_port=[dst_port if dport is None else dport for *_, dport in rows],
        seq=[seq for _, _, seq, *_ in rows],
        ack=[ack for _, _, _, ack, _, _ in rows],
        payload_len=[length for *_, length, _ in rows],
        flags=flags,
    )


peers = st.integers(min_value=0, max_value=5)
peer_ports = st.integers(min_value=1000, max_value=1003)


class TestTrainDemuxFold:
    """``TcpStack.receive_batch`` / ``UdpStack.receive_batch`` leave the
    same counters, tables and per-flow wire as a fold of ``receive``."""

    ESTABLISHED = ((1, 1001), (3, 1000))
    HALF_OPEN = ((0, 1000), (2, 1002), (4, 1001), (5, 1003))

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(peers, peer_ports, st.booleans()), min_size=1, max_size=24
        ),
        cookies=st.booleans(),
    )
    # A peer's second ACK in the train that completed its handshake
    # belongs to the new socket: no RST, and no second cookie promotion.
    @example(rows=[(0, 1000, False), (0, 1000, False)], cookies=False)
    @example(rows=[(1, 1000, True), (1, 1000, True)], cookies=True)
    def test_ack_train_against_listener(self, rows, cookies):
        """ACK rows that hit and miss ``half_open``; with cookies on,
        rows carry a valid or a junk cookie.  Duplicate peers exercise a
        peer promoted by an earlier row of the same train."""
        def world():
            return _tcp_server(half_open=self.HALF_OPEN, cookies=cookies)

        _, stack, listener, _, _ = world()

        def ack(peer, port, valid):
            # cookie + 1 completes a SYN-cookie handshake.
            cookie = listener._cookie_isn(PEER_BASE + peer, port)
            return (cookie + 1) & 0xFFFFFFFF if valid else 12345

        train = _tcp_train(
            [(peer, port, 77, ack(peer, port, valid), 0, None) for peer, port, valid in rows],
            TcpFlags.ACK,
            stack.node.address.value,
        )
        _assert_train_equals_fold(world, train)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(peers, peer_ports, st.sampled_from([0, 0, 100])),
            min_size=2,
            max_size=24,
        ),
        with_half_open=st.booleans(),
    )
    def test_mixed_source_train_with_socket_hits(self, rows, with_half_open):
        """Established-socket rows anywhere in a mixed-source train, the
        rest split between half-open peers and unknown peers (RSTs).
        Without half-open entries no listener sees the train, so a
        socket row the demux missed would draw a RST."""
        def world():
            half_open = self.HALF_OPEN if with_half_open else ()
            return _tcp_server(established=self.ESTABLISHED, half_open=half_open)

        server = world()[1].node.address.value
        train = _tcp_train(
            [(peer, port, 7000, 5000, length, None) for peer, port, length in rows],
            TcpFlags.ACK | TcpFlags.PSH,
            server,
        )
        _assert_train_equals_fold(world, train)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(peers, peer_ports, st.sampled_from([80, 80, 4000, 4001, 9999])),
            min_size=1,
            max_size=24,
        ),
    )
    def test_rst_train_with_mixed_destination_ports(self, rows):
        """RST|ACK rows that hit a socket (server side on 80 or a client
        socket on 4000/4001), only the listener port, or nothing."""
        def world():
            return _tcp_server(
                established=self.ESTABLISHED,
                half_open=self.HALF_OPEN,
                client_sockets=((4000, 1, 1001), (4001, 2, 1002)),
            )

        server = world()[1].node.address.value
        train = _tcp_train(
            [(peer, port, 1, 2, 0, dport) for peer, port, dport in rows],
            TcpFlags.RST | TcpFlags.ACK,
            server,
        )
        _assert_train_equals_fold(world, train)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.tuples(peers, peer_ports), min_size=1, max_size=40),
        backlog=st.integers(min_value=0, max_value=6),
    )
    def test_syn_tail_past_full_backlog(self, rows, backlog):
        """SYN rows past a full backlog, with duplicate keys: rows whose
        peer is already half-open are duplicates, the rest are drops."""
        def world():
            half_open = self.HALF_OPEN[: min(backlog, len(self.HALF_OPEN))]
            return _tcp_server(half_open=half_open, backlog=backlog)

        server = world()[1].node.address.value
        train = _tcp_train(
            [(peer, port, 1, 0, 0, None) for peer, port in rows], TcpFlags.SYN, server
        )
        _assert_train_equals_fold(world, train)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # dst port selector
                st.integers(min_value=40, max_value=200),  # payload length
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_udp_train_with_bound_and_unbound_ports(self, rows):
        """Per-socket delivery order and the unreachable count.  A
        200-byte datagram to port 9000 makes that app close port 53, so
        later port-53 rows meet a socket closed by an earlier run."""
        ports = [53, 9000]  # bound; selectors 2-4 hit closed ports

        def build():
            host = CsmaLan(Simulator()).add_host("tserver")
            log = []
            socks = {port: host.udp.bind(port) for port in ports}

            def on_receive(sock, payload, length, src, sport):
                log.append((sock.port, length))
                if sock.port == 9000 and length == 200:
                    socks[53].close()

            for sock in socks.values():
                sock.on_receive = on_receive
            return host.udp, log

        batch = PacketBatch.udp_batch(
            len(rows),
            src_ip=0x0A000001,
            dst_ip=0x0A000002,
            src_port=2000,
            dst_port=[ports[s] if s < len(ports) else 7000 + s for s, _ in rows],
            payload_len=[ln for _, ln in rows],
        )
        scalar_udp, scalar_log = build()
        for packet in batch.packets():
            scalar_udp.receive(packet)
        batch_udp, batch_log = build()
        batch_udp.receive_batch(batch)
        assert batch_log == scalar_log
        assert batch_udp.unreachable == scalar_udp.unreachable
