"""Tests for the event-commutativity checker (``ddoshield check-parity``)
and for the per-frame paths whose order it guards.

* **static** — ORD002 fires at exactly the expected fixture lines,
  honours inline suppressions, and the committed tree has zero
  unbaselined findings, through the library entry point and the CLI;
* **behavioural** — hypothesis drives packet trains (back-to-back
  frames) one frame at a time through the drop-tail queue, the upstream
  filter, the TCP listener and the TCP/UDP demultiplexers, and asserts
  the fold leaves exactly the state a model of the train predicts.
"""

import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.analysis import (
    Baseline,
    check_parity_paths,
    diff_findings,
    format_text,
)
from repro.analysis.walker import build_context, run_rules
from repro.analysis.rules import iter_rules
from repro.cli import main
from repro.ids.defense import UpstreamFilter
from repro.sim import CsmaLan, Simulator
from repro.sim.address import Ipv4Address
from repro.sim.packet import (
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    TcpFlags,
    TcpHeader,
    UdpHeader,
)
from repro.sim.queue import DropTailQueue
from repro.sim.tcp import TcpSocket, TcpState

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def check_fixture(name: str):
    ctx = build_context(
        (FIXTURES / name).read_text(), path=f"tests/lint_fixtures/{name}"
    )
    return run_rules(ctx, iter_rules(category="parity"))


def hits(findings) -> set[tuple[str, int]]:
    return {(f.rule_id, f.line) for f in findings}


# ----------------------------------------------------------------------
# Rule fixtures


class TestParityRuleFixtures:
    def test_ord002_fires_on_racing_handlers_only(self):
        findings, _ = check_fixture("ord002_race.py")
        assert hits(findings) == {("ORD002", 20), ("ORD002", 24)}
        # The commutative counter-only handler stays quiet.
        assert all("_bump" not in f.message for f in findings)
        assert all("last_winner" in f.message for f in findings)

    def test_lint_ok_comment_suppresses_parity_rules(self):
        source = (FIXTURES / "ord002_race.py").read_text()
        source = source.replace(
            "def _fire(self) -> None:  # line 20: ORD002",
            "def _fire(self) -> None:  # repro: lint-ok[ORD002]",
        )
        ctx = build_context(source, path="tests/lint_fixtures/ord002_race.py")
        findings, suppressed = run_rules(ctx, iter_rules(category="parity"))
        assert suppressed == 1
        assert hits(findings) == {("ORD002", 24)}


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
        assert files > 25  # sanity: the walk covered the data-plane subtrees
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

    def test_cli_fails_on_ord002_race_fixture(self, capsys):
        """Acceptance: two same-instant handlers racing on one attribute
        are a nonzero exit naming the rule and both locations."""
        rc = main([
            "check-parity", "--root", str(REPO_ROOT),
            "tests/lint_fixtures/ord002_race.py", "--no-baseline",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ORD002" in out
        assert "tests/lint_fixtures/ord002_race.py:20" in out
        assert "tests/lint_fixtures/ord002_race.py:24" in out

    def test_cli_fails_on_unparseable_file(self, capsys):
        rc = main([
            "check-parity", "--root", str(REPO_ROOT),
            "tests/lint_fixtures/unparseable.py", "--no-baseline",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PARSE001" in out


# ----------------------------------------------------------------------
# Fold equivalence: a train folded through the per-frame method == the
# train's closed-form outcome

PEER_BASE = 0x0A000100
VICTIM = 0x0A000002
M32 = 0xFFFFFFFF


def _segment(src, sport, dport, flags, *, dst=VICTIM, seq=0, ack=0, length=0):
    """One TCP segment as it reaches the destination's stack."""
    return Packet(
        ip=Ipv4Header(src=Ipv4Address(src), dst=Ipv4Address(dst), protocol=PROTO_TCP),
        tcp=TcpHeader(src_port=sport, dst_port=dport, seq=seq, ack=ack, flags=flags),
        payload_len=length,
    )


def _datagram(dport, length, *, src=0x0A000001, sport=2000):
    return Packet(
        ip=Ipv4Header(src=Ipv4Address(src), dst=Ipv4Address(VICTIM), protocol=PROTO_UDP),
        udp=UdpHeader(src_port=sport, dst_port=dport),
        payload_len=length,
    )


def _isn_draws(n, seed=99):
    """The first ``n`` ISNs a TCP stack seeded with ``seed`` hands out."""
    stack = CsmaLan(Simulator()).add_host("isn").tcp
    stack.seed(seed)
    return [stack.initial_sequence() for _ in range(n)]


def _listener(backlog=8, cookies=False):
    host = CsmaLan(Simulator()).add_host("tserver")
    host.tcp.seed(99)
    listener = host.tcp.listen(80, on_accept=lambda sock: None, backlog=backlog)
    listener.syn_cookies_enabled = cookies
    return listener


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
        """The first ``backlog`` distinct peers of a SYN train go
        half-open, in train order, with the stack's ISN draws in that
        order; every row from any other peer is a drop, or with cookies
        on a cookie; a repeat of an admitted peer is a no-op."""
        listener = _listener(cookies=cookies)
        for peer, port, isn in rows:
            listener.handle_syn(_segment(PEER_BASE + peer, port, 80, TcpFlags.SYN, seq=isn))
        keys = [(PEER_BASE + peer, port) for peer, port, _ in rows]
        admitted = list(dict.fromkeys(keys))[: listener.backlog]
        refused = sum(1 for key in keys if key not in admitted)
        assert list(listener.half_open) == admitted
        assert listener._isns == dict(zip(admitted, _isn_draws(len(admitted))))
        assert listener.syn_dropped == (0 if cookies else refused)
        assert listener.syn_cookies_sent == (refused if cookies else 0)

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
        """Rows to bound ports reach their socket in train order; the
        rest count as unreachable."""
        ports = [53, 9000]  # bound; selectors 2-4 hit closed ports
        udp = CsmaLan(Simulator()).add_host("tserver").udp
        log = []
        for port in ports:
            udp.bind(port).on_receive = (
                lambda sock, payload, length, src, sport: log.append(
                    (sock.port, length, sport)
                )
            )
        dports = [ports[s] if s < len(ports) else 7000 + s for s, _ in rows]
        for dport, (_, length) in zip(dports, rows):
            udp.receive(_datagram(dport, length))
        assert log == [
            (dport, length, 2000)
            for dport, (_, length) in zip(dports, rows)
            if dport in ports
        ]
        assert udp.unreachable == sum(1 for dport in dports if dport not in ports)

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
        """A frame is dropped iff it is aimed at the victim from a source
        whose block outlives ``now``; a stale block expires once, lazily,
        at the first victim-bound frame from its source."""
        blocks = {PEER_BASE: 10.0, PEER_BASE + 2: 100.0}  # the first may be stale
        upstream = UpstreamFilter(victim_ip=VICTIM)
        for src, until in blocks.items():
            upstream.block(src, until=until)
        expired = []
        upstream.on_expire = lambda src, until: expired.append(src)
        frames = [(PEER_BASE + s, VICTIM if hit else VICTIM + 1) for s, hit in rows]
        mask = [
            upstream.should_drop(_segment(src, 3000, 80, TcpFlags.SYN, dst=dst), None, now)
            for src, dst in frames
        ]
        live = {src for src, until in blocks.items() if now < until}
        stale_hits = [
            src
            for src in dict.fromkeys(src for src, dst in frames if dst == VICTIM)
            if src in blocks and src not in live
        ]
        assert mask == [dst == VICTIM and src in live for src, dst in frames]
        assert upstream.dropped == sum(mask)
        assert expired == stale_hits
        assert upstream.blocked_until == {
            src: until for src, until in blocks.items() if src not in stale_hits
        }

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        capacity=st.integers(min_value=1, max_value=12),
        prefill=st.integers(min_value=0, max_value=12),
    )
    def test_droptail_queue_train_equals_scalar_fold(self, n, capacity, prefill):
        """The train's head fills the free slots and its tail is dropped;
        the queue drains the prefill, then the accepted head, in order."""
        prefill = min(prefill, capacity)
        queue = DropTailQueue(capacity=capacity)
        for _ in range(prefill):
            queue.enqueue(_segment(1, 4000, 80, TcpFlags.SYN, dst=2))
        accepted = sum(
            queue.enqueue(_segment(0x0A000001, 5000 + i, 80, TcpFlags.SYN))
            for i in range(n)
        )
        fits = min(n, capacity - prefill)
        assert accepted == fits
        assert queue.dropped == n - fits
        assert queue.enqueued == prefill + fits
        drained = []
        while (packet := queue.dequeue()) is not None:
            drained.append(packet.tcp.src_port)
        assert drained == [4000] * prefill + list(range(5000, 5000 + fits))
        assert queue.conservation_error() is None


# ----------------------------------------------------------------------
# Transport demux: a train folded through TcpStack.receive == a model of
# the demux rules


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

    node.send_ipv4 = send_ipv4
    return wire


def _tcp_server(
    *, established=(), half_open=(), cookies=False, backlog=16, client_sockets=()
):
    """A server with a listener on port 80, some established peers on
    it, some half-open peers and, optionally, outbound client sockets."""
    host = CsmaLan(Simulator()).add_host("tserver")
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
    server = host.address.value
    for peer, peer_port in half_open:
        listener.handle_syn(
            _segment(PEER_BASE + peer, peer_port, 80, TcpFlags.SYN, dst=server, seq=1)
        )
    listener.syn_cookies_enabled = cookies
    return stack, listener, accepted, _record_wire(host)


def _observed(stack, listener, accepted, wire):
    return {
        "rst_sent": stack.rst_sent,
        "sockets": {
            key: (sock.state, sock.snd_una, sock.snd_nxt, sock.rcv_nxt, sock.bytes_received)
            for key, sock in stack.sockets.items()
        },
        "accepted": [(s.remote_address.value, s.remote_port) for s in accepted],
        "half_open": list(listener.half_open),
        "isns": dict(listener._isns),
        "listener": (
            listener.syn_dropped, listener.accepted, listener.syn_cookies_sent,
            listener.syn_cookies_accepted, listener.syn_cookies_rejected,
        ),
        "wire": list(wire),
    }


class _DemuxModel:
    """The demux rules, one row at a time: an exact socket match first
    (RST tears it down; ACK moves ``snd_una``; data in order advances
    ``rcv_nxt``, and any data draws an ACK); then the port-80 listener
    (a SYN joins the backlog or is dropped; an ACK promotes a half-open
    peer or, with cookies on, a valid cookie); anything else draws a
    RST|ACK unless it is a RST.  SYN cookies are modelled for ACKs only.
    Starts from a world whose listener counters are all zero."""

    def __init__(self, stack, listener, accepted):
        self.server = stack.node.address.value
        self.listener = listener  # read for its backlog, cookie flag and cookies
        #: key -> [snd_una, snd_nxt, rcv_nxt, bytes_received]
        self.sockets = {
            key: [sock.snd_una, sock.snd_nxt, sock.rcv_nxt, sock.bytes_received]
            for key, sock in stack.sockets.items()
        }
        self.half_open = dict(listener._isns)  # peer -> ISN, in admission order
        draws = _isn_draws(len(self.half_open) + 64)
        self.isns = iter(draws[len(self.half_open):])
        self.accepted = [(s.remote_address.value, s.remote_port) for s in accepted]
        self.wire = []
        self.rst_sent = stack.rst_sent
        self.syn_dropped = self.promoted = 0
        self.cookies_accepted = self.cookies_rejected = 0

    def _emit(self, dport, src, sport, seq, ack, flags):
        self.wire.append((self.server, src, dport, sport, seq & M32, ack & M32, int(flags), 0))

    def _promote(self, key, seq, isn):
        _, _, src, sport = key
        self.sockets[key] = [(isn + 1) & M32, (isn + 1) & M32, seq, 0]
        self.accepted.append((src, sport))
        self.promoted += 1

    def receive(self, src, sport, dport, flags, seq=0, ack=0, length=0):
        key = (self.server, dport, src, sport)
        sock = self.sockets.get(key)
        if sock is not None:
            if flags & TcpFlags.RST:
                del self.sockets[key]
                return
            if flags & TcpFlags.ACK:
                sock[0] = ack
            if length:
                if seq == sock[2]:
                    sock[2] = (seq + length) & M32
                    sock[3] += length
                self._emit(dport, src, sport, sock[1], sock[2], TcpFlags.ACK)
            return
        if dport == 80:
            peer = (src, sport)
            if flags & TcpFlags.SYN and not flags & TcpFlags.ACK:
                if peer in self.half_open:
                    return
                if len(self.half_open) >= self.listener.backlog:
                    self.syn_dropped += 1
                    return
                isn = self.half_open[peer] = next(self.isns)
                self._emit(80, src, sport, isn, seq + 1, TcpFlags.SYN | TcpFlags.ACK)
                return
            if flags & TcpFlags.ACK and not flags & TcpFlags.SYN:
                if peer in self.half_open:
                    self._promote(key, seq, self.half_open.pop(peer))
                    return
                if self.listener.syn_cookies_enabled:
                    cookie = self.listener._cookie_isn(src, sport)
                    if (ack - 1) & M32 == cookie:
                        self.cookies_accepted += 1
                        self._promote(key, seq, cookie)
                        return
                    self.cookies_rejected += 1
        if flags & TcpFlags.RST:
            return
        self.rst_sent += 1
        self._emit(dport, src, sport, ack, seq + length, TcpFlags.RST | TcpFlags.ACK)

    def expected(self):
        """The model's state in the shape of :func:`_observed`."""
        return {
            "rst_sent": self.rst_sent,
            "sockets": {
                key: (TcpState.ESTABLISHED, *row) for key, row in self.sockets.items()
            },
            "accepted": self.accepted,
            "half_open": list(self.half_open),
            "isns": dict(self.half_open),
            "listener": (
                self.syn_dropped, self.promoted, 0,
                self.cookies_accepted, self.cookies_rejected,
            ),
            "wire": self.wire,
        }


def _assert_fold_matches_model(world, rows, flags):
    """rows: (peer, peer_port, dst_port, seq, ack, payload_len)."""
    stack, listener, accepted, wire = world()
    model = _DemuxModel(stack, listener, accepted)
    server = stack.node.address.value
    for peer, port, dport, seq, ack, length in rows:
        fields = dict(seq=seq, ack=ack, length=length)
        stack.receive(_segment(PEER_BASE + peer, port, dport, flags, dst=server, **fields))
        model.receive(PEER_BASE + peer, port, dport, flags, **fields)
    assert _observed(stack, listener, accepted, wire) == model.expected()


peers = st.integers(min_value=0, max_value=5)
peer_ports = st.integers(min_value=1000, max_value=1003)


class TestTrainDemuxFold:
    """A train delivered frame by frame through ``TcpStack.receive`` /
    ``UdpStack.receive`` leaves the counters, tables and wire the demux
    rules predict, including where an earlier row of the same train
    changed the tables a later row meets."""

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

        listener = world()[1]

        def ack(peer, port, valid):
            # cookie + 1 completes a SYN-cookie handshake.
            cookie = listener._cookie_isn(PEER_BASE + peer, port)
            return (cookie + 1) & M32 if valid else 12345

        _assert_fold_matches_model(
            world,
            [(peer, port, 80, 77, ack(peer, port, valid), 0) for peer, port, valid in rows],
            TcpFlags.ACK,
        )

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
        Without half-open entries no listener takes a row, so a socket
        row the demux missed would draw a RST."""
        def world():
            half_open = self.HALF_OPEN if with_half_open else ()
            return _tcp_server(established=self.ESTABLISHED, half_open=half_open)

        _assert_fold_matches_model(
            world,
            [(peer, port, 80, 7000, 5000, length) for peer, port, length in rows],
            TcpFlags.ACK | TcpFlags.PSH,
        )

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

        _assert_fold_matches_model(
            world,
            [(peer, port, dport, 1, 2, 0) for peer, port, dport in rows],
            TcpFlags.RST | TcpFlags.ACK,
        )

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

        _assert_fold_matches_model(
            world, [(peer, port, 80, 1, 0, 0) for peer, port in rows], TcpFlags.SYN
        )

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
        later port-53 rows meet a socket closed by an earlier row."""
        ports = [53, 9000]  # bound; selectors 2-4 hit closed ports
        udp = CsmaLan(Simulator()).add_host("tserver").udp
        log = []
        socks = {port: udp.bind(port) for port in ports}

        def on_receive(sock, payload, length, src, sport):
            log.append((sock.port, length))
            if sock.port == 9000 and length == 200:
                socks[53].close()

        for sock in socks.values():
            sock.on_receive = on_receive
        dports = [ports[s] if s < len(ports) else 7000 + s for s, _ in rows]
        for dport, (_, length) in zip(dports, rows):
            udp.receive(_datagram(dport, length))

        lengths = [length for _, length in rows]
        closer = next(
            (i for i, row in enumerate(zip(dports, lengths)) if row == (9000, 200)),
            len(rows),
        )
        open_at = [set(ports) if i <= closer else {9000} for i in range(len(rows))]
        assert log == [
            (dport, length)
            for i, (dport, length) in enumerate(zip(dports, lengths))
            if dport in open_at[i]
        ]
        assert udp.unreachable == sum(
            1 for i, dport in enumerate(dports) if dport not in open_at[i]
        )
