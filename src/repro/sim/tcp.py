"""Simplified-but-real TCP for the simulated network.

Implements the parts of TCP the testbed's behaviour actually depends on:

* three-way handshake with a bounded listen backlog — SYN floods genuinely
  exhaust it, because spoofed SYNs leave half-open entries until a timeout;
* sequence/acknowledgement numbers on every segment (the IDS extracts
  sequence-number variance and SYN-without-ACK features from them);
* in-order segment delivery with duplicate suppression and a retransmission
  timer, so queue drops under flood cause real retransmits and goodput
  collapse;
* FIN teardown and RST aborts (ACK floods to unknown 4-tuples draw RSTs,
  doubling their packet footprint exactly as on a real host).

Congestion control is a fixed-size sliding window: the channel is FIFO so
loss only comes from queue overflow, which the window plus retransmission
handles; full NewReno adds nothing the evaluation observes.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.sim.address import Ipv4Address
from repro.sim.core import Event, Simulator
from repro.sim.packet import (
    PROTO_TCP,
    UNKNOWN_ORIGIN,
    Ipv4Header,
    Packet,
    Provenance,
    TcpFlags,
    TcpHeader,
)

if TYPE_CHECKING:
    from repro.obs.registry import Counter
    from repro.sim.node import Node

MSS = 1400
DEFAULT_BACKLOG = 64
SYN_RCVD_TIMEOUT = 5.0
RTO_INITIAL = 1.0
RTO_MAX = 8.0
MAX_RETRIES = 5
SEND_WINDOW_BYTES = 65535
EPHEMERAL_BASE = 32768  # Linux ip_local_port_range lower bound


class TcpState(enum.Enum):
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


ConnKey = tuple[int, int, int, int]  # local ip, local port, remote ip, remote port


@dataclass(slots=True)
class _SendItem:
    seq: int
    length: int
    payload: bytes
    flags: int
    app_data: object | None


class TcpListener:
    """A passive socket with a half-open (SYN) backlog."""

    def __init__(
        self,
        stack: "TcpStack",
        port: int,
        on_accept: Callable[["TcpSocket"], None],
        backlog: int = DEFAULT_BACKLOG,
    ) -> None:
        self.stack = stack
        self.port = port
        self.on_accept = on_accept
        self.backlog = backlog
        self.half_open: dict[tuple[int, int], Event] = {}
        #: The ISN each half-open entry's SYN-ACK carried.
        self._isns: dict[tuple[int, int], int] = {}
        self.syn_dropped = 0
        self.accepted = 0
        # SYN-cookie mode (mitigation): above a half-open watermark the
        # listener answers SYNs statelessly with a cookie ISN instead of
        # consuming backlog slots, so spoofed floods cannot exhaust it.
        self.syn_cookies_enabled = False
        self.syn_cookie_threshold = 1.0
        self.syn_cookies_sent = 0
        self.syn_cookies_accepted = 0
        self.syn_cookies_rejected = 0
        self._cookie_secret = 0

    # ------------------------------------------------------------------
    # SYN cookies

    def enable_syn_cookies(self, threshold: float = 0.5, secret: int = 0) -> None:
        """Handshake hardening: go stateless once the half-open table
        reaches ``threshold × backlog`` entries."""
        if not 0 < threshold <= 1:
            raise ValueError("syn-cookie threshold must be in (0, 1]")
        self.syn_cookies_enabled = True
        self.syn_cookie_threshold = threshold
        self._cookie_secret = secret & 0xFFFFFFFF

    def disable_syn_cookies(self) -> None:
        self.syn_cookies_enabled = False
        self.syn_cookie_threshold = 1.0

    @property
    def _cookie_watermark(self) -> int:
        return max(1, int(self.backlog * self.syn_cookie_threshold))

    def _cookie_isn(self, src_ip: int, src_port: int) -> int:
        """Deterministic per-peer cookie (an explicit integer mix — not
        Python's salted ``hash()``, which would break reproducibility)."""
        x = (src_ip & 0xFFFFFFFF) * 0x9E3779B1
        x ^= (src_port * 0x85EBCA6B) ^ (self.port * 0xC2B2AE35) ^ self._cookie_secret
        x = ((x ^ (x >> 15)) * 0x27D4EB2F) & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 13)) & 0xFFFFFFFF
        return x or 1

    def handle_syn(self, packet: Packet) -> None:
        assert packet.ip is not None and packet.tcp is not None
        key = (packet.ip.src.value, packet.tcp.src_port)
        if key in self.half_open:
            return  # duplicate SYN; SYN-ACK already in flight
        if self.syn_cookies_enabled and len(self.half_open) >= self._cookie_watermark:
            # Stateless reply: no backlog entry, no timer.  The cookie is
            # recoverable from the peer's ACK, so legitimate clients still
            # complete while a spoofed flood burns no victim state.
            self.syn_cookies_sent += 1
            if self.stack._obs_syn_cookies is not None:
                self.stack._obs_syn_cookies.inc()
            self.stack.send_segment(
                src_port=self.port,
                dst=packet.ip.src,
                dst_port=packet.tcp.src_port,
                seq=self._cookie_isn(packet.ip.src.value, packet.tcp.src_port),
                ack=(packet.tcp.seq + 1) & 0xFFFFFFFF,
                flags=TcpFlags.SYN | TcpFlags.ACK,
            )
            return
        if len(self.half_open) >= self.backlog:
            self.syn_dropped += 1
            if self.stack._obs_syn_dropped is not None:
                self.stack._obs_syn_dropped.inc()
            return  # backlog exhausted: the SYN-flood effect
        timeout = self.stack.sim.schedule(
            SYN_RCVD_TIMEOUT,
            self._expire,
            key,
            priority=Simulator.PRIORITY_TIMER,
        )
        self.half_open[key] = timeout
        isn = self.stack.initial_sequence()
        self.stack.send_segment(
            src_port=self.port,
            dst=packet.ip.src,
            dst_port=packet.tcp.src_port,
            seq=isn,
            ack=(packet.tcp.seq + 1) & 0xFFFFFFFF,
            flags=TcpFlags.SYN | TcpFlags.ACK,
        )
        self._isns[key] = isn

    def handle_ack(self, packet: Packet) -> "TcpSocket | None":
        """Third handshake step: promote a half-open entry to a socket."""
        assert packet.ip is not None and packet.tcp is not None
        key = (packet.ip.src.value, packet.tcp.src_port)
        timeout = self.half_open.pop(key, None)
        if timeout is None:
            if not self.syn_cookies_enabled:
                return None
            # Stateless path: the ACK must echo cookie + 1 to prove the
            # peer really completed our SYN-ACK exchange.
            cookie = self._cookie_isn(packet.ip.src.value, packet.tcp.src_port)
            if (packet.tcp.ack - 1) & 0xFFFFFFFF != cookie:
                self.syn_cookies_rejected += 1
                return None
            self.syn_cookies_accepted += 1
            return self._promote(packet, cookie)
        timeout.cancel()
        isn = self._isns.pop(key, 0)
        return self._promote(packet, isn)

    def _promote(self, packet: Packet, isn: int) -> "TcpSocket":
        """Build the established socket for a completed handshake."""
        assert packet.ip is not None and packet.tcp is not None
        sock = TcpSocket(self.stack, local_port=self.port)
        sock.remote_address = packet.ip.src
        sock.remote_port = packet.tcp.src_port
        sock.state = TcpState.ESTABLISHED
        sock.snd_nxt = (isn + 1) & 0xFFFFFFFF
        sock.snd_una = sock.snd_nxt
        sock.rcv_nxt = packet.tcp.seq
        self.stack.register(sock)
        self.accepted += 1
        self.on_accept(sock)
        return sock

    def _expire(self, key: tuple[int, int]) -> None:
        self.half_open.pop(key, None)
        self._isns.pop(key, None)

    def close(self) -> None:
        for timeout in self.half_open.values():
            timeout.cancel()
        self.half_open.clear()
        self._isns.clear()
        self.stack.listeners.pop(self.port, None)


class TcpSocket:
    """An active TCP connection endpoint.

    Callbacks (all optional):

    * ``on_established(sock)`` — handshake completed (client side);
    * ``on_data(sock, payload, length, app_data)`` — an in-order segment
      arrived; ``length`` counts virtual payload bytes, ``payload`` holds
      the literal bytes (may be shorter for virtual bulk data);
    * ``on_close(sock)`` — peer finished sending (FIN received);
    * ``on_reset(sock)`` — connection aborted.
    """

    def __init__(self, stack: "TcpStack", local_port: int = 0) -> None:
        self.stack = stack
        self.local_address = stack.node.address
        self.local_port = local_port or stack.allocate_port()
        self.remote_address: Ipv4Address | None = None
        self.remote_port: int | None = None
        self.state = TcpState.CLOSED
        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmissions = 0
        self.provenance: Provenance | None = None
        self.on_established: Callable[[TcpSocket], None] | None = None
        self.on_data: Callable[[TcpSocket, bytes, int, object | None], None] | None = None
        self.on_close: Callable[[TcpSocket], None] | None = None
        self.on_reset: Callable[[TcpSocket], None] | None = None
        self._unsent: deque[_SendItem] = deque()
        self._inflight: deque[_SendItem] = deque()
        self._inflight_bytes = 0  # running sum, updated at every append/pop
        self._retx_event: Event | None = None
        self._retries = 0
        self._rto = RTO_INITIAL
        self._fin_queued = False
        self._handshake_span = None

    # ------------------------------------------------------------------
    # Public API

    def connect(
        self,
        remote: Ipv4Address,
        port: int,
        on_established: Callable[["TcpSocket"], None] | None = None,
    ) -> None:
        """Start the three-way handshake toward ``remote:port``."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"connect() on socket in state {self.state}")
        self.remote_address = remote
        self.remote_port = port
        self.on_established = on_established or self.on_established
        isn = self.stack.initial_sequence()
        self.snd_una = isn
        self.snd_nxt = (isn + 1) & 0xFFFFFFFF
        self.state = TcpState.SYN_SENT
        self.stack.register(self)
        self._handshake_span = self.stack._obs_tracer.span(
            "tcp.handshake",
            node=self.stack.node.name,
            dst=str(remote),
            dst_port=port,
        ).start()
        self._send_flags(TcpFlags.SYN, seq=isn)
        self._arm_retx()

    def send(self, payload: bytes = b"", length: int | None = None, app_data: object | None = None) -> None:
        """Queue application data; segmented into MSS-sized pieces.

        ``length`` allows bulk transfers to model large payloads without
        materialising bytes; ``app_data`` rides on the final segment so
        message-oriented apps get exactly one callback per message.
        """
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise RuntimeError(f"send() on socket in state {self.state}")
        total = length if length is not None else len(payload)
        if total <= 0:
            total = max(total, 1)  # zero-length app messages still need a segment
        offset = 0
        ack_psh = TcpFlags.ACK | TcpFlags.PSH
        while offset < total:
            chunk = min(MSS, total - offset)
            literal = payload[offset : offset + chunk]
            is_last = offset + chunk >= total
            self._unsent.append(
                _SendItem(
                    seq=0,  # assigned at transmission
                    length=chunk,
                    payload=literal,
                    # The whole buffer was pushed by one application
                    # write, so every segment carries PSH (as stacks
                    # that map one write to one push do).
                    flags=ack_psh,
                    app_data=app_data if is_last else None,
                )
            )
            offset += chunk
        self._pump()

    def close(self) -> None:
        """Finish sending, then FIN."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT, TcpState.LAST_ACK):
            return
        self._fin_queued = True
        self._pump()

    def abort(self) -> None:
        """Send RST and drop all state."""
        if self.remote_address is not None and self.state is not TcpState.CLOSED:
            self._send_flags(TcpFlags.RST | TcpFlags.ACK)
        self._teardown()

    @property
    def inflight_bytes(self) -> int:
        return self._inflight_bytes

    @property
    def writable(self) -> bool:
        """Whether :meth:`send` is currently legal (no FIN sent/queued)."""
        return (
            self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)
            and not self._fin_queued
        )

    # ------------------------------------------------------------------
    # Segment transmission

    def _pump(self) -> None:
        """Transmit queued segments up to the send window."""
        while self._unsent and self.inflight_bytes < SEND_WINDOW_BYTES:
            item = self._unsent.popleft()
            item.seq = self.snd_nxt
            self.snd_nxt = (self.snd_nxt + item.length) & 0xFFFFFFFF
            self._inflight.append(item)
            self._inflight_bytes += item.length
            self._transmit(item)
        if (
            self._fin_queued
            and not self._unsent
            and not self._inflight
            and self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)
        ):
            fin_seq = self.snd_nxt
            self.snd_nxt = (self.snd_nxt + 1) & 0xFFFFFFFF
            self._send_flags(TcpFlags.FIN | TcpFlags.ACK, seq=fin_seq)
            self.state = (
                TcpState.FIN_WAIT
                if self.state is TcpState.ESTABLISHED
                else TcpState.LAST_ACK
            )
            self._fin_queued = False
            self._arm_retx()
        if self._inflight:
            self._arm_retx()

    def _transmit(self, item: _SendItem) -> None:
        assert self.remote_address is not None and self.remote_port is not None
        self.bytes_sent += item.length
        self.stack.send_segment(
            src_port=self.local_port,
            dst=self.remote_address,
            dst_port=self.remote_port,
            seq=item.seq,
            ack=self.rcv_nxt,
            flags=item.flags,
            payload=item.payload,
            payload_len=item.length,
            app_data=item.app_data,
            provenance=self.provenance,
        )

    def _send_flags(self, flags: int, seq: int | None = None) -> None:
        assert self.remote_address is not None and self.remote_port is not None
        self.stack.send_segment(
            src_port=self.local_port,
            dst=self.remote_address,
            dst_port=self.remote_port,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt,
            flags=flags,
            provenance=self.provenance,
        )

    # ------------------------------------------------------------------
    # Retransmission

    def _arm_retx(self) -> None:
        if self._retx_event is not None:
            self._retx_event.cancel()
        self._retx_event = self.stack.sim.schedule(
            self._rto, self._on_retx_timeout, priority=Simulator.PRIORITY_TIMER
        )

    def _disarm_retx(self) -> None:
        if self._retx_event is not None:
            self._retx_event.cancel()
            self._retx_event = None
        self._retries = 0
        self._rto = RTO_INITIAL

    def _on_retx_timeout(self) -> None:
        self._retx_event = None
        self._retries += 1
        if self._retries > MAX_RETRIES:
            self._notify_reset()
            self._teardown()
            return
        if self._rto < RTO_MAX and self.stack._obs_backoff is not None:
            self.stack._obs_backoff.inc()
        self._rto = min(self._rto * 2, RTO_MAX)
        self.retransmissions += 1
        if self.stack._obs_retx is not None:
            self.stack._obs_retx.inc()
        if self.state is TcpState.SYN_SENT:
            self._send_flags(TcpFlags.SYN, seq=(self.snd_una) & 0xFFFFFFFF)
        elif self._inflight:
            self._transmit(self._inflight[0])
        elif self.state in (TcpState.FIN_WAIT, TcpState.LAST_ACK):
            self._send_flags(
                TcpFlags.FIN | TcpFlags.ACK, seq=(self.snd_nxt - 1) & 0xFFFFFFFF
            )
        self._arm_retx()

    # ------------------------------------------------------------------
    # Segment reception

    def handle(self, packet: Packet) -> None:
        assert packet.tcp is not None
        tcp = packet.tcp
        if tcp.flags & TcpFlags.RST:
            self._notify_reset()
            self._teardown()
            return
        if self.state is TcpState.SYN_SENT:
            if tcp.flags & TcpFlags.SYN and tcp.flags & TcpFlags.ACK:
                self.rcv_nxt = (tcp.seq + 1) & 0xFFFFFFFF
                self.snd_una = tcp.ack
                self.state = TcpState.ESTABLISHED
                self._disarm_retx()
                if self._handshake_span is not None:
                    self._handshake_span.set("result", "established")
                    self._handshake_span.finish()
                    self._handshake_span = None
                self._send_flags(TcpFlags.ACK)
                if self.on_established is not None:
                    self.on_established(self)
                self._pump()
            return
        if tcp.flags & TcpFlags.ACK:
            self._process_ack(tcp.ack)
        if packet.data_len > 0:
            self._process_data(packet)
        if tcp.flags & TcpFlags.FIN:
            self._process_fin(tcp.seq)

    def _process_ack(self, ack: int) -> None:
        acked = False
        while self._inflight and _seq_lt(self._inflight[0].seq, ack):
            self._inflight_bytes -= self._inflight.popleft().length
            acked = True
        self.snd_una = ack
        if acked:
            self._retries = 0
            self._rto = RTO_INITIAL
        if not self._inflight:
            if self.state is TcpState.FIN_WAIT and _seq_le(self.snd_nxt, ack):
                self.state = TcpState.TIME_WAIT
                self._disarm_retx()
                self.stack.sim.schedule(2 * RTO_MAX, self._teardown)
            elif self.state is TcpState.LAST_ACK and _seq_le(self.snd_nxt, ack):
                self._disarm_retx()
                self._teardown()
            elif not self._fin_queued and not self._unsent:
                self._disarm_retx()
        self._pump()

    def _process_data(self, packet: Packet) -> None:
        assert packet.tcp is not None
        if self.state in (TcpState.TIME_WAIT, TcpState.CLOSED, TcpState.LAST_ACK):
            # Data after our close: abort, as a real stack would (RST
            # tells pipelining peers the connection is gone).
            self.abort()
            return
        seq = packet.tcp.seq
        if seq != self.rcv_nxt:
            # Duplicate (retransmitted but already received); re-ack.
            self._send_flags(TcpFlags.ACK)
            return
        self.rcv_nxt = (self.rcv_nxt + packet.data_len) & 0xFFFFFFFF
        self.bytes_received += packet.data_len
        self._send_flags(TcpFlags.ACK)
        if self.on_data is not None:
            self.on_data(self, packet.payload, packet.data_len, packet.app_data)

    def _process_fin(self, seq: int) -> None:
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        self.rcv_nxt = (seq + 1) & 0xFFFFFFFF
        self._send_flags(TcpFlags.ACK)
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state is TcpState.FIN_WAIT:
            self.state = TcpState.TIME_WAIT
            self.stack.sim.schedule(2 * RTO_MAX, self._teardown)
        if self.on_close is not None:
            self.on_close(self)

    def _notify_reset(self) -> None:
        if self.on_reset is not None:
            self.on_reset(self)

    def _teardown(self) -> None:
        if self._handshake_span is not None:
            # The span is still open only when the handshake never
            # completed (RST, SYN retry exhaustion).
            self._handshake_span.set("result", "failed")
            self._handshake_span.finish()
            self._handshake_span = None
        self._disarm_retx()
        self.state = TcpState.CLOSED
        self._unsent.clear()
        self._inflight.clear()
        self._inflight_bytes = 0
        self.stack.deregister(self)


class TcpStack:
    """Per-node TCP: demultiplexing, listeners, and segment construction."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.sim: Simulator = node.sim
        self.listeners: dict[int, TcpListener] = {}
        self.sockets: dict[ConnKey, TcpSocket] = {}
        self._ports_in_use: set[int] = set()
        self._isn_rng = random.Random(0xD05)
        self.rst_sent = 0
        self.payload_bytes_sent = 0  # monotone app-byte counter (goodput)
        self.default_provenance: Provenance | None = None
        ctx = obs.current()
        self._obs_tracer = ctx.tracer
        # None while the registry is disabled: a dropped SYN or a
        # retransmission then pays an `is None` check, not a no-op call.
        self._obs_retx: Counter | None = None
        self._obs_backoff: Counter | None = None
        self._obs_syn_dropped: Counter | None = None
        self._obs_syn_cookies: Counter | None = None
        registry = ctx.registry
        if registry.enabled:
            self._obs_retx = registry.counter("tcp.retransmissions", node=node.name)
            self._obs_backoff = registry.counter("tcp.rto_backoffs", node=node.name)
            self._obs_syn_dropped = registry.counter("tcp.syn_dropped", node=node.name)
            self._obs_syn_cookies = registry.counter("tcp.syn_cookies", node=node.name)
        if self.sim.sanitizer is not None:
            self.sim.sanitizer.register_tcp_stack(self)

    def seed(self, seed: int) -> None:
        """Reseed ISN and ephemeral-port generation (per-scenario determinism)."""
        self._isn_rng = random.Random(seed)

    def initial_sequence(self) -> int:
        return self._isn_rng.randrange(0, 2**32)

    def allocate_port(self) -> int:
        """Pick a random free ephemeral port (Linux's 32768-60999 range)."""
        for _ in range(64):
            port = self._isn_rng.randrange(EPHEMERAL_BASE, 61000)
            if port not in self._ports_in_use:
                self._ports_in_use.add(port)
                return port
        # Pathological reuse pressure: fall back to a linear scan.
        for port in range(EPHEMERAL_BASE, 61000):
            if port not in self._ports_in_use:
                self._ports_in_use.add(port)
                return port
        raise RuntimeError(f"{self.node.name}: ephemeral ports exhausted")

    def listen(
        self,
        port: int,
        on_accept: Callable[[TcpSocket], None],
        backlog: int = DEFAULT_BACKLOG,
    ) -> TcpListener:
        """Open a passive socket on ``port``."""
        if port in self.listeners:
            raise RuntimeError(f"port {port} already listening on {self.node.name}")
        listener = TcpListener(self, port, on_accept, backlog)
        self.listeners[port] = listener
        return listener

    def socket(self) -> TcpSocket:
        """Create an unconnected active socket with an ephemeral port."""
        return TcpSocket(self)

    def register(self, sock: TcpSocket) -> None:
        self.sockets[self._key(sock)] = sock

    def deregister(self, sock: TcpSocket) -> None:
        self.sockets.pop(self._key(sock), None)
        if sock.local_port not in self.listeners:
            self._ports_in_use.discard(sock.local_port)

    @staticmethod
    def _key(sock: TcpSocket) -> ConnKey:
        return (
            sock.local_address.value,
            sock.local_port,
            sock.remote_address.value if sock.remote_address else 0,
            sock.remote_port or 0,
        )

    def receive(self, packet: Packet) -> None:
        assert packet.ip is not None and packet.tcp is not None
        tcp = packet.tcp
        key: ConnKey = (
            packet.ip.dst.value,
            tcp.dst_port,
            packet.ip.src.value,
            tcp.src_port,
        )
        sock = self.sockets.get(key)
        if sock is not None:
            sock.handle(packet)
            return
        listener = self.listeners.get(tcp.dst_port)
        if listener is not None:
            if tcp.flags & TcpFlags.SYN and not tcp.flags & TcpFlags.ACK:
                listener.handle_syn(packet)
                return
            if tcp.flags & TcpFlags.ACK and not tcp.flags & TcpFlags.SYN:
                if listener.handle_ack(packet) is not None:
                    return
        if tcp.flags & TcpFlags.RST:
            return  # never answer a RST with a RST
        # Unknown 4-tuple: answer with RST, as a real host would.  This is
        # what makes ACK floods draw a response storm from the victim.
        self.rst_sent += 1
        self.send_segment(
            src_port=tcp.dst_port,
            dst=packet.ip.src,
            dst_port=tcp.src_port,
            seq=tcp.ack,
            ack=(tcp.seq + packet.data_len) & 0xFFFFFFFF,
            flags=TcpFlags.RST | TcpFlags.ACK,
        )

    def send_segment(
        self,
        src_port: int,
        dst: Ipv4Address,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        payload: bytes = b"",
        payload_len: int | None = None,
        app_data: object | None = None,
        provenance: Provenance | None = None,
        src: Ipv4Address | None = None,
    ) -> bool:
        """Build and route one TCP segment from this node."""
        # Positional builds: this runs once per segment, and a keyword
        # build of a NamedTuple costs about 1.7 times as much.
        header = TcpHeader(src_port, dst_port, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF, flags)
        ip = Ipv4Header(src if src is not None else self.node.address, dst, PROTO_TCP)
        prov = provenance or self.default_provenance
        packet = Packet(
            None, ip, header, None, payload, payload_len,
            prov if prov is not None else UNKNOWN_ORIGIN, app_data,
        )
        accepted = self.node.send_ipv4(packet)
        if accepted:
            self.payload_bytes_sent += packet.data_len
        return accepted


def _seq_lt(a: int, b: int) -> bool:
    """Sequence-space a < b with 32-bit wraparound."""
    return ((a - b) & 0xFFFFFFFF) > 0x7FFFFFFF


def _seq_le(a: int, b: int) -> bool:
    return a == b or _seq_lt(a, b)
