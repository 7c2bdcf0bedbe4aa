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
from itertools import compress, groupby, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.sim.address import Ipv4Address
from repro.sim.core import Event, Simulator
from repro.sim.packet import (
    PROTO_TCP,
    Ipv4Header,
    Packet,
    PacketBatch,
    Provenance,
    TcpFlags,
    TcpHeader,
)

if TYPE_CHECKING:
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

    def handle_syn_batch(
        self,
        src_ip: np.ndarray,
        src_port: np.ndarray,
        seq: np.ndarray,
    ) -> None:
        """Process a SYN train against the backlog, scalar-equivalently.

        Packets are consumed in order with the exact per-packet semantics
        of :meth:`handle_syn` (duplicate suppression, cookie watermark,
        ISN draws and timers in arrival order) until the backlog fills;
        from there no state can change within the train — cookies are off
        whenever backlog-full is reachable — so the saturated tail is only
        counted: every tail row whose key is not already half-open is a
        drop.  SYN-ACK replies accumulate into one response batch.
        """
        n = int(src_ip.shape[0])
        src_ip_list = src_ip.tolist()
        src_port_list = src_port.tolist()
        seq_list = seq.tolist()
        resp_dst: list[int] = []
        resp_dport: list[int] = []
        resp_seq: list[int] = []
        resp_ack: list[int] = []
        i = 0
        while i < n:
            sip = src_ip_list[i]
            sport = src_port_list[i]
            key = (sip, sport)
            if key in self.half_open:
                i += 1
                continue  # duplicate SYN; SYN-ACK already in flight
            if (
                self.syn_cookies_enabled
                and len(self.half_open) >= self._cookie_watermark
            ):
                self.syn_cookies_sent += 1
                self.stack._obs_syn_cookies.inc()
                resp_dst.append(sip)
                resp_dport.append(sport)
                resp_seq.append(self._cookie_isn(sip, sport))
                resp_ack.append((seq_list[i] + 1) & 0xFFFFFFFF)
                i += 1
                continue
            if len(self.half_open) >= self.backlog:
                break  # saturated: the rest of the train is only counted
            timeout = self.stack.sim.schedule(
                SYN_RCVD_TIMEOUT,
                self._expire,
                key,
                priority=Simulator.PRIORITY_TIMER,
            )
            self.half_open[key] = timeout
            isn = self.stack.initial_sequence()
            self._isns[key] = isn
            resp_dst.append(sip)
            resp_dport.append(sport)
            resp_seq.append(isn)
            resp_ack.append((seq_list[i] + 1) & 0xFFFFFFFF)
            i += 1
        if i < n:
            tail = zip(src_ip_list[i:], src_port_list[i:])
            dropped = (n - i) - sum(map(self.half_open.__contains__, tail))
            self.syn_dropped += dropped
            self.stack._obs_syn_dropped.inc(dropped)
        if resp_dst:
            self.stack.send_segment_batch(
                PacketBatch.tcp_batch(
                    len(resp_dst),
                    src_ip=self.stack.node.address.value,
                    dst_ip=np.asarray(resp_dst, dtype=np.int64),
                    src_port=self.port,
                    dst_port=np.asarray(resp_dport, dtype=np.int64),
                    seq=np.asarray(resp_seq, dtype=np.int64),
                    ack=np.asarray(resp_ack, dtype=np.int64),
                    flags=TcpFlags.SYN | TcpFlags.ACK,
                    provenance=self.stack.default_provenance or Provenance(),
                )
            )

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
    * ``on_data_batch(sock, batch)`` — an in-order *train* of data
      segments arrived at once (batch delivery); when unset, the train
      falls back to one ``on_data`` call per segment;
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
        self.on_data_batch: Callable[[TcpSocket, PacketBatch], None] | None = None
        self.on_close: Callable[[TcpSocket], None] | None = None
        self.on_reset: Callable[[TcpSocket], None] | None = None
        self._unsent: deque[_SendItem] = deque()
        self._inflight: deque[_SendItem] = deque()
        self._inflight_bytes = 0  # running sum, updated at every append/pop
        self._retx_event: Event | None = None
        self._retries = 0
        self._rto = RTO_INITIAL
        self._fin_queued = False
        self._pump_deferred = False
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
                    # that map one write to one push do).  Keeping the
                    # message flag-uniform also lets a send window leave
                    # as a single train instead of train + scalar tail.
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
        """Transmit queued segments up to the send window.

        In batch mode (``stack.batch_segments``) the window's worth of
        segments is collected first and emitted as flag-uniform
        :class:`PacketBatch` trains — per-packet content identical to the
        scalar emissions, in the same queue order.
        """
        pending: list[_SendItem] | None = [] if self.stack.batch_segments else None
        while self._unsent and self.inflight_bytes < SEND_WINDOW_BYTES:
            item = self._unsent.popleft()
            item.seq = self.snd_nxt
            self.snd_nxt = (self.snd_nxt + item.length) & 0xFFFFFFFF
            self._inflight.append(item)
            self._inflight_bytes += item.length
            if pending is None:
                self._transmit(item)
            else:
                pending.append(item)
        if pending:
            self._transmit_runs(pending)
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

    def _transmit_runs(self, items: list[_SendItem]) -> None:
        """Emit collected segments as maximal flag-uniform trains.

        A bulk ``send()`` queues N-1 plain ACK segments and one final
        ACK|PSH carrier, so the common emission is one long train plus a
        scalar tail; singleton runs go through the scalar twin untouched.
        """
        i = 0
        n = len(items)
        while i < n:
            j = i + 1
            while j < n and items[j].flags == items[i].flags:
                j += 1
            if j - i >= 2:
                self._transmit_batch(items[i:j])
            else:
                self._transmit(items[i])
            i = j

    def _transmit_batch(self, items: list[_SendItem]) -> None:
        """Emit a flag-uniform segment run as one PacketBatch train."""
        if not items:
            return
        assert self.remote_address is not None and self.remote_port is not None
        self.bytes_sent += sum(item.length for item in items)
        payloads = None
        if any(item.payload for item in items):
            payloads = tuple(item.payload for item in items)
        app_data = None
        if any(item.app_data is not None for item in items):
            app_data = tuple(item.app_data for item in items)
        prov = self.provenance or self.stack.default_provenance
        self.stack.send_segment_batch(
            PacketBatch.tcp_batch(
                len(items),
                src_ip=self.stack.node.address.value,
                dst_ip=self.remote_address.value,
                src_port=self.local_port,
                dst_port=self.remote_port,
                seq=[item.seq for item in items],
                ack=self.rcv_nxt,
                flags=items[0].flags,
                payload_len=[item.length for item in items],
                provenance=prov if prov is not None else Provenance(),
                payloads=payloads,
                app_data=app_data,
            )
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
        if self._rto < RTO_MAX:
            self.stack._obs_backoff.inc()
        self._rto = min(self._rto * 2, RTO_MAX)
        self.retransmissions += 1
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

    def handle_batch(self, batch: PacketBatch) -> None:
        """Consume a train of segments addressed to this connection.

        The fast path covers the bulk-transfer case — ESTABLISHED state
        and pure ``ACK``/``ACK|PSH`` flags: acknowledgements process
        per row (identical window bookkeeping to the scalar twin), the
        per-row ACK replies coalesce into one response train carrying
        exactly the scalar per-packet ``(seq, ack)`` values, and the
        in-order data rows deliver to the app as one ``on_data_batch``
        call (or per-row ``on_data`` when no batch callback is set).
        Anything else — handshakes, FIN/RST, mid-close races — falls
        back to per-packet handling.
        """
        n = len(batch)
        if n == 0:
            return
        flags = batch.flags
        if (
            self.state is not TcpState.ESTABLISHED
            or batch.seq is None
            or batch.ack is None
            or flags & (TcpFlags.SYN | TcpFlags.RST | TcpFlags.FIN)
            or not flags & TcpFlags.ACK
        ):
            for packet in batch.packets():
                self.handle(packet)
            return
        seqs = batch.seq
        acks = batch.ack
        lens = batch.payload_len
        # Columnar fast paths.  ``_process_ack`` is purely cumulative
        # (pops below the ack, overwrites snd_una, no RTT estimator), so
        # a non-decreasing ACK column collapses to one call with the
        # final ack — bit-identical end state to the row loop.
        if n > 1 and bool((np.diff(acks) >= 0).all()):
            if not bool((lens > 0).any()):
                # Pure ACK train: the receiver's coalesced window acks.
                self._pump_deferred = True
                try:
                    self._process_ack(int(acks[-1]))
                finally:
                    self._pump_deferred = False
                self._pump()
                return
            if bool((lens > 0).all()):
                shifted = np.concatenate(
                    (np.zeros(1, dtype=np.int64), np.cumsum(lens[:-1], dtype=np.int64))
                )
                expected = (int(self.rcv_nxt) + shifted) & np.int64(0xFFFFFFFF)
                if bool((seqs == expected).all()):
                    # In-order contiguous data train: advance the window
                    # once, build the per-row ack replies columnar (the
                    # exact (snd_nxt, running rcv_nxt) pairs the scalar
                    # loop would emit — snd_nxt cannot move while the
                    # pump is deferred), and deliver rows in one call.
                    self._pump_deferred = True
                    try:
                        self._process_ack(int(acks[-1]))
                    finally:
                        self._pump_deferred = False
                    ack_ack_col = ((expected + lens) & np.int64(0xFFFFFFFF)).tolist()
                    ack_seq_col = [self.snd_nxt] * n
                    total = int(lens.sum())
                    self.rcv_nxt = (int(self.rcv_nxt) + total) & 0xFFFFFFFF
                    self.bytes_received += total
                    self._pump()
                    self._flush_ack_train(ack_seq_col, ack_ack_col)
                    self._deliver_rows(batch, list(range(n)))
                    return
        ack_seq: list[int] = []
        ack_ack: list[int] = []
        deliver: list[int] = []
        # Defer the per-ACK pump: row-by-row pumping would reopen the
        # send window one MSS at a time and dribble out single-segment
        # "trains".  Processing the whole ACK train first and pumping
        # once emits the next full window as one train — same segments,
        # same bytes, one emission.
        self._pump_deferred = True
        try:
            for i in range(n):
                self._process_ack(int(acks[i]))
                length = int(lens[i])
                if length <= 0:
                    continue
                if self.state in (TcpState.TIME_WAIT, TcpState.CLOSED, TcpState.LAST_ACK):
                    # Data after our close: flush what the wire already owes
                    # (the coalesced ACKs), then abort as the scalar twin
                    # would on this row.
                    self._flush_ack_train(ack_seq, ack_ack)
                    self._deliver_rows(batch, deliver)
                    self.abort()
                    return
                if int(seqs[i]) != self.rcv_nxt:
                    # Duplicate (retransmitted but already received); re-ack.
                    ack_seq.append(self.snd_nxt)
                    ack_ack.append(self.rcv_nxt)
                    continue
                self.rcv_nxt = (self.rcv_nxt + length) & 0xFFFFFFFF
                self.bytes_received += length
                ack_seq.append(self.snd_nxt)
                ack_ack.append(self.rcv_nxt)
                deliver.append(i)
        finally:
            self._pump_deferred = False
        self._pump()
        self._flush_ack_train(ack_seq, ack_ack)
        self._deliver_rows(batch, deliver)

    def _flush_ack_train(self, ack_seq: list[int], ack_ack: list[int]) -> None:
        """Emit the coalesced per-row ACK replies as one train."""
        if not ack_seq:
            return
        assert self.remote_address is not None and self.remote_port is not None
        if len(ack_seq) == 1:
            self.stack.send_segment(
                src_port=self.local_port,
                dst=self.remote_address,
                dst_port=self.remote_port,
                seq=ack_seq[0],
                ack=ack_ack[0],
                flags=TcpFlags.ACK,
                provenance=self.provenance,
            )
            return
        prov = self.provenance or self.stack.default_provenance
        self.stack.send_segment_batch(
            PacketBatch.tcp_batch(
                len(ack_seq),
                src_ip=self.stack.node.address.value,
                dst_ip=self.remote_address.value,
                src_port=self.local_port,
                dst_port=self.remote_port,
                seq=ack_seq,
                ack=ack_ack,
                flags=TcpFlags.ACK,
                provenance=prov if prov is not None else Provenance(),
            )
        )

    def _deliver_rows(self, batch: PacketBatch, rows: list[int]) -> None:
        """Hand delivered in-order data rows to the application."""
        if not rows:
            return
        sub = batch if len(rows) == len(batch) else batch.take(
            np.asarray(rows, dtype=np.int64)
        )
        if self.on_data_batch is not None:
            self.on_data_batch(self, sub)
        elif self.on_data is not None:
            for packet in sub.packets():
                self.on_data(self, packet.payload, packet.data_len, packet.app_data)

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
        if not self._pump_deferred:
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
        #: When set, socket send windows emit PacketBatch trains instead
        #: of per-segment events (the benign-plane batch path).
        self.batch_segments = False
        ctx = obs.current()
        self._obs_tracer = ctx.tracer
        self._obs_retx = ctx.registry.counter("tcp.retransmissions", node=node.name)
        self._obs_backoff = ctx.registry.counter("tcp.rto_backoffs", node=node.name)
        self._obs_syn_dropped = ctx.registry.counter("tcp.syn_dropped", node=node.name)
        self._obs_syn_cookies = ctx.registry.counter("tcp.syn_cookies", node=node.name)
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

    def receive_batch(self, batch: PacketBatch) -> None:
        """Demultiplex a train with scalar-identical per-packet semantics.

        The fast path needs a uniform ``(dst_ip, dst_port)`` — true for
        any flood train.  Frames matching an established socket (possible
        only for non-spoofed sources) are handled first, in consecutive
        per-connection runs; listener SYN/ACK trains take the batched
        backlog paths; the remainder draws one batched RST storm, exactly
        the segments the scalar kernel would emit.  Which rows hit a
        socket or a half-open entry is read from the columns: only rows
        that hit are materialised as :class:`Packet`.
        """
        n = len(batch)
        if n == 0:
            return
        dst0 = int(batch.dst_ip[0])
        port0 = int(batch.dst_port[0])
        if not (
            bool((batch.dst_ip == dst0).all())
            and bool((batch.dst_port == port0).all())
        ):
            if batch.flags & TcpFlags.RST:
                self._receive_rst_rows(batch)
                return
            for packet in batch.packets():
                self.receive(packet)
            return
        flags = batch.flags
        idx = None  # rows no socket took, when some socket took a row
        if self.sockets:
            src0 = int(batch.src_ip[0])
            sport0 = int(batch.src_port[0])
            if (
                int(batch.src_ip[-1]) == src0
                and int(batch.src_port[-1]) == sport0
                and bool((batch.src_ip == src0).all())
                and bool((batch.src_port == sport0).all())
            ):
                # Uniform remote endpoint — every benign bulk-transfer
                # train — resolves with one dict probe instead of one
                # per row.
                sock = self.sockets.get((dst0, port0, src0, sport0))
                if sock is not None:
                    if n == 1:
                        self.receive(batch.packet(0))
                    else:
                        sock.handle_batch(batch)
                    return
            else:
                hits = self._socket_rows(batch, dst0, port0)
                if hits:
                    self._dispatch_socket_runs(batch, hits, dst0, port0)
                    if len(hits) == n:
                        return
                    unhandled = np.ones(n, dtype=bool)
                    unhandled[hits] = False
                    idx = np.flatnonzero(unhandled)
        if idx is None:
            idx = np.arange(n)
        listener = self.listeners.get(port0)
        is_syn = bool(flags & TcpFlags.SYN) and not flags & TcpFlags.ACK
        is_ack = bool(flags & TcpFlags.ACK) and not flags & TcpFlags.SYN
        if listener is not None:
            if is_syn:
                listener.handle_syn_batch(
                    batch.src_ip[idx], batch.src_port[idx], batch.seq[idx]
                )
                return
            if is_ack and (listener.half_open or listener.syn_cookies_enabled):
                idx = np.asarray(
                    self._unpromoted_acks(listener, batch, idx.tolist()),
                    dtype=np.int64,
                )
        if flags & TcpFlags.RST or len(idx) == 0:
            return  # never answer a RST with a RST
        # Unknown 4-tuples: answer with one RST train, as a real host
        # would packet by packet — what makes ACK floods draw a storm.
        self.rst_sent += len(idx)
        self.send_segment_batch(
            PacketBatch.tcp_batch(
                len(idx),
                src_ip=self.node.address.value,
                dst_ip=batch.src_ip[idx],
                src_port=port0,
                dst_port=batch.src_port[idx],
                seq=batch.ack[idx] if batch.ack is not None else 0,
                ack=(
                    (batch.seq[idx] + batch.payload_len[idx]) & np.int64(0xFFFFFFFF)
                    if batch.seq is not None
                    else batch.payload_len[idx] & np.int64(0xFFFFFFFF)
                ),
                flags=TcpFlags.RST | TcpFlags.ACK,
                provenance=self.default_provenance or Provenance(),
            )
        )

    def _receive_rst_rows(self, batch: PacketBatch) -> None:
        """A RST train with mixed destinations, row by row in order.

        A RST that matches no socket and no listener has no effect in
        :meth:`receive`, so only the other rows are materialised and
        received, each probed against the tables as earlier rows left
        them.
        """
        sockets = self.sockets
        listeners = self.listeners
        keys = zip(
            batch.dst_ip.tolist(),
            batch.dst_port.tolist(),
            batch.src_ip.tolist(),
            batch.src_port.tolist(),
        )
        for i, key in enumerate(keys):
            if key in sockets or key[1] in listeners:
                self.receive(batch.packet(i))

    def _socket_rows(self, batch: PacketBatch, dst0: int, port0: int) -> list[int]:
        """Rows of a mixed-source train that belong to an established
        socket on ``(dst0, port0)``, in row order."""
        n = len(batch)
        keys = zip(
            repeat(dst0, n), repeat(port0, n),
            batch.src_ip.tolist(), batch.src_port.tolist(),
        )
        return list(compress(range(n), map(self.sockets.__contains__, keys)))

    def _unpromoted_acks(
        self, listener: TcpListener, batch: PacketBatch, rows: list[int]
    ) -> list[int]:
        """Offer ACK rows to ``listener`` in order; return those nobody took.

        With cookies off, an ACK whose peer is not half-open is a no-op
        for :meth:`TcpListener.handle_ack`, so only rows that hit
        ``half_open`` are materialised.  A row whose peer an earlier row
        of this train promoted goes to that new socket, as in
        :meth:`receive`.
        """
        sockets = self.sockets
        half_open = listener.half_open
        local = (int(batch.dst_ip[0]), listener.port)
        peers = list(zip(batch.src_ip.tolist(), batch.src_port.tolist()))
        leftover: list[int] = []
        for i in rows:
            peer = peers[i]
            if sockets and local + peer in sockets:
                self.receive(batch.packet(i))
            elif not (
                (peer in half_open or listener.syn_cookies_enabled)
                and listener.handle_ack(batch.packet(i)) is not None
            ):
                leftover.append(i)
        return leftover

    def _dispatch_socket_runs(
        self, batch: PacketBatch, rows: list[int], dst0: int, port0: int
    ) -> None:
        """Deliver established-socket rows, grouping consecutive runs.

        Rows from one remote endpoint arriving back to back — the shape
        of every bulk-transfer train — reach the socket as a single
        :meth:`TcpSocket.handle_batch` call; isolated rows keep the
        scalar materialise-and-receive path.  Sockets are re-looked-up
        per run because an earlier run may tear its connection down.
        """
        remotes = zip(batch.src_ip[rows].tolist(), batch.src_port[rows].tolist())
        for remote, run in groupby(zip(remotes, rows), key=itemgetter(0)):
            run_rows = [row for _, row in run]
            if len(run_rows) == 1:
                self.receive(batch.packet(run_rows[0]))
                continue
            sock = self.sockets.get((dst0, port0, *remote))
            if sock is None:
                for i in run_rows:
                    self.receive(batch.packet(i))
                continue
            sock.handle_batch(batch.take(np.asarray(run_rows, dtype=np.int64)))

    def send_segment_batch(self, batch: PacketBatch) -> int:
        """Route a pre-built TCP train; returns frames accepted.

        Goodput accounting mirrors the scalar path exactly: each routed
        group reports how many of its leading frames the device queue
        accepted (queues take prefixes), and only those frames' payload
        bytes count — so batched TCP deliveries add to the victim's
        goodput columns once per packet, never once per train.
        """
        if len(batch) == 0:
            return 0

        def _account(sub: PacketBatch, taken: int) -> None:
            if taken:
                self.payload_bytes_sent += int(sub.payload_len[:taken].sum())

        return self.node.send_ipv4_batch(batch, on_accepted=_account)

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
        header = TcpHeader(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq & 0xFFFFFFFF,
            ack=ack & 0xFFFFFFFF,
            flags=flags,
        )
        ip = Ipv4Header(
            src=src if src is not None else self.node.address,
            dst=dst,
            protocol=PROTO_TCP,
        )
        prov = provenance or self.default_provenance
        packet = Packet(
            ip=ip,
            tcp=header,
            payload=payload,
            payload_len=payload_len,
            app_data=app_data,
            provenance=prov if prov is not None else Provenance(),
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
