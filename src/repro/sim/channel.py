"""CSMA (shared-bus Ethernet) channel and net devices.

Mirrors NS-3's ``CsmaChannel``/``CsmaNetDevice`` pair that DDoSim uses to
wire Docker ghost nodes together: one shared medium with a configurable
data rate and propagation delay, collision-free arbitration (devices wait
their turn in FIFO order, like NS-3's post-backoff winner), and per-device
drop-tail transmit queues.

The IDS taps the channel with a promiscuous probe registered via
:meth:`CsmaChannel.add_probe`, which observes every frame exactly once at
delivery time — the analogue of sniffing the TServer's switch port.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.sim.address import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.sim.core import Simulator
from repro.sim.packet import EthernetHeader, Packet
from repro.sim.queue import DropTailQueue
from repro.sim.units import parse_rate, parse_time

if TYPE_CHECKING:
    from repro.sim.node import Node

#: Probe callback: (packet, rx_time) for every frame delivered on the channel.
ProbeFn = Callable[[Packet, float], None]

#: The per-frame paths compare MACs by ``MacAddress.value``: an ``int``
#: comparison runs in C, the dataclass ``__eq__``/``__hash__`` in Python.
_BROADCAST = BROADCAST_MAC.value


class TrafficFilter:
    """Interface for a channel-tier ACL (upstream mitigation).

    :meth:`should_drop` is consulted once per frame at dequeue time;
    a filtered frame never occupies the medium — it died at the switch
    port, before the bottleneck link.
    """

    def should_drop(
        self, frame: Packet, sender: "CsmaNetDevice", now: float
    ) -> bool:  # pragma: no cover - interface default
        return False


class ChannelImpairment:
    """Interface a fault injector implements to impair frames in flight.

    :meth:`impair` is consulted once per frame as it wins the medium and
    returns ``(drop, extra_delay)``: dropped frames still occupy the wire
    for their serialization time (the sender saw them leave), and
    surviving frames are delivered ``extra_delay`` seconds late (jitter).
    """

    def impair(
        self, frame: Packet, sender: "CsmaNetDevice", now: float
    ) -> tuple[bool, float]:  # pragma: no cover - interface default
        return False, 0.0


class CsmaChannel:
    """A shared-medium channel serving attached devices in FIFO order."""

    def __init__(
        self,
        sim: Simulator,
        data_rate: str | float = "100Mbps",
        delay: str | float = "6.56us",
    ) -> None:
        self.sim = sim
        self.data_rate = parse_rate(data_rate)
        self.delay = parse_time(delay)
        self._devices: list[CsmaNetDevice] = []
        #: Attached devices keyed by ``MacAddress.value``.
        self._by_mac: dict[int, CsmaNetDevice] = {}
        self._promiscuous: list[CsmaNetDevice] = []
        self._busy = False
        #: Devices waiting for the medium, in FIFO order.  A device is in
        #: it exactly when its ``waiting`` flag is set.
        self._waiting: deque[CsmaNetDevice] = deque()
        self._probes: list[ProbeFn] = []
        self.frames_delivered = 0
        #: Optional fault injector consulted per frame (repro.faults).
        self.fault_injector: "ChannelImpairment | None" = None
        #: Optional channel-tier ACL (upstream mitigation filter).
        self.traffic_filter: "TrafficFilter | None" = None
        self.frames_impaired = 0
        self.frames_filtered = 0
        #: Conservation counters: every frame dequeued from a device queue
        #: is delivered, impaired, or still in flight (sanitizer invariant).
        self.frames_dequeued = 0
        self.frames_in_flight = 0
        #: ARP-substitute resolution cache keyed by ``Ipv4Address.value``
        #: (cleared on any topology change).
        self._resolve_cache: dict[int, MacAddress | None] = {}
        if sim.sanitizer is not None:
            sim.sanitizer.register_channel("csma", self)

    def attach(self, device: "CsmaNetDevice") -> None:
        """Register ``device`` on the medium."""
        if device not in self._devices:
            self._devices.append(device)
        self._by_mac[device.mac.value] = device
        device.attached = True
        self._resolve_cache.clear()
        self.update_promiscuous(device)

    def detach(self, device: "CsmaNetDevice") -> None:
        """Remove ``device`` (device churn: an IoT node leaving the LAN)."""
        if device in self._devices:
            self._devices.remove(device)
            self._by_mac.pop(device.mac.value, None)
        if device.waiting:
            self._waiting.remove(device)
            device.waiting = False
        if device in self._promiscuous:
            self._promiscuous.remove(device)
        device.attached = False
        self._resolve_cache.clear()
        device.queue.clear()

    def update_promiscuous(self, device: "CsmaNetDevice") -> None:
        """Sync the promiscuous-delivery registry with ``device``'s flag.

        Promiscuous attached devices see *every* delivered frame, not
        just broadcasts — the switch-port mirror an IDS tap relies on.
        Survives detach/re-attach cycles (container restarts) because
        :meth:`attach` calls back into this.
        """
        listed = device in self._promiscuous
        if device.promiscuous and device.attached and not listed:
            self._promiscuous.append(device)
        elif (not device.promiscuous or not device.attached) and listed:
            self._promiscuous.remove(device)

    def add_probe(self, probe: ProbeFn) -> None:
        """Attach a promiscuous observer called once per delivered frame."""
        self._probes.append(probe)

    def remove_probe(self, probe: ProbeFn) -> None:
        """Detach a previously-added observer (end of a capture phase)."""
        if probe in self._probes:
            self._probes.remove(probe)

    def resolve(self, address: Ipv4Address) -> MacAddress | None:
        """Map an IPv4 address to the MAC of the device that owns it.

        Substitutes for ARP: on a simulated LAN the channel can consult
        every attached node's interface table directly.  Results (hits
        *and* misses — spoofed flood sources probe the same dead address
        space repeatedly) are cached until the topology changes.
        """
        try:
            return self._resolve_cache[address.value]
        except KeyError:
            pass
        mac: MacAddress | None = None
        for device in self._devices:
            if device.node is not None and device.node.owns_address(address):
                mac = device.mac
                break
        self._resolve_cache[address.value] = mac
        return mac

    def invalidate_resolve_cache(self) -> None:
        """Forget cached resolutions (address added/moved on the LAN)."""
        self._resolve_cache.clear()

    def transmission_time(self, size_bytes: int) -> float:
        """Seconds needed to serialize ``size_bytes`` onto the medium."""
        return size_bytes * 8 / self.data_rate

    def request(self, device: "CsmaNetDevice") -> None:
        """A device with a non-empty queue asks for the medium."""
        if not device.waiting:
            device.waiting = True
            self._waiting.append(device)
        if not self._busy:
            self._serve()

    def set_fault_injector(self, injector: "ChannelImpairment | None") -> None:
        """Install (or clear) the per-frame impairment hook."""
        self.fault_injector = injector

    def set_traffic_filter(self, filter_: "TrafficFilter | None") -> None:
        """Install (or clear) the channel-tier ACL (upstream mitigation)."""
        self.traffic_filter = filter_

    def _serve(self) -> None:
        """Start the next waiting frame on the idle medium."""
        waiting = self._waiting
        while waiting:
            device = waiting.popleft()
            device.waiting = False
            frame = device.queue.dequeue()
            if frame is None:
                continue
            self.frames_dequeued += 1
            if self.traffic_filter is not None and self.traffic_filter.should_drop(
                frame, device, self.sim.now
            ):
                # ACL drop at dequeue: the frame never occupies the wire,
                # so the sender's remaining frames stay in contention.
                self.frames_filtered += 1
                if not device.queue.is_empty:
                    device.waiting = True
                    waiting.append(device)
                continue
            self._busy = True
            tx_time = self.transmission_time(frame.size)
            drop, extra_delay = False, 0.0
            if self.fault_injector is not None:
                drop, extra_delay = self.fault_injector.impair(
                    frame, device, self.sim.now
                )
            if drop:
                self.frames_impaired += 1
            else:
                self.frames_in_flight += 1
                self.sim.schedule(
                    tx_time + self.delay + extra_delay, self._deliver, frame, device
                )
            self.sim.schedule(tx_time, self._release, device)
            return

    def _release(self, device: "CsmaNetDevice") -> None:
        self._busy = False
        if not device.queue.is_empty:
            self.request(device)
        else:
            self._serve()

    def _deliver(self, frame: Packet, sender: "CsmaNetDevice") -> None:
        self.frames_in_flight -= 1
        self.frames_delivered += 1
        for probe in self._probes:
            probe(frame, self.sim.now)
        assert frame.eth is not None
        dst = frame.eth.dst.value
        if dst == _BROADCAST:
            for device in list(self._devices):
                if device is not sender:
                    device.receive(frame)
            return
        target = self._by_mac.get(dst)
        if target is not None and target is not sender:
            target.receive(frame)
        for device in list(self._promiscuous):
            if device is not sender and device is not target:
                device.receive(frame)


class CsmaNetDevice:
    """A network interface attaching one node to a CSMA channel."""

    def __init__(
        self,
        channel: CsmaChannel,
        mac: MacAddress,
        queue_capacity: int = 512,
    ) -> None:
        self.channel = channel
        self.mac = mac
        self.queue = DropTailQueue(queue_capacity)
        self.queue.bind_obs(f"txq:{mac}", lambda: channel.sim.now)
        self.node: "Node | None" = None
        self.promiscuous = False
        self.attached = False
        #: Set while the device is in the channel's FIFO of waiters.
        self.waiting = False
        #: This device's Ethernet headers keyed by destination
        #: ``MacAddress.value``: immutable, so one per destination serves
        #: every frame sent to it.
        self._eth_headers: dict[int, EthernetHeader] = {}
        self.tx_count = 0
        self.rx_count = 0
        self._rx_callbacks: list[Callable[[Packet], None]] = []
        channel.attach(self)
        if channel.sim.sanitizer is not None:
            channel.sim.sanitizer.register_queue(f"txq:{mac}", self.queue)

    def add_rx_callback(self, callback: Callable[[Packet], None]) -> None:
        """Observe frames accepted by this device (after MAC filtering)."""
        self._rx_callbacks.append(callback)

    def remove_rx_callback(self, callback: Callable[[Packet], None]) -> None:
        """Detach a previously-registered observer (tap teardown)."""
        if callback in self._rx_callbacks:
            self._rx_callbacks.remove(callback)

    def set_promiscuous(self, enabled: bool) -> None:
        """Toggle promiscuous mode, keeping the channel registry in sync."""
        self.promiscuous = enabled
        self.channel.update_promiscuous(self)

    def send(self, packet: Packet, dst_mac: MacAddress) -> bool:
        """Frame ``packet`` and queue it for transmission.

        Returns False if the device is off the medium (churned away) or
        the transmit queue dropped the frame.
        """
        if not self.attached:
            return False
        try:
            eth = self._eth_headers[dst_mac.value]
        except KeyError:
            eth = self._eth_headers[dst_mac.value] = EthernetHeader(self.mac, dst_mac)
        frame = packet.with_eth(eth)
        accepted = self.queue.enqueue(frame)
        if accepted:
            self.tx_count += 1
            self.channel.request(self)
        return accepted

    def receive(self, frame: Packet) -> None:
        """Channel delivers a frame; filter by MAC unless promiscuous."""
        assert frame.eth is not None
        dst = frame.eth.dst.value
        is_mine = dst == self.mac.value or dst == _BROADCAST
        if not is_mine and not self.promiscuous:
            return
        self.rx_count += 1
        for callback in self._rx_callbacks:
            callback(frame)
        if is_mine and self.node is not None:
            self.node.receive(frame, self)

    def detach(self) -> None:
        """Leave the channel (device churn)."""
        self.channel.detach(self)
