"""Channel-level fault injection: scheduled wire impairments.

The :class:`FaultInjector` installs itself as the
:class:`~repro.sim.channel.ChannelImpairment` hook of a
:class:`~repro.sim.channel.CsmaChannel` and interprets the wire-level
entries of a :class:`~repro.faults.plan.FaultPlan`: Bernoulli loss,
Gilbert–Elliott burst loss, bit corruption (discarded on the receiver's
checksum verify), delay jitter, and timed link partitions.  All
randomness is drawn from one seeded RNG, so a plan replays identically
for the same seed — faults are experimental conditions, not noise.

Every activation, deactivation and partition edge is recorded as a
``fault.<action>`` :class:`~repro.obs.events.ObsEvent` in the run log
the injector is given (:attr:`FaultInjector.events`; the testbed hands
over its own).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import obs
from repro.faults.plan import ALL_TARGETS, FaultPlan, FaultSpec
from repro.obs.events import EventLog
from repro.sim.channel import ChannelImpairment, CsmaChannel, CsmaNetDevice
from repro.sim.core import Simulator
from repro.sim.packet import Packet


class GilbertElliott:
    """Two-state Markov loss model (good/bad) for correlated burst loss."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.bad = False
        self.transitions = 0

    def drops(self, rng: random.Random) -> bool:
        """Advance one frame through the chain; True if the frame is lost."""
        flip = rng.random()
        if self.bad:
            if flip < self.spec.p_good:
                self.bad = False
                self.transitions += 1
        else:
            if flip < self.spec.p_bad:
                self.bad = True
                self.transitions += 1
        loss = self.spec.loss_bad if self.bad else self.spec.loss_good
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return rng.random() < loss


@dataclass
class _ActiveWireFault:
    """A wire spec currently in force, plus its per-spec model state."""

    spec: FaultSpec
    model: GilbertElliott | None = None
    frames_hit: int = 0


class FaultInjector(ChannelImpairment):
    """Applies a fault plan's wire impairments to one CSMA channel."""

    def __init__(
        self,
        sim: Simulator,
        channel: CsmaChannel,
        seed: int = 0,
        events: EventLog | None = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.rng = random.Random(seed)
        self._active: list[_ActiveWireFault] = []
        self._partitions: dict[int, list[CsmaNetDevice]] = {}
        self._resolve = None  # name -> CsmaNetDevice, set by schedule_plan
        self.events = events if events is not None else obs.run_log()
        self.frames_lost = 0
        self.frames_corrupted = 0
        self.frames_delayed = 0
        self.extra_delay_total = 0.0
        channel.set_fault_injector(self)

    # ------------------------------------------------------------------
    # Plan scheduling

    def schedule_plan(
        self,
        plan: FaultPlan,
        resolve_device=None,
        base: float | None = None,
    ) -> None:
        """Schedule every wire-level spec of ``plan`` on the simulator.

        ``resolve_device(name)`` maps a target name to the
        :class:`CsmaNetDevice` it partitions (required for named
        partition targets).  Times are relative to ``base`` (default:
        now), matching attack-phase semantics.
        """
        if resolve_device is not None:
            self._resolve = resolve_device
        start_at = self.sim.now if base is None else base
        for spec in plan.wire_specs():
            offset = start_at - self.sim.now
            if spec.kind == "partition":
                self.sim.schedule(offset + spec.start, self._start_partition, spec)
                self.sim.schedule(offset + spec.stop, self._end_partition, spec)
            else:
                self.sim.schedule(offset + spec.start, self._activate, spec)
                self.sim.schedule(offset + spec.stop, self._deactivate, spec)

    def _activate(self, spec: FaultSpec) -> None:
        model = GilbertElliott(spec) if spec.kind == "burst-loss" else None
        self._active.append(_ActiveWireFault(spec, model))
        self._log("activate", spec)

    def _deactivate(self, spec: FaultSpec) -> None:
        for active in list(self._active):
            if active.spec is spec:
                self._active.remove(active)
                self._log("deactivate", spec, note=f"frames_hit={active.frames_hit}")

    def _start_partition(self, spec: FaultSpec) -> None:
        devices = self._partition_targets(spec)
        severed: list[CsmaNetDevice] = []
        for device in devices:
            if device.attached:
                # Sever on the device's own channel: a named target may
                # live on a leaf segment of a hierarchical topology, not
                # on the injector's (backbone) channel.
                device.channel.detach(device)  # flushes the TX queue (counted)
                severed.append(device)
        self._partitions[id(spec)] = severed
        self._log("partition", spec, note=f"severed={len(severed)}")

    def _end_partition(self, spec: FaultSpec) -> None:
        for device in self._partitions.pop(id(spec), []):
            if not device.attached:
                device.channel.attach(device)
        self._log("heal", spec)

    def _partition_targets(self, spec: FaultSpec) -> list[CsmaNetDevice]:
        if ALL_TARGETS in spec.targets:
            return list(self.channel._devices)
        if self._resolve is None:
            raise RuntimeError(
                "named partition targets need a resolve_device mapping "
                "(pass one to schedule_plan)"
            )
        return [self._resolve(name) for name in spec.targets]

    # ------------------------------------------------------------------
    # Per-frame impairment (ChannelImpairment interface)

    def impair(
        self, frame: Packet, sender: CsmaNetDevice, now: float
    ) -> tuple[bool, float]:
        extra_delay = 0.0
        sender_name = sender.node.name if sender.node is not None else ""
        for active in self._active:
            spec = active.spec
            if not spec.matches(sender_name):
                continue
            if spec.kind == "loss":
                if self.rng.random() < spec.rate:
                    active.frames_hit += 1
                    self.frames_lost += 1
                    return True, 0.0
            elif spec.kind == "burst-loss":
                assert active.model is not None
                if active.model.drops(self.rng):
                    active.frames_hit += 1
                    self.frames_lost += 1
                    return True, 0.0
            elif spec.kind == "corrupt":
                if self.rng.random() < spec.rate:
                    # The frame occupies the wire but arrives with flipped
                    # bits; the receiving NIC's checksum verify discards it.
                    active.frames_hit += 1
                    self.frames_corrupted += 1
                    return True, 0.0
            elif spec.kind == "jitter":
                delay = self.rng.uniform(0.0, spec.jitter)
                active.frames_hit += 1
                self.frames_delayed += 1
                self.extra_delay_total += delay
                extra_delay += delay
        return False, extra_delay

    # ------------------------------------------------------------------

    @property
    def active_faults(self) -> list[FaultSpec]:
        """Wire specs currently in force (partitions tracked separately)."""
        return [active.spec for active in self._active]

    @property
    def partitioned_devices(self) -> int:
        return sum(len(devices) for devices in self._partitions.values())

    def _log(self, action: str, spec: FaultSpec, note: str = "") -> None:
        self.events.record(
            self.sim.now, f"fault.{action}", spec.kind, targets=spec.targets, note=note
        )

    def detach(self) -> None:
        """Remove the injector from its channel (end of a fault phase)."""
        if self.channel.fault_injector is self:
            self.channel.set_fault_injector(None)
