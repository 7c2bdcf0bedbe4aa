"""Declarative fault plans: what breaks, when, and how badly.

A :class:`FaultPlan` is the fault-side analogue of the attack schedule: a
list of :class:`FaultSpec` entries, each describing one impairment with a
start time, a duration, targets, and model parameters.  Plans are pure
data — the :class:`~repro.faults.injector.FaultInjector` and the
container supervisor interpret them against a running testbed — so the
same plan replays identically under the same seed.

Times are relative to the start of the capture phase the plan is applied
to, exactly like :class:`~repro.testbed.scenario.AttackPhase.start`.

Fault kinds
-----------

``loss``
    Bernoulli packet loss: every frame sent by a target is dropped
    independently with probability ``rate``.
``burst-loss``
    Gilbert–Elliott two-state burst loss: a good state losing frames
    with probability ``loss_good`` and a bad state losing them with
    ``loss_bad``, with per-frame transition probabilities ``p_bad``
    (good→bad) and ``p_good`` (bad→good).  Models the correlated loss of
    interference/overload that Bernoulli loss cannot.
``corrupt``
    Bit corruption at probability ``rate``; the corrupted frame occupies
    the wire but fails the receiver's checksum verify and is discarded.
``jitter``
    Added delivery delay, uniform in ``[0, jitter]`` seconds per frame.
``partition``
    Timed link partition: target devices are severed from the medium at
    ``start`` and rejoin at ``start + duration``.  In-flight transmit
    queues are flushed (counted in ``DropTailQueue.flushed``).
``kill``
    Container crash at ``start``: processes die and the tap is unplugged.
    ``restart`` names the supervision policy the orchestrator applies
    (``no`` | ``on-failure``); ``duration`` bounds the expected blind
    window used for degraded-accuracy scoring (it does not delay the
    restart — backoff does).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

FAULT_KINDS = ("loss", "burst-loss", "corrupt", "jitter", "partition", "kill")
RESTART_MODES = ("no", "on-failure")

#: Wildcard target: every device on the LAN.
ALL_TARGETS = "*"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled impairment."""

    kind: str
    start: float
    duration: float = 0.0
    targets: tuple[str, ...] = (ALL_TARGETS,)
    # Bernoulli loss / corruption probability per frame.
    rate: float = 0.0
    # Jitter: max extra delivery delay in seconds (uniform [0, jitter]).
    jitter: float = 0.0
    # Gilbert-Elliott parameters.
    p_bad: float = 0.05
    p_good: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 1.0
    # Restart policy applied to killed containers.
    restart: str = "no"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if self.kind != "kill" and self.duration <= 0:
            raise ValueError(f"{self.kind} fault needs a positive duration, got {self.duration}")
        if not self.targets:
            raise ValueError("fault targets must not be empty")
        if self.kind in ("loss", "corrupt") and not 0.0 < self.rate <= 1.0:
            raise ValueError(f"{self.kind} fault needs rate in (0, 1], got {self.rate}")
        if self.kind == "jitter" and self.jitter <= 0:
            raise ValueError(f"jitter fault needs a positive jitter, got {self.jitter}")
        if self.kind == "burst-loss":
            for name in ("p_bad", "p_good", "loss_good", "loss_bad"):
                value = getattr(self, name)
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"burst-loss {name} must be in [0, 1], got {value}")
        if self.kind == "kill":
            if self.restart not in RESTART_MODES:
                raise ValueError(
                    f"kill restart must be one of {RESTART_MODES}, got {self.restart!r}"
                )
            if ALL_TARGETS in self.targets:
                raise ValueError("kill faults need explicit container targets")

    @property
    def stop(self) -> float:
        """Absolute (plan-relative) end time of the impairment."""
        return self.start + self.duration

    def matches(self, name: str) -> bool:
        """Whether this spec targets the device/container ``name``.

        Ghost nodes are named ``ghost-<container>``; both forms match.
        """
        if ALL_TARGETS in self.targets:
            return True
        bare = name[6:] if name.startswith("ghost-") else name
        return name in self.targets or bare in self.targets

    def to_dict(self) -> dict:
        """JSON-serializable form (used for cache keys and campaign grids)."""
        payload = asdict(self)
        payload["targets"] = list(self.targets)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict`; validation re-fires."""
        data = dict(payload)
        data["targets"] = tuple(data.get("targets", (ALL_TARGETS,)))
        return cls(**data)

    def describe(self) -> str:
        params = {
            "loss": f"rate={self.rate}",
            "corrupt": f"rate={self.rate}",
            "jitter": f"jitter={self.jitter}s",
            "burst-loss": f"p_bad={self.p_bad} p_good={self.p_good} loss_bad={self.loss_bad}",
            "partition": "",
            "kill": f"restart={self.restart}",
        }[self.kind]
        window = f"t={self.start:g}" + ("" if self.kind == "kill" else f"..{self.stop:g}")
        return f"{self.kind}[{','.join(self.targets)}] {window} {params}".rstrip()


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs plus the RNG seed driving them."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def of(cls, *specs: FaultSpec, seed: int = 0) -> "FaultPlan":
        return cls(specs=tuple(specs), seed=seed)

    def __post_init__(self) -> None:
        if not all(isinstance(spec, FaultSpec) for spec in self.specs):
            raise TypeError("FaultPlan.specs must contain FaultSpec entries")

    def to_dict(self) -> dict:
        """JSON-serializable form: ``{"seed": ..., "specs": [...]}``."""
        return {"seed": self.seed, "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict`; spec validation re-fires."""
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in payload.get("specs", ())),
            seed=int(payload.get("seed", 0)),
        )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def until(self) -> float:
        """When the last impairment ends (0.0 for an empty plan)."""
        return max((spec.stop for spec in self.specs), default=0.0)

    def wire_specs(self) -> list[FaultSpec]:
        """Specs the channel-level injector interprets."""
        return [s for s in self.specs if s.kind != "kill"]

    def kill_specs(self) -> list[FaultSpec]:
        """Specs the container supervisor interprets."""
        return [s for s in self.specs if s.kind == "kill"]

    def degraded_intervals(self) -> list[tuple[float, float]]:
        """(start, stop) windows in which IDS visibility is impaired.

        Partitions and kills blind the IDS tap to the affected traffic;
        heavy loss regimes distort it.  These intervals feed
        :meth:`repro.ids.engine.RealTimeIds.mark_degraded` so affected
        windows are scored separately from healthy ones.
        """
        intervals: list[tuple[float, float]] = []
        for spec in self.specs:
            if spec.kind == "partition":
                intervals.append((spec.start, spec.stop))
            elif spec.kind == "kill":
                # Until the supervisor restarts the container the traffic
                # it should emit is missing; bound the blind window by the
                # first restart backoff (callers may extend it).
                intervals.append((spec.start, spec.stop if spec.duration > 0 else spec.start + 1.0))
        return _merge_intervals(intervals)


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge overlapping (start, stop) pairs into a sorted disjoint list."""
    merged: list[tuple[float, float]] = []
    for start, stop in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return merged
