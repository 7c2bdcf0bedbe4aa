"""Scenario configuration for testbed runs.

A :class:`Scenario` is the testbed's "compose file plus experiment
script": how many Devs, what benign mix they generate, how fast the LAN
is, and which botnet DDoS attacks fire when.  The paper's evaluation uses
two runs — a dataset-generation run for training and a shorter run for
real-time detection — whose default schedules are provided by
:meth:`Scenario.training_schedule` and :meth:`Scenario.detection_schedule`.

Rates here are scaled down from the paper's hardware testbed (which
pushed ~8.7k packets/s for 10 minutes); every knob is a parameter, and
the class balance target (~57% malicious, §IV-D) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.faults.plan import FaultPlan, FaultSpec
from repro.ids.defense import MitigationPlan


@dataclass(frozen=True)
class AttackPhase:
    """One attack order: when, what, how hard."""

    start: float
    kind: str  # "syn" | "ack" | "udp"
    duration: float
    pps_per_bot: float
    target_port: int = 80

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0 or self.pps_per_bot <= 0:
            raise ValueError(f"malformed attack phase: {self}")


@dataclass
class Scenario:
    """Full testbed configuration."""

    n_devices: int = 6
    seed: int = 7
    data_rate: str = "100Mbps"
    channel_delay: str = "6.56us"
    subnet: str = "10.0.0.0"
    window_seconds: float = 1.0
    # Benign traffic shape
    mean_session_interval: float = 7.0
    mean_dns_interval: float = 2.0
    rtmp_bitrate_bps: float = 200_000.0
    rtmp_chunk_interval: float = 0.1
    rtmp_min_duration: float = 4.0
    rtmp_max_duration: float = 10.0
    ftp_min_file_bytes: int = 50_000
    ftp_max_file_bytes: int = 400_000
    http_weight: float = 0.55
    ftp_weight: float = 0.15
    rtmp_weight: float = 0.30
    # Botnet
    cnc_port: int = 2323
    self_propagate: bool = False
    # Hierarchical topology: devices per leaf CSMA segment behind a
    # router on the backbone; 0 keeps the paper's flat single-segment
    # LAN (the seed-stable default).
    devices_per_segment: int = 0
    # Device churn (0 disables): mean seconds between churn events, and
    # how long a churned device stays offline.
    churn_interval: float = 0.0
    churn_downtime: float = 5.0
    # Fault injection: applied to every capture phase when set (capture()
    # also accepts a per-phase plan that overrides this).
    fault_plan: FaultPlan | None = None
    # Mitigation: when set, the detect-phase pipeline deploys the
    # detect→mitigate→recover loop (mode="monitor" measures undefended).
    mitigation_plan: MitigationPlan | None = None

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError(f"need at least one device, got {self.n_devices}")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.devices_per_segment < 0:
            raise ValueError(
                f"devices_per_segment must be >= 0, got {self.devices_per_segment}"
            )

    # ------------------------------------------------------------------
    # JSON round-trip (cache keys, campaign grids)

    def to_dict(self) -> dict:
        """JSON-serializable form of the full configuration.

        The dict is flat (one key per dataclass field) except
        ``fault_plan``, which nests :meth:`FaultPlan.to_dict` (or None).
        Field order follows the dataclass definition, so canonical-JSON
        dumps of two equal scenarios are byte-identical.
        """
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in ("fault_plan", "mitigation_plan"):
                value = value.to_dict() if value is not None else None
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict`.

        Goes through ``__init__``, so ``__post_init__`` validation fires
        exactly as it would for a hand-written scenario.  Unknown keys
        are rejected (they signal a schema mismatch, not extra data).
        """
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown Scenario field(s): {sorted(unknown)}")
        data = dict(payload)
        plan = data.get("fault_plan")
        if plan is not None:
            data["fault_plan"] = FaultPlan.from_dict(plan)
        mitigation = data.get("mitigation_plan")
        if mitigation is not None:
            data["mitigation_plan"] = MitigationPlan.from_dict(mitigation)
        return cls(**data)

    def training_schedule(self, duration: float = 60.0, pps_per_bot: float = 250.0) -> list[AttackPhase]:
        """The dataset-generation run: three short, hard flood bursts.

        High per-bot rates over short bursts reproduce both the Mirai
        volumetric signature and the paper's dataset balance (~57 %
        malicious packets): each burst covers ~4.5 % of the run but emits
        an order of magnitude more packets per second than the benign
        fleet.
        """
        # Bursts are aligned to whole seconds so every attack window in
        # the training capture carries the full flood rate (window
        # alignment is how the paper's 1 s aggregation sees a steady
        # full-rate Mirai flood).
        burst = max(2.0, round(duration * 0.065))
        return [
            AttackPhase(start=round(duration * 0.18), kind="syn", duration=burst, pps_per_bot=pps_per_bot),
            AttackPhase(start=round(duration * 0.45), kind="ack", duration=burst, pps_per_bot=pps_per_bot),
            AttackPhase(start=round(duration * 0.75), kind="udp", duration=burst, pps_per_bot=pps_per_bot),
        ]

    def detection_schedule(self, duration: float = 30.0, pps_per_bot: float = 60.0) -> list[AttackPhase]:
        """The real-time detection run.

        Longer bursts at much lower per-bot rates: the live botnet is not
        a carbon copy of the training run (fewer active bots, throttled
        floods), which is what exposes models that memorised the training
        run's absolute volume statistics.
        """
        burst = duration * 0.15
        return [
            AttackPhase(start=duration * 0.10, kind="syn", duration=burst, pps_per_bot=pps_per_bot),
            AttackPhase(start=duration * 0.40, kind="ack", duration=burst, pps_per_bot=pps_per_bot),
            AttackPhase(start=duration * 0.72, kind="udp", duration=burst, pps_per_bot=pps_per_bot),
        ]

    def default_fault_schedule(self, duration: float = 30.0) -> FaultPlan:
        """The stock "attack under churn" fault plan for a detection run.

        Aligned against :meth:`detection_schedule`: moderate Bernoulli
        loss spans the first two flood bursts, a link partition severs a
        device during the second burst, and a device-container crash with
        ``on-failure`` restart lands between the second and third — so
        the run exercises every supervision path while attacks fire.
        """
        victim = f"dev-{self.n_devices - 1}"
        return FaultPlan.of(
            FaultSpec(
                kind="loss",
                start=round(duration * 0.10),
                duration=round(duration * 0.45),
                rate=0.05,
            ),
            FaultSpec(
                kind="partition",
                start=round(duration * 0.40),
                duration=max(2.0, round(duration * 0.12)),
                targets=("dev-0",),
            ),
            FaultSpec(
                kind="kill",
                start=round(duration * 0.60),
                duration=max(2.0, round(duration * 0.10)),
                targets=(victim,),
                restart="on-failure",
            ),
            seed=self.seed,
        )

    def chaos_fault_schedule(self, duration: float = 30.0) -> FaultPlan:
        """Faults aimed squarely at the *defense*, not just the fleet.

        The mitigation chaos scenario: the IDS container is killed
        mid-flood (supervised ``on-failure`` restart), the victim's link
        flaps, and the IDS link is partitioned late in the run — every
        trigger of the mitigation fallback state machine fires while
        attacks are underway.  Only meaningful on runs with a
        :class:`~repro.ids.defense.MitigationPlan` set (the ``ids``
        container exists only then).
        """
        return FaultPlan.of(
            FaultSpec(
                kind="kill",
                start=round(duration * 0.45),
                duration=max(2.0, round(duration * 0.10)),
                targets=("ids",),
                restart="on-failure",
            ),
            FaultSpec(
                kind="partition",
                start=round(duration * 0.58),
                duration=max(1.0, round(duration * 0.07)),
                targets=("tserver",),
            ),
            FaultSpec(
                kind="partition",
                start=round(duration * 0.75),
                duration=max(1.0, round(duration * 0.07)),
                targets=("ids",),
            ),
            seed=self.seed,
        )


#: Attack phases used when none are supplied (kept for doc examples).
DEFAULT_TRAINING_DURATION = 60.0
DEFAULT_DETECTION_DURATION = 30.0
