"""Concrete pipeline stages for the paper's §IV-D experiment flows.

The DAG (clean flow; the fault variant arms a plan on the detect
capture):

    build ──► capture-train ──► train-models ──┐
                    │                          ├──► detect
                    └────► capture-detect ─────┘

``build``, ``capture-train`` and ``capture-detect`` thread the live
testbed (the running simulator) through the pipeline context;
``train-models`` and ``detect`` are pure functions of upstream
artifacts, so a run whose captures are cached trains and detects without
ever building a testbed — and a fully cached run executes nothing.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

from repro import obs
from repro.capture import TrafficDataset
from repro.faults import FaultPlan
from repro.features.pipeline import FeatureExtractor
from repro.ids.defense import MitigationPlan, compute_recovery_metrics
from repro.ids.report import DetectionReport
from repro.ml.metrics import ClassificationReport
from repro.ml.serialization import ModelBundle, load_model_bundle, save_model_bundle
from repro.obs.events import events_from_dicts
from repro.pipeline.stage import (
    PipelineContext,
    PipelineResult,
    PipelineRunner,
    Stage,
)
from repro.pipeline.store import ArtifactStore
from repro.testbed.builder import Testbed
from repro.testbed.experiment import (
    ExperimentResult,
    FaultExperimentResult,
    ModelSpec,
    TrainedModel,
    run_realtime_detection,
    train_models,
)
from repro.testbed.impact import attach_victim_monitor
from repro.testbed.scenario import AttackPhase, Scenario

#: Live-state resource name for the running testbed.
TESTBED_STATE = "testbed"


def spec_fingerprint(spec: ModelSpec) -> dict:
    """The cache-relevant identity of a :class:`ModelSpec`.

    Covers every declarative field; the model *factory* is a callable
    and cannot be hashed, so two specs differing only in factory
    hyper-parameters must also differ in ``name`` to be cached apart.
    """
    stat_set = spec.stat_set
    return {
        "name": spec.name,
        "stat_set": list(stat_set) if not isinstance(stat_set, str) else stat_set,
        "include_details": spec.include_details,
        "include_timestamp": spec.include_timestamp,
        "include_ips": spec.include_ips,
        "scale": spec.scale,
    }


class BuildTestbedStage(Stage):
    """Assemble Figure 1 and run the Mirai infection lifecycle."""

    name = "build"
    provides_state = (TESTBED_STATE,)

    def run(self, ctx: PipelineContext, inputs: dict[str, Any]) -> dict:
        testbed = Testbed(ctx.scenario).build()
        infection_seconds = testbed.infect_all()
        ctx.state[TESTBED_STATE] = testbed
        # Sanitizer teardown once the whole pipeline has finished.
        ctx.add_finalizer(testbed.sim.finalize)
        return {"infection_seconds": infection_seconds}

    def save(self, value: dict, directory: Path) -> None:
        (directory / "build.json").write_text(json.dumps(value, sort_keys=True))

    def load(self, directory: Path) -> dict:
        return json.loads((directory / "build.json").read_text())


@dataclass
class CaptureArtifact:
    """A labelled capture plus the capture-phase metadata detection needs.

    ``meta["events"]`` is the capture's slice of the testbed run log, as
    :meth:`~repro.obs.events.ObsEvent.to_dict` rows.  ``mitigation`` is
    populated only by :class:`MitigateStage`: the plan, attack spans,
    the controller's summary, victim impact samples, and the folded
    :class:`~repro.ids.defense.RecoveryMetrics`.
    """

    dataset: TrafficDataset
    meta: dict
    mitigation: dict | None = None


class CaptureStage(Stage):
    """Record one labelled capture phase on the live testbed.

    The capture runs under the stage's ``fault_plan`` or, when that is
    None, under ``scenario.fault_plan`` (the capture key still covers it
    through the scenario dict).  The artifact metadata records the
    events the capture added to the run log; with a plan armed, also
    that plan's absolute degraded intervals, the nominal end time and
    the restart counts, so the downstream detect stage stays pure and
    scores the same windows whichever entry point built the DAG.
    """

    requires_state = (TESTBED_STATE,)
    provides_state = (TESTBED_STATE,)  # the capture advances the sim clock

    def __init__(
        self,
        name: str,
        duration: float,
        schedule: Sequence[AttackPhase],
        deps: tuple[str, ...],
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.name = name
        self.deps = deps
        self.duration = duration
        self.schedule = list(schedule)
        self.fault_plan = fault_plan

    def params(self) -> dict:
        return {
            "duration": self.duration,
            "schedule": [asdict(phase) for phase in self.schedule],
            "fault_plan": self.fault_plan.to_dict() if self.fault_plan else None,
        }

    def run(self, ctx: PipelineContext, inputs: dict[str, Any]) -> CaptureArtifact:
        testbed: Testbed = ctx.state[TESTBED_STATE]
        plan = self.fault_plan if self.fault_plan is not None else testbed.scenario.fault_plan
        base = testbed.sim.now
        first = len(testbed.events)
        dataset = testbed.capture(self.duration, self.schedule, fault_plan=plan)
        meta: dict = {
            "base": base,
            "end": testbed.sim.now,
            "events": [event.to_dict() for event in testbed.events.events[first:]],
        }
        if plan is not None:
            meta["until"] = base + self.duration
            meta["degraded_intervals"] = [
                [base + start, base + stop]
                for start, stop in plan.degraded_intervals()
            ]
            meta["restarts"] = {
                name: container.restart_count
                for name, container in testbed.orchestrator.containers.items()
                if container.restart_count
            }
        return CaptureArtifact(dataset=dataset, meta=meta)

    def save(self, value: CaptureArtifact, directory: Path) -> None:
        value.dataset.save(directory / "capture.csv")
        (directory / "meta.json").write_text(json.dumps(value.meta, sort_keys=True))
        if value.mitigation is not None:
            (directory / "mitigation.json").write_text(
                json.dumps(value.mitigation, sort_keys=True)
            )

    def load(self, directory: Path) -> CaptureArtifact:
        mitigation_path = directory / "mitigation.json"
        return CaptureArtifact(
            dataset=TrafficDataset.load(directory / "capture.csv"),
            meta=json.loads((directory / "meta.json").read_text()),
            mitigation=(
                json.loads(mitigation_path.read_text())
                if mitigation_path.exists()
                else None
            ),
        )


class MitigateStage(CaptureStage):
    """A detect capture with the detect→mitigate→recover loop deployed.

    Keeps the ``capture-detect`` stage name so the DAG shape (and the
    downstream :class:`DetectStage`) is identical to an undefended run;
    the :class:`~repro.ids.defense.MitigationPlan` enters the cache key
    via :meth:`params`.  Needs ``train-models`` as an extra dep: the live
    IDS runs the plan's trained model against the tap in real time.
    """

    def __init__(
        self,
        name: str,
        duration: float,
        schedule: Sequence[AttackPhase],
        deps: tuple[str, ...],
        plan: MitigationPlan,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(name, duration, schedule, deps=deps, fault_plan=fault_plan)
        self.plan = plan

    def params(self) -> dict:
        payload = super().params()
        payload["mitigation_plan"] = self.plan.to_dict()
        return payload

    def run(self, ctx: PipelineContext, inputs: dict[str, Any]) -> CaptureArtifact:
        testbed: Testbed = ctx.state[TESTBED_STATE]
        trained: list[TrainedModel] = inputs["train-models"]
        match = next((t for t in trained if t.name == self.plan.model), None)
        if match is None:
            names = ", ".join(t.name for t in trained)
            raise ValueError(
                f"mitigation plan wants model {self.plan.model!r}; trained: {names}"
            )
        first = len(testbed.events)
        controller = testbed.install_mitigation(self.plan, match)
        monitor = attach_victim_monitor(testbed.tserver)
        base = testbed.sim.now
        try:
            artifact = super().run(ctx, inputs)
        finally:
            monitor.stop()
            testbed.uninstall_mitigation()
        # Teardown flushes the last lazy expiries into the log: slice after it.
        events = testbed.events.events[first:]
        artifact.meta["events"] = [event.to_dict() for event in events]
        spans = [
            (base + phase.start, base + phase.start + phase.duration)
            for phase in self.schedule
        ]
        recovery = compute_recovery_metrics(
            monitor.series,
            events,
            spans,
            malicious_srcs=controller.malicious_srcs,
            blocked_srcs=controller.blocked_ever,
        )
        artifact.mitigation = {
            "plan": self.plan.to_dict(),
            "attack_spans": [[start, end] for start, end in spans],
            "summary": controller.summary(),
            "recovery": recovery.to_dict(),
            "impact": [asdict(sample) for sample in monitor.series.samples],
        }
        return artifact


class TrainModelsStage(Stage):
    """Fit every :class:`ModelSpec` on the training capture (pure)."""

    name = "train-models"
    deps = ("capture-train",)

    def __init__(self, specs: Sequence[ModelSpec] | None = None, test_fraction: float = 0.3) -> None:
        self.specs = list(specs) if specs is not None else None
        self.test_fraction = test_fraction

    def params(self) -> dict:
        return {
            "test_fraction": self.test_fraction,
            "specs": (
                "default"
                if self.specs is None
                else [spec_fingerprint(spec) for spec in self.specs]
            ),
        }

    def run(self, ctx: PipelineContext, inputs: dict[str, Any]) -> list[TrainedModel]:
        capture: CaptureArtifact = inputs["capture-train"]
        return train_models(
            capture.dataset,
            specs=self.specs,
            window_seconds=ctx.scenario.window_seconds,
            test_fraction=self.test_fraction,
            seed=ctx.scenario.seed,
        )

    def save(self, value: list[TrainedModel], directory: Path) -> None:
        manifest = []
        for index, item in enumerate(value):
            bundle_dir = directory / f"model-{index:02d}"
            save_model_bundle(
                ModelBundle(
                    model=item.model,
                    scaler=item.scaler,
                    extractor_config=item.extractor.to_config(),
                    metadata={
                        "name": item.name,
                        "fit_seconds": item.fit_seconds,
                        "size_kb": item.size_kb,
                        "train_report": item.train_report.to_dict(),
                    },
                ),
                bundle_dir,
            )
            manifest.append({"name": item.name, "dir": bundle_dir.name})
        (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))

    def load(self, directory: Path) -> list[TrainedModel]:
        manifest = json.loads((directory / "manifest.json").read_text())
        trained = []
        for entry in manifest:
            bundle = load_model_bundle(directory / entry["dir"])
            meta = bundle.metadata
            trained.append(
                TrainedModel(
                    name=meta["name"],
                    model=bundle.model,
                    scaler=bundle.scaler,
                    extractor=FeatureExtractor.from_config(bundle.extractor_config),
                    train_report=ClassificationReport.from_dict(meta["train_report"]),
                    fit_seconds=meta["fit_seconds"],
                    size_kb=meta["size_kb"],
                )
            )
        return trained


class DetectStage(Stage):
    """Stream the detect capture through every trained model (pure)."""

    name = "detect"
    deps = ("train-models", "capture-detect")

    def run(self, ctx: PipelineContext, inputs: dict[str, Any]) -> list[DetectionReport]:
        capture: CaptureArtifact = inputs["capture-detect"]
        trained: list[TrainedModel] = inputs["train-models"]
        meta = capture.meta
        degraded = meta.get("degraded_intervals")
        return run_realtime_detection(
            capture.dataset,
            trained,
            window_seconds=ctx.scenario.window_seconds,
            degraded_intervals=(
                [(start, stop) for start, stop in degraded] if degraded is not None else None
            ),
            until=meta.get("until"),
        )

    def save(self, value: list[DetectionReport], directory: Path) -> None:
        payload = [report.to_dict() for report in value]
        (directory / "reports.json").write_text(json.dumps(payload, sort_keys=True))

    def load(self, directory: Path) -> list[DetectionReport]:
        payload = json.loads((directory / "reports.json").read_text())
        return [DetectionReport.from_dict(entry) for entry in payload]


# ----------------------------------------------------------------------
# Pipeline assembly


def experiment_stages(
    scenario: Scenario,
    train_duration: float,
    detect_duration: float,
    specs: Sequence[ModelSpec] | None = None,
    detect_fault_plan: FaultPlan | None = None,
) -> list[Stage]:
    """The §IV-D stage DAG, in topological order.

    When the scenario carries a :class:`MitigationPlan`, the detect
    capture is a :class:`MitigateStage` (same name, same downstream
    DAG) so defended runs stay five stages and cache-compatible.
    """
    if scenario.mitigation_plan is not None:
        detect_capture: Stage = MitigateStage(
            "capture-detect",
            detect_duration,
            scenario.detection_schedule(detect_duration),
            deps=("build", "capture-train", "train-models"),
            plan=scenario.mitigation_plan,
            fault_plan=detect_fault_plan,
        )
    else:
        detect_capture = CaptureStage(
            "capture-detect",
            detect_duration,
            scenario.detection_schedule(detect_duration),
            deps=("build", "capture-train"),
            fault_plan=detect_fault_plan,
        )
    return [
        BuildTestbedStage(),
        CaptureStage(
            "capture-train",
            train_duration,
            scenario.training_schedule(train_duration),
            deps=("build",),
        ),
        TrainModelsStage(specs=specs),
        detect_capture,
        DetectStage(),
    ]


def run_experiment_pipeline(
    scenario: Scenario | None = None,
    train_duration: float = 60.0,
    detect_duration: float = 30.0,
    specs: Sequence[ModelSpec] | None = None,
    fault_plan: FaultPlan | None = None,
    faults: bool = False,
    store: ArtifactStore | str | Path | None = None,
    telemetry: bool = False,
) -> tuple[ExperimentResult, PipelineResult]:
    """Run the staged §IV-D procedure and assemble the experiment result.

    With ``faults=True`` the detection capture runs under a fault plan
    (argument, then ``scenario.fault_plan``, then
    :meth:`Scenario.default_fault_schedule`) and the returned result is
    a :class:`FaultExperimentResult`.  ``store`` (an
    :class:`ArtifactStore` or a cache directory path) enables
    content-addressed caching; unchanged stages are served from disk
    without re-running the simulation.

    ``telemetry=True`` runs the pipeline inside a fresh
    :func:`repro.obs.scope` (unless one is already active, which is then
    reused) and attaches the snapshot — metrics, spans, events — to
    ``result.telemetry``.  Telemetry never participates in stage cache
    keys: the same store serves runs with and without it.
    """
    scenario = scenario or Scenario()
    plan: FaultPlan | None = None
    if faults:
        plan = fault_plan or scenario.fault_plan
        if plan is None:
            plan = scenario.default_fault_schedule(detect_duration)
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(Path(store))
    ambient = obs.current()
    scope_cm = obs.scope() if telemetry and not ambient.enabled else nullcontext(ambient)
    with scope_cm as octx:
        runner = PipelineRunner(
            experiment_stages(
                scenario, train_duration, detect_duration, specs=specs, detect_fault_plan=plan
            ),
            store=store,
        )
        try:
            outcome = runner.run(scenario)
        except Exception as exc:
            # Attach the flight-recorder postmortem to whatever killed
            # the run (SanitizerError already carries one; anything else
            # — a crash mid-stage — gets the ring as seen from here).
            if (
                octx.enabled
                and octx.flight is not None
                and getattr(exc, "flight_dump", None) is None
            ):
                exc.flight_dump = octx.flight.dump(registry=octx.registry)
            raise
        train_art: CaptureArtifact = outcome.value("capture-train")
        detect_art: CaptureArtifact = outcome.value("capture-detect")
        common = dict(
            scenario=scenario,
            train_summary=train_art.dataset.summary(),
            detect_summary=detect_art.dataset.summary(),
            trained=outcome.value("train-models"),
            detection=outcome.value("detect"),
            infection_seconds=outcome.value("build")["infection_seconds"],
            mitigation=detect_art.mitigation,
            events=events_from_dicts(detect_art.meta["events"]),
        )
        if not faults:
            result: ExperimentResult = ExperimentResult(**common)
        else:
            result = FaultExperimentResult(
                **common,
                fault_plan=plan,
                restarts=dict(detect_art.meta.get("restarts", {})),
            )
        if octx.enabled:
            result.telemetry = octx.snapshot()
    return result, outcome
