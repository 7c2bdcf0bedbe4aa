"""One-call experiment flows: generate → train → real-time detect.

These functions are the backbone of every benchmark: they reproduce the
paper's §IV-D procedure — run the testbed to build a labelled dataset,
train RF / K-Means / CNN on it (reporting accuracy/precision/recall/F1
on a held-out split), persist the models, then run a second live phase
and evaluate per-window real-time accuracy plus Table II sustainability.

Per-model feature views
-----------------------
Each :class:`ModelSpec` carries its own feature-pipeline configuration,
reflecting standard practice for each model family (and, as documented
in EXPERIMENTS.md, our hypothesis for the paper's Table I ordering):

* **RF** consumes the paper's literal §IV-A features — timestamp, ports,
  protocol, and the raw-count window statistics — unscaled, as trees
  need no normalisation.  Raw counts memorise the training run's flood
  *rates*; when the live botnet floods at a different rate, the learned
  thresholds misroute whole windows.
* **K-Means and CNN** require normalised inputs, so they consume the
  frequency-normalised statistics (scale-free ratios of the same §IV-A
  quantities) plus per-packet flag/size details, standardised.  Ratios
  stay in-distribution under rate shift, which is why these models keep
  detecting the live floods.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.capture import DatasetSummary, TrafficDataset
from repro.faults import FaultPlan
from repro.features.pipeline import FeatureExtractor
from repro.ids.defense import RecoveryMetrics
from repro.ids.engine import RealTimeIds, _IdentityScaler
from repro.ids.report import DetectionReport
from repro.ml import (
    CnnClassifier,
    KMeansDetector,
    RandomForestClassifier,
    StandardScaler,
    evaluate_classifier,
    model_size_kb,
    train_test_split,
)
from repro.ml.metrics import ClassificationReport
from repro.obs.events import ObsEvent
from repro.testbed.scenario import Scenario


@dataclass(frozen=True)
class ModelSpec:
    """A named model factory plus its feature-pipeline configuration."""

    name: str
    factory: Callable[[int], object]
    stat_set: str = "paper"
    include_details: bool = False
    include_timestamp: bool = True
    include_ips: bool = False
    scale: bool = True

    def make_extractor(self, window_seconds: float) -> FeatureExtractor:
        return FeatureExtractor(
            window_seconds=window_seconds,
            include_ips=self.include_ips,
            include_timestamp=self.include_timestamp,
            include_details=self.include_details,
            stat_set=self.stat_set,
        )


def default_model_specs(seed: int = 0) -> list[ModelSpec]:
    """The paper's three IDS models with calibrated configurations."""
    return [
        ModelSpec(
            "RF",
            lambda n, s=seed: RandomForestClassifier(
                n_estimators=60, max_depth=None, min_samples_leaf=4, random_state=s
            ),
            stat_set="paper",
            include_timestamp=True,
            scale=False,
        ),
        ModelSpec(
            "K-Means",
            lambda n, s=seed: KMeansDetector(n_clusters=40, random_state=s),
            stat_set="normalized",
            include_details=True,
            include_timestamp=False,
            scale=True,
        ),
        ModelSpec(
            "CNN",
            lambda n, s=seed: CnnClassifier(
                n_features=n,
                conv_channels=(16, 32),
                hidden=448,
                epochs=4,
                inference_batch=32,
                random_state=s,
            ),
            stat_set="normalized",
            include_details=True,
            include_timestamp=False,
            scale=True,
        ),
    ]


@dataclass
class TrainedModel:
    """A fitted model plus its training-phase evaluation and pipeline."""

    name: str
    model: object
    scaler: object
    extractor: FeatureExtractor
    train_report: ClassificationReport
    fit_seconds: float
    size_kb: float


def train_models(
    dataset: TrafficDataset,
    specs: Sequence[ModelSpec] | None = None,
    window_seconds: float = 1.0,
    test_fraction: float = 0.3,
    seed: int = 0,
) -> list[TrainedModel]:
    """Extract features, split, fit each model, report §IV-D train metrics."""
    specs = list(specs) if specs is not None else default_model_specs(seed)
    trained: list[TrainedModel] = []
    for spec in specs:
        extractor = spec.make_extractor(window_seconds)
        # One columnar batch per capture, shared by every model's pass.
        X, y, _ = extractor.transform(dataset.to_batch())
        if len(np.unique(y)) < 2:
            raise ValueError("training capture contains only one class")
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_fraction=test_fraction, seed=seed
        )
        scaler = StandardScaler().fit(X_train) if spec.scale else _IdentityScaler()
        X_train_s = scaler.transform(X_train)
        X_test_s = scaler.transform(X_test)
        model = spec.factory(X.shape[1])
        started = time.perf_counter()
        model.fit(X_train_s, y_train)
        fit_seconds = time.perf_counter() - started
        report = evaluate_classifier(y_test, model.predict(X_test_s))
        trained.append(
            TrainedModel(
                name=spec.name,
                model=model,
                scaler=scaler,
                extractor=extractor,
                train_report=report,
                fit_seconds=fit_seconds,
                size_kb=model_size_kb(model),
            )
        )
    return trained


def run_realtime_detection(
    capture: TrafficDataset,
    trained: Sequence[TrainedModel],
    window_seconds: float = 1.0,
    degraded_intervals: Sequence[tuple[float, float]] | None = None,
    until: float | None = None,
) -> list[DetectionReport]:
    """Stream the live capture through each model's real-time IDS.

    ``degraded_intervals`` are absolute ``(start, stop)`` fault spans the
    IDS should score with degraded verdicts; ``until`` is the capture's
    nominal end time so trailing outage windows get explicit verdicts.
    """
    reports = []
    for item in trained:
        ids = RealTimeIds(
            model=item.model,
            model_name=item.name,
            extractor=item.extractor,
            scaler=item.scaler,
            window_seconds=window_seconds,
        )
        for start, stop in degraded_intervals or []:
            ids.mark_degraded(start, stop)
        reports.append(ids.process(capture.to_batch(), until=until))
    return reports


@dataclass
class ExperimentResult:
    """Everything the paper's evaluation section reports."""

    scenario: Scenario
    train_summary: DatasetSummary
    detect_summary: DatasetSummary
    trained: list[TrainedModel] = field(default_factory=list)
    detection: list[DetectionReport] = field(default_factory=list)
    infection_seconds: float = 0.0
    #: Telemetry snapshot ({"metrics", "spans", "events"}) when the run
    #: executed inside an enabled obs scope; None otherwise.  Never part
    #: of pipeline cache keys.
    telemetry: dict | None = None
    #: Mitigation payload (plan, attack spans, summary, recovery, impact
    #: samples) when the scenario carried a MitigationPlan; None otherwise.
    mitigation: dict | None = None
    #: The detect capture's slice of the testbed run log: its fault,
    #: supervisor and mitigation events in recording order.
    events: list[ObsEvent] = field(default_factory=list)

    def table1(self) -> list[tuple[str, float]]:
        """(model, real-time mean accuracy %) rows."""
        return [(r.model_name, 100.0 * r.mean_accuracy) for r in self.detection]

    def fingerprint(self) -> str:
        """Bit-level run identity for equivalence checks.

        Hashes the dataset composition plus every model's per-window
        verdict rows — the quantities the paper's tables derive from.
        Two runs of the same scenario and seed must produce the same
        fingerprint under any claimed-equivalent execution (stages
        served from the artifact cache or recomputed, any
        ``REPRO_SHUFFLE`` seed); a difference means an
        order dependence leaked into results.  ``tests/goldens.json``
        pins it for ``paper-baseline`` at seeds 7 and 11.
        """

        def summary_row(summary: DatasetSummary) -> list:
            return [
                summary.total,
                summary.malicious,
                summary.benign,
                sorted(summary.by_attack.items()),
                repr(summary.duration),
            ]

        payload = {
            "train": summary_row(self.train_summary),
            "detect": summary_row(self.detect_summary),
            "windows": {
                report.model_name: [
                    [
                        w.window_index,
                        repr(w.start_time),
                        w.n_packets,
                        w.n_malicious_true,
                        w.n_malicious_predicted,
                        repr(w.accuracy),
                        w.status,
                    ]
                    for w in report.windows
                ]
                for report in self.detection
            },
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def table2(self, strict: bool = False) -> list[tuple[str, float, float, float]]:
        """(model, cpu %, memory Kb, model size Kb) rows.

        Models whose detection ran without sustainability metering
        (``report.sustainability is None``) are skipped rather than
        crashing; pass ``strict=True`` to raise a ``ValueError`` naming
        the unmetered models instead.
        """
        rows = []
        unmetered = []
        for report in self.detection:
            s = report.sustainability
            if s is None:
                unmetered.append(report.model_name)
                continue
            rows.append((report.model_name, s.cpu_percent, s.memory_kb, s.model_size_kb))
        if strict and unmetered:
            raise ValueError(
                f"no sustainability metrics for: {', '.join(unmetered)} "
                "(detection ran with metering disabled)"
            )
        return rows

    def training_metrics(self) -> list[tuple[str, float, float, float, float]]:
        """(model, accuracy, precision, recall, f1) on the held-out split."""
        return [
            (
                t.name,
                t.train_report.accuracy,
                t.train_report.precision,
                t.train_report.recall,
                t.train_report.f1,
            )
            for t in self.trained
        ]

    def recovery_metrics(self) -> "RecoveryMetrics | None":
        """The defended run's :class:`RecoveryMetrics` (None if undefended)."""
        if self.mitigation is None:
            return None
        return RecoveryMetrics.from_dict(self.mitigation["recovery"])

    def recovery_table(self) -> list[tuple[str, str]]:
        """(metric, value) rows for the mitigation summary (Table I/II kin)."""
        metrics = self.recovery_metrics()
        return metrics.rows() if metrics is not None else []


@dataclass
class FaultExperimentResult(ExperimentResult):
    """An :class:`ExperimentResult` whose detection run ran under faults."""

    fault_plan: FaultPlan | None = None
    restarts: dict[str, int] = field(default_factory=dict)

    @property
    def fault_events(self) -> list[ObsEvent]:
        """The ``fault.*`` entries of :attr:`events`."""
        return [e for e in self.events if e.kind.startswith("fault.")]

    def fault_table(self) -> list[tuple[str, float, float, float]]:
        """(model, availability, healthy accuracy %, degraded accuracy %)."""
        return [
            (
                r.model_name,
                r.availability,
                100.0 * r.healthy_accuracy,
                100.0 * r.degraded_accuracy,
            )
            for r in self.detection
        ]


def run_fault_experiment(
    scenario: Scenario | None = None,
    train_duration: float = 60.0,
    detect_duration: float = 30.0,
    specs: Sequence[ModelSpec] | None = None,
    fault_plan: FaultPlan | None = None,
    store: "object | str | None" = None,
    telemetry: bool = False,
) -> FaultExperimentResult:
    """§IV-D with an impaired detection run.

    The detection capture runs under a fault plan — the argument, then
    ``scenario.fault_plan``, then :meth:`Scenario.default_fault_schedule`.
    An argument or the default schedule impairs only the detection
    capture; a scenario's own plan applies to every capture, the
    training capture included (see ``Scenario.fault_plan``).  Every IDS
    is told the detection plan's degraded intervals so its report
    separates healthy from degraded accuracy.

    A thin composition over the staged pipeline
    (:func:`repro.pipeline.run_experiment_pipeline`): pass ``store`` (an
    :class:`~repro.pipeline.store.ArtifactStore` or cache directory) to
    serve unchanged stages from the content-addressed cache.
    """
    from repro.pipeline.stages import run_experiment_pipeline

    result, _ = run_experiment_pipeline(
        scenario=scenario,
        train_duration=train_duration,
        detect_duration=detect_duration,
        specs=specs,
        fault_plan=fault_plan,
        faults=True,
        store=store,
        telemetry=telemetry,
    )
    assert isinstance(result, FaultExperimentResult)
    return result


def run_full_experiment(
    scenario: Scenario | None = None,
    train_duration: float = 60.0,
    detect_duration: float = 30.0,
    specs: Sequence[ModelSpec] | None = None,
    store: "object | str | None" = None,
    telemetry: bool = False,
) -> ExperimentResult:
    """The complete §IV-D procedure on one testbed instance.

    A thin composition over the staged pipeline (BuildTestbed →
    CaptureTrain → TrainModels → CaptureDetect → Detect); results are
    byte-identical to the historical monolithic flow for the same seed.
    Pass ``store`` (an :class:`~repro.pipeline.store.ArtifactStore` or a
    cache directory path) to serve unchanged stages from the
    content-addressed cache.

    A scenario that carries a ``fault_plan`` runs every capture under it,
    and its detection windows are scored as degraded exactly as
    :func:`run_fault_experiment` scores them.

    ``REPRO_SHUFFLE=<seed>`` arms the event kernel's bucket-shuffle race
    detector.  The resolved seed is part of every stage key, so a
    shuffled run with a ``store`` gets its own cache entries.
    """
    from repro.pipeline.stages import run_experiment_pipeline

    result, _ = run_experiment_pipeline(
        scenario=scenario,
        train_duration=train_duration,
        detect_duration=detect_duration,
        specs=specs,
        faults=False,
        store=store,
        telemetry=telemetry,
    )
    return result
