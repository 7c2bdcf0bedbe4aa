"""Unit tests for experiment plumbing: ModelSpec views, result tables."""

import numpy as np
import pytest

from repro.features.statistical import (
    NORMALIZED_STATISTICAL_FEATURE_NAMES,
    PAPER_STATISTICAL_FEATURE_NAMES,
)
from repro.ids.engine import _IdentityScaler
from repro.ids.meter import SustainabilityMetrics
from repro.ids.report import DetectionReport, WindowResult
from repro.ml.metrics import ClassificationReport
from repro.testbed import ExperimentResult, ModelSpec, Scenario, TrainedModel


class TestModelSpec:
    def test_make_extractor_uses_view(self):
        spec = ModelSpec(
            "x", lambda n: None, stat_set="normalized",
            include_details=True, include_timestamp=False,
        )
        extractor = spec.make_extractor(2.0)
        assert extractor.window_seconds == 2.0
        assert extractor.stat_names == NORMALIZED_STATISTICAL_FEATURE_NAMES
        assert "timestamp" not in extractor.feature_names
        assert "is_syn" in extractor.feature_names

    def test_default_view_is_paper_literal(self):
        spec = ModelSpec("x", lambda n: None)
        extractor = spec.make_extractor(1.0)
        assert extractor.stat_names == PAPER_STATISTICAL_FEATURE_NAMES
        assert extractor.feature_names[0] == "timestamp"
        assert "is_syn" not in extractor.feature_names


class TestIdentityScaler:
    def test_passthrough(self):
        scaler = _IdentityScaler().fit(np.ones((2, 2)))
        X = np.arange(6).reshape(2, 3)
        np.testing.assert_array_equal(scaler.transform(X), X)


def make_result():
    scenario = Scenario(n_devices=2, seed=1)
    report = ClassificationReport(0.99, 0.98, 0.97, 0.975, np.array([[5, 1], [1, 5]]))
    trained = TrainedModel("RF", object(), _IdentityScaler(), None, report, 1.0, 50.0)
    detection = DetectionReport("RF")
    detection.windows.append(WindowResult(0, 0.0, 10, 0, 0, 0.9))
    detection.sustainability = SustainabilityMetrics(60.0, 100.0, 50.0, 800.0)
    from repro.capture import TrafficDataset

    summary = TrafficDataset([]).summary()
    return ExperimentResult(
        scenario=scenario,
        train_summary=summary,
        detect_summary=summary,
        trained=[trained],
        detection=[detection],
    )


class TestExperimentResult:
    def test_table1_rows(self):
        result = make_result()
        assert result.table1() == [("RF", pytest.approx(90.0))]

    def test_table2_rows(self):
        result = make_result()
        assert result.table2() == [("RF", 60.0, 100.0, 50.0)]

    def test_training_metrics_rows(self):
        result = make_result()
        ((name, acc, p, r, f1),) = result.training_metrics()
        assert name == "RF"
        assert (acc, p, r, f1) == (0.99, 0.98, 0.97, 0.975)

    def test_table2_skips_unmetered_models(self):
        result = make_result()
        unmetered = DetectionReport("CNN")
        unmetered.windows.append(WindowResult(0, 0.0, 10, 0, 0, 0.8))
        unmetered.sustainability = None
        result.detection.append(unmetered)
        # The metered row survives; the unmetered one is skipped, not a crash.
        assert result.table2() == [("RF", 60.0, 100.0, 50.0)]
        with pytest.raises(ValueError, match="CNN"):
            result.table2(strict=True)

    def test_table2_strict_ok_when_all_metered(self):
        result = make_result()
        assert result.table2(strict=True) == result.table2()


class TestSustainabilityMetrics:
    def test_str_includes_energy(self):
        metrics = SustainabilityMetrics(60.0, 100.0, 50.0, 812.5)
        text = str(metrics)
        assert "812.5 mJ/window" in text
        assert "cpu 60.00%" in text

    def test_energy_from_meter(self):
        from repro.ids.meter import IOT_WATTS, ResourceMeter

        meter = ResourceMeter(window_seconds=1.0, iot_cpu_scale=0.5)
        meter.start_window()
        _ = sum(i * i for i in range(100_000))
        meter.end_window()
        expected = 1000.0 * (meter.cpu_seconds_total / 0.5) * IOT_WATTS
        assert meter.energy_mj_per_window == pytest.approx(expected)
        assert meter.energy_mj_per_window > 0

    def test_energy_zero_without_windows(self):
        from repro.ids.meter import ResourceMeter

        assert ResourceMeter(1.0).energy_mj_per_window == 0.0
