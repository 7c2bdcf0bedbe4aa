"""Tests for the performance-observability plane.

Pins the ISSUE-10 guarantees: the kernel profiler attributes ≥95% of
measured wall time to named subsystems on a flood scene, profiling
never perturbs simulation outcomes (identical
``ExperimentResult.fingerprint()`` with profiling on/off) and its
deterministic exports are byte-identical across same-seed repeats, the
profiling-off dispatch overhead stays within a pinned ratio, the bench
history store appends/merges/upgrades correctly and ``bench-compare``
catches an injected regression, the flight recorder's ring is bounded
and rides fatal sanitizer errors and campaign timeout tombstones, and
the timeline export guards hold against NaN and far-future samples.
"""

import json
import math

import pytest

from repro import obs
from repro.obs import FlightRecorder, Histogram, KernelProfiler, RunTimeline
from repro.obs.bench import run_profiler_overhead_benchmark
from repro.obs.profile import callsite_label, classify_owner
from repro.obs.regress import (
    SCHEMA,
    compare_file,
    compare_section,
    config_fingerprint,
    extract_metrics,
    load_history,
    record_benchmark,
)
from repro.sim.bench import build_and_run_flood
from repro.sim.core import Simulator
from repro.testbed import Scenario, run_full_experiment

SCENARIO = Scenario(n_devices=2, seed=5)
TRAIN, DETECT = 25.0, 12.0


def _profiled_flood(seed: int = 7, n_nodes: int = 8):
    """One small SYN flood under a profiling scope; returns (run, ctx)."""
    ctx = obs.ObsContext.make(enabled=True, profile=True)
    with obs.scope(ctx):
        run = build_and_run_flood(
            n_nodes=n_nodes,
            pps_per_node=2000.0,
            duration=0.05,
            seed=seed,
            attack="syn",
            devices_per_segment=0,
        )
    return run, ctx


# ----------------------------------------------------------------------
# Histogram.percentile


class TestHistogramPercentile:
    def test_percentiles_report_bucket_upper_bounds(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.7, 3.0, 4.0):
            hist.observe(value)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(0.5) == 2.0
        assert hist.percentile(1.0) == 5.0

    def test_overflow_observations_report_inf(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(10.0)
        assert hist.percentile(0.5) == math.inf

    def test_empty_histogram_reports_zero(self):
        assert Histogram().percentile(0.99) == 0.0

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_snapshot_exports_explicit_inf_bucket(self):
        registry = obs.MetricsRegistry(enabled=True)
        hist = registry.histogram("t.latency", buckets=(1.0, 2.0))
        hist.observe(99.0)
        buckets = registry.snapshot()["t.latency"]["buckets"]
        assert buckets["+Inf"] == 1
        assert set(buckets) == {"1.0", "2.0", "+Inf"}


# ----------------------------------------------------------------------
# Owner classification / labels


class TestOwnerClassification:
    def test_exact_module_owners(self):
        assert classify_owner("repro.sim.queue") == "queue"
        assert classify_owner("repro.sim.channel") == "channel"
        assert classify_owner("repro.sim.tcp") == "tcp"
        assert classify_owner("repro.sim.tracing") == "probe"
        assert classify_owner("repro.ids.defense") == "filter"

    def test_prefix_owners(self):
        assert classify_owner("repro.botnet.attacks") == "bot"
        assert classify_owner("repro.apps.http") == "app"
        assert classify_owner("repro.ids.models") == "ids"

    def test_unknown_module_is_other(self):
        assert classify_owner("collections.abc") == "other"

    def test_callsite_label_for_bound_method(self):
        class Widget:
            def tick(self):
                pass

        label = callsite_label(Widget().tick)
        assert label.endswith("Widget.tick")

    def test_callsite_label_for_function(self):
        def handler():
            pass

        assert "handler" in callsite_label(handler)


# ----------------------------------------------------------------------
# Kernel profiler


class TestKernelProfiler:
    def test_attribution_meets_flood_floor(self):
        _, ctx = _profiled_flood()
        attribution = ctx.profiler.attribution()
        assert attribution["total_wall_seconds"] > 0.0
        assert attribution["named_fraction"] >= 0.95

    def test_profiler_counts_match_kernel(self):
        run, ctx = _profiled_flood()
        profiled_events = sum(
            row["events"] for row in ctx.profiler.snapshot()["callsites"]
        )
        assert profiled_events == run["events"]

    def test_bucket_stats_count_runs_of_same_instant_dispatches(self):
        with obs.scope(profile=True) as ctx:
            sim = Simulator()
            for delay in (1.0, 1.0, 1.0, 2.0, 3.0, 3.0):
                sim.schedule(delay, lambda: None)
            # Same instant, later priority: not a mate of the t=1 bucket.
            sim.schedule(1.0, lambda: None, priority=Simulator.PRIORITY_TIMER)
            sim.run()
        buckets = ctx.profiler.bucket_stats()
        assert buckets["buckets_drained"] == 2
        assert buckets["bucket_events"] == 5
        assert ctx.registry.value("sim.buckets_drained") == 2

    def test_deterministic_exports_byte_identical_across_repeats(self):
        _, first = _profiled_flood(seed=11)
        _, second = _profiled_flood(seed=11)
        assert json.dumps(first.profiler.snapshot(include_wall=False)) == json.dumps(
            second.profiler.snapshot(include_wall=False)
        )
        assert first.profiler.format_table(include_wall=False) == second.profiler.format_table(
            include_wall=False
        )
        assert first.profiler.collapsed_stacks(include_wall=False) == second.profiler.collapsed_stacks(
            include_wall=False
        )

    def test_collapsed_stacks_shape(self):
        _, ctx = _profiled_flood()
        lines = ctx.profiler.collapsed_stacks(include_wall=False).strip().splitlines()
        assert lines
        for line in lines:
            frames, weight = line.rsplit(" ", 1)
            assert ";" in frames
            assert int(weight) > 0

    def test_periodic_events_attributed_to_driven_callback(self):
        calls = []

        def tick():
            calls.append(1)

        ctx = obs.ObsContext.make(enabled=True, profile=True)
        with obs.scope(ctx):
            sim = Simulator()
            sim.schedule_periodic(0.5, tick)
            sim.run(until=2.6)
        labels = [row["callsite"] for row in ctx.profiler.snapshot()["callsites"]]
        assert any("tick" in label for label in labels)
        assert not any("_fire" in label for label in labels)

    def test_exceptions_propagate_through_dispatch(self):
        def boom():
            raise RuntimeError("kaboom")

        ctx = obs.ObsContext.make(enabled=True, profile=True)
        with obs.scope(ctx):
            sim = Simulator()
            sim.schedule(0.1, boom)
            with pytest.raises(RuntimeError, match="kaboom"):
                sim.run()
        # The failed dispatch is still attributed.
        assert any(
            "boom" in row["callsite"]
            for row in ctx.profiler.snapshot()["callsites"]
        )

    def test_profiling_does_not_perturb_experiment(self):
        plain = run_full_experiment(
            SCENARIO, train_duration=TRAIN, detect_duration=DETECT
        )
        with obs.scope(profile=True):
            profiled = run_full_experiment(
                SCENARIO, train_duration=TRAIN, detect_duration=DETECT
            )
        assert plain.fingerprint() == profiled.fingerprint()

    def test_profile_off_dispatch_overhead_bounded(self):
        result = run_profiler_overhead_benchmark(iterations=20_000, repeats=3)
        # The un-profiled dispatch site pays one `is None` check per
        # event; same generous bound style as the NULL_INSTRUMENT pin.
        assert result["profile_off_ratio"] < 2.0
        assert result["profile_on_ratio"] < 75.0


# ----------------------------------------------------------------------
# Flight recorder


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.note(float(i), "tick")
        assert len(recorder) == 4
        assert recorder.total_recorded == 10
        times = [entry["time"] for entry in recorder.to_dicts()]
        assert times == [6.0, 7.0, 8.0, 9.0]

    def test_disabled_recorder_records_nothing(self):
        recorder = FlightRecorder(enabled=False)
        recorder.note(1.0, "tick")
        assert len(recorder) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dispatch_entries_resolve_callback_labels(self):
        class Widget:
            def tick(self):
                pass

        recorder = FlightRecorder()
        recorder.note_dispatch(1.5, Widget().tick)
        entry = recorder.to_dicts()[0]
        assert entry["kind"] == "dispatch"
        assert entry["detail"].endswith("Widget.tick")

    def test_dump_includes_metric_state(self):
        recorder = FlightRecorder()
        recorder.note(0.0, "tick")
        registry = obs.MetricsRegistry(enabled=True)
        registry.counter("sim.packets").inc(3)
        dump = recorder.dump(registry=registry)
        assert dump["total_recorded"] == 1
        assert dump["entries"][0]["kind"] == "tick"
        assert dump["metrics"]["sim.packets"]["value"] == 3.0

    def test_scope_feeds_spans_events_and_dispatches(self):
        ctx = obs.ObsContext.make(enabled=True)
        with obs.scope(ctx):
            sim = Simulator()
            sim.schedule(0.1, lambda: None)
            with ctx.tracer.span("stage.build"):
                sim.run()
            ctx.events.record(1.0, "attack.start")
        kinds = {entry["kind"] for entry in ctx.flight.to_dicts()}
        assert {"span.open", "span.close", "dispatch", "attack.start"} <= kinds

    def test_sanitizer_error_carries_flight_dump(self):
        from repro.analysis.sanitizers import Sanitizer, SanitizerError

        ctx = obs.ObsContext.make(enabled=True)
        with obs.scope(ctx):
            ctx.events.record(0.5, "queue.drop", "lan")
            sanitizer = Sanitizer(fatal=True)
            with pytest.raises(SanitizerError) as excinfo:
                sanitizer.violation("EVT001", "time went backwards", time=1.0)
        dump = excinfo.value.flight_dump
        assert dump is not None
        assert dump["entries"]


# ----------------------------------------------------------------------
# Campaign tombstones carry postmortems


class TestCampaignFlight:
    def _cell(self):
        from repro.pipeline.campaign import CampaignSpec, expand_grid

        spec = CampaignSpec(
            scenarios=(Scenario(n_devices=2),),
            seeds=(5,),
            train_duration=TRAIN,
            detect_duration=DETECT,
        )
        return expand_grid(spec)[0]

    def test_timeout_tombstone_has_nonempty_flight_dump(self):
        from repro.pipeline.campaign import execute_run_safe

        record = execute_run_safe(self._cell(), max_retries=0, run_timeout=0.2)
        assert record.failed
        assert "budget" in record.error
        assert record.flight is not None
        assert record.flight["entries"]
        payload = record.to_dict(include_timing=False)
        assert payload["flight"]["entries"]

    def test_successful_run_has_no_flight_dump(self, tmp_path):
        from repro.pipeline.campaign import execute_run_safe

        record = execute_run_safe(self._cell())
        assert not record.failed
        assert record.flight is None


# ----------------------------------------------------------------------
# Bench history + regression gate


def _flood_result(pps: float, nodes: int = 16) -> dict:
    return {
        "node_counts": [nodes],
        "pps_per_node": 20000.0,
        "duration_seconds": 0.05,
        "seed": 7,
        "attack": "syn",
        "runs": [{"nodes": nodes, "scalar": {"packets_per_second": pps}}],
    }


class TestBenchHistory:
    def test_record_creates_history_schema(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert len(payload["entries"]) == 1
        assert payload["entries"][0]["sha"] == "aaa"

    def test_same_sha_sections_merge_into_one_entry(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        record_benchmark(_flood_result(8000.0), path, "benign", sha="aaa", date="d1")
        history = load_history(path)
        assert len(history["entries"]) == 1
        assert set(history["entries"][0]["sections"]) == {"flood", "benign"}

    def test_new_sha_appends_entry(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        record_benchmark(_flood_result(9500.0), path, "flood", sha="bbb", date="d2")
        history = load_history(path)
        assert [entry["sha"] for entry in history["entries"]] == ["aaa", "bbb"]

    def test_legacy_sectioned_file_upgrades(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"flood": _flood_result(9000.0)}))
        history = load_history(path)
        assert history["schema"] == SCHEMA
        entry = history["entries"][0]
        assert entry["sha"] == "legacy"
        assert "flood" in entry["sections"]

    def test_legacy_flat_features_file_upgrades(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"offline_transform": {"speedup": 8.0}}))
        history = load_history(path)
        assert "features" in history["entries"][0]["sections"]

    def test_unparseable_file_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("not json{")
        assert load_history(path) == {"schema": SCHEMA, "entries": []}

    def test_fingerprint_ignores_measurements(self):
        fast, slow = _flood_result(9000.0), _flood_result(100.0)
        assert config_fingerprint(fast) == config_fingerprint(slow)
        different = dict(fast, seed=8)
        assert config_fingerprint(different) != config_fingerprint(fast)

    def test_extract_metrics_directions(self):
        metrics = extract_metrics(
            {
                "runs": [{"nodes": 16, "scalar": {"packets_per_second": 9000.0}}],
                "per_window_latency": {"speedup": 8.7, "vectorized_mean_ms": 0.4},
            }
        )
        assert metrics["nodes16.scalar_pkts_per_s"] == (9000.0, "higher")
        assert metrics["window.vectorized_mean_ms"] == (0.4, "lower")


class TestBenchCompare:
    def test_detects_injected_regression(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        record_benchmark(_flood_result(3000.0), path, "flood", sha="bbb", date="d2")
        comparison = compare_section(load_history(path), "flood", tolerance=0.30)
        assert not comparison.ok
        names = {delta.name for delta in comparison.regressions}
        assert "nodes16.scalar_pkts_per_s" in names

    def test_within_tolerance_passes(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        record_benchmark(_flood_result(8000.0), path, "flood", sha="bbb", date="d2")
        comparison = compare_section(load_history(path), "flood", tolerance=0.30)
        assert comparison.ok
        assert comparison.deltas

    def test_improvement_passes(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        record_benchmark(_flood_result(30000.0), path, "flood", sha="bbb", date="d2")
        assert compare_section(load_history(path), "flood", tolerance=0.30).ok

    def test_single_entry_has_no_baseline_and_passes(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        comparison = compare_section(load_history(path), "flood")
        assert comparison.ok
        assert comparison.baseline_sha is None

    def test_config_change_starts_new_lineage(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        changed = dict(_flood_result(100.0), seed=99)
        record_benchmark(changed, path, "flood", sha="bbb", date="d2")
        comparison = compare_section(load_history(path), "flood", tolerance=0.30)
        # Different fingerprint: the slow run is not compared to the
        # fast one — an experiment-shape change is not a regression.
        assert comparison.baseline_sha is None
        assert comparison.ok

    def test_baseline_sha_prefix_selects_entry(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa1", date="d1")
        record_benchmark(_flood_result(5000.0), path, "flood", sha="bbb2", date="d2")
        record_benchmark(_flood_result(4800.0), path, "flood", sha="ccc3", date="d3")
        strict = compare_section(load_history(path), "flood", baseline="aaa")
        assert strict.baseline_sha == "aaa1"
        assert not strict.ok
        lenient = compare_section(load_history(path), "flood", baseline="bbb")
        assert lenient.ok

    def test_compare_file_discovers_sections(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_benchmark(_flood_result(9000.0), path, "flood", sha="aaa", date="d1")
        comparisons = compare_file(path)
        assert [c.section for c in comparisons] == ["flood"]

    def test_missing_file_compares_empty(self, tmp_path):
        assert compare_file(tmp_path / "absent.json") == []


# ----------------------------------------------------------------------
# Timeline export guards


class TestTimelineGuards:
    def test_nonfinite_samples_dropped(self):
        timeline = RunTimeline()
        timeline.add_value(float("nan"), "packets", 1.0)
        timeline.add_value(1.0, "packets", float("inf"))
        timeline.add_mark(float("nan"), "attack.start")
        assert timeline.rows() == []
        assert timeline.render_ascii() == "(empty timeline)"

    def test_far_future_mark_stays_bounded(self):
        timeline = RunTimeline()
        timeline.add_value(0.0, "packets", 5.0)
        timeline.add_mark(1e9, "attack.start")
        rows = timeline.rows()
        assert len(rows) == 2
        assert rows[-1]["second"] == 1e9
        timeline.to_csv()
        timeline.render_ascii()

    def test_zero_duration_run_renders(self):
        timeline = RunTimeline()
        timeline.add_value(0.0, "packets", 0.0)
        chart = timeline.render_ascii()
        assert "packets" in chart
        csv = timeline.to_csv()
        assert csv.splitlines()[0] == "second,packets,events"

    def test_empty_timeline_exports(self):
        timeline = RunTimeline()
        assert timeline.rows() == []
        assert timeline.to_csv() == "second,events\n"
        assert timeline.render_ascii() == "(empty timeline)"
