"""Tests for repro.obs: registry, spans, events, scope, timelines.

Pins the tentpole guarantees: the disabled no-op fast path stays cheap
(bounded-ratio overhead test), Chrome trace exports carry the fields
``chrome://tracing`` requires, telemetry is deterministic in sim-time
content for a seed, enabling it never changes simulation outcomes, and
a full run produces spans for all five pipeline stages plus attack
events attributable in the run timeline.
"""

import json
import sys

import pytest

from repro import obs
from repro.ids.report import DetectionReport, WindowResult
from repro.obs import (
    EventLog,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_SPAN,
    NullInstrument,
    ObsEvent,
    RunTimeline,
    SpanTracer,
    chrome_trace,
    events_from_dicts,
    timeline_from_result,
)
from repro.obs.bench import run_overhead_benchmark
from repro.sim.queue import DropTailQueue
from repro.sim.tcp import TcpListener
from repro.testbed import Scenario, Testbed, run_full_experiment
from repro.testbed.scenario import AttackPhase

SCENARIO = Scenario(n_devices=2, seed=5)
TRAIN, DETECT = 25.0, 12.0


# ----------------------------------------------------------------------
# Metrics registry


class TestRegistry:
    def test_counter_handle_is_shared(self):
        registry = MetricsRegistry()
        a = registry.counter("sim.events")
        b = registry.counter("sim.events")
        assert a is b
        a.inc()
        b.inc(2.0)
        assert registry.value("sim.events") == 3.0

    def test_labels_key_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("queue.drops", queue="a").inc()
        registry.counter("queue.drops", queue="b").inc(4)
        assert registry.value("queue.drops", queue="a") == 1.0
        assert registry.value("queue.drops", queue="b") == 4.0
        assert registry.value("queue.drops") == 0.0  # unlabeled never written

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("sim.heap_depth")
        gauge.set(10)
        gauge.set(3)
        assert registry.value("sim.heap_depth") == 3.0

    def test_histogram_buckets_and_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(55.5 / 3)
        assert hist.bucket_dict() == {"1.0": 1, "10.0": 1, "+Inf": 1}

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x")

    def test_disabled_returns_null_instrument(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_INSTRUMENT
        assert registry.gauge("b") is NULL_INSTRUMENT
        assert registry.histogram("c") is NULL_INSTRUMENT
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.set(5)
        NULL_INSTRUMENT.observe(1.0)
        assert len(registry) == 0

    def test_snapshot_excludes_wall_metrics_on_request(self):
        registry = MetricsRegistry()
        registry.counter("sim.events").inc()
        registry.counter("ids.cpu_seconds", wall=True).inc(0.5)
        full = registry.snapshot()
        assert set(full) == {"sim.events", "ids.cpu_seconds"}
        deterministic = registry.snapshot(include_wall=False)
        assert set(deterministic) == {"sim.events"}

    def test_format_text_renders_labels(self):
        registry = MetricsRegistry()
        registry.counter("queue.drops", queue="txq:a").inc(7)
        assert "queue.drops{queue=txq:a}: 7" in registry.format_text()


class TestOverhead:
    def test_disabled_fast_path_bounded(self):
        # The no-op fast path: instrumented-but-disabled code must stay
        # within 2x of the bare loop (it adds one no-op method call per
        # iteration).  Best-of-repeats keeps scheduler noise out.
        result = run_overhead_benchmark(iterations=50_000, repeats=3)
        assert result["disabled_ratio"] < 2.0
        # Enabled costs real work; just pin that it's bounded, not free.
        assert result["enabled_ratio"] < 60.0


def _syn_burst_capture(monkeypatch):
    """12 s of a two-device testbed with a 2 s SYN flood that overruns the
    server's backlog; returns the frames enqueued and SYNs dropped, summed
    over every queue and listener it built."""
    built = {DropTailQueue: [], TcpListener: []}
    for cls, instances in built.items():
        def collecting(self, *args, _init=cls.__init__, _instances=instances, **kwargs):
            _init(self, *args, **kwargs)
            _instances.append(self)

        monkeypatch.setattr(cls, "__init__", collecting)
    testbed = Testbed(Scenario(n_devices=2, seed=7)).build()
    testbed.infect_all()
    flood = AttackPhase(start=4.0, kind="syn", duration=2.0, pps_per_bot=200.0)
    testbed.capture(12.0, [flood])
    queues, listeners = built.values()
    enqueued = sum(queue.enqueued for queue in queues)
    syn_dropped = sum(listener.syn_dropped for listener in listeners)
    assert enqueued > 1000 and syn_dropped > 100
    return enqueued, syn_dropped


class TestFramePathTelemetry:
    """Queue and TCP counters cost nothing per frame with observability off,
    and count exactly what the objects count with it on."""

    def test_no_instrument_call_from_queue_or_tcp_with_observability_off(self, monkeypatch):
        assert not obs.current().enabled
        callers = []

        def tally(self, *args):
            callers.append(sys._getframe(1).f_code.co_filename)

        monkeypatch.setattr(NullInstrument, "inc", tally)
        monkeypatch.setattr(NullInstrument, "set", tally)
        _syn_burst_capture(monkeypatch)
        frame_path = [f for f in callers if f.endswith(("sim/queue.py", "sim/tcp.py"))]
        assert frame_path == []
        NULL_INSTRUMENT.inc()  # the patch itself counts
        assert callers[-1] == __file__

    def test_counters_match_the_objects_with_observability_on(self, monkeypatch):
        with obs.scope() as ctx:
            enqueued, syn_dropped = _syn_burst_capture(monkeypatch)
        totals: dict[str, float] = {}
        for key, payload in ctx.registry.snapshot().items():
            name = key.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + payload.get("value", 0.0)
        assert totals["queue.enqueued"] == enqueued
        assert totals["tcp.syn_dropped"] == syn_dropped


# ----------------------------------------------------------------------
# Events


class TestEventLog:
    def test_disabled_log_records_nothing(self):
        log = EventLog(enabled=False)
        log.record(1.0, "queue.drop")
        assert len(log) == 0

    def test_by_kind_matches_prefix_segments(self):
        log = EventLog()
        log.record(1.0, "attack.start", detail="syn")
        log.record(2.0, "attacker.seen")  # prefix string, different segment
        log.record(3.0, "attack.stop", detail="syn")
        assert [e.kind for e in log.by_kind("attack")] == ["attack.start", "attack.stop"]

    def test_to_dicts_sorted_and_roundtrips(self):
        log = EventLog()
        log.record(2.0, "b")
        log.record(1.0, "z", detail="late")
        log.record(1.0, "a", value=4.0)
        payload = log.to_dicts()
        assert [(e["time"], e["kind"]) for e in payload] == [
            (1.0, "a"), (1.0, "z"), (2.0, "b"),
        ]
        rebuilt = events_from_dicts(payload)
        assert rebuilt[0] == ObsEvent(1.0, "a", value=4.0)


# ----------------------------------------------------------------------
# Spans + Chrome trace


def make_tracer(times):
    """A tracer whose sim clock pops from ``times`` per read."""
    queue = list(times)
    return SpanTracer(clock=lambda: queue.pop(0))


class TestSpans:
    def test_span_records_sim_times(self):
        tracer = make_tracer([5.0, 7.5])
        with tracer.span("tcp.handshake", node="dev-0"):
            pass
        (span,) = tracer.spans
        assert (span.begin, span.end) == (5.0, 7.5)
        assert span.sim_duration == 2.5
        assert dict(span.attrs) == {"node": "dev-0"}
        assert span.wall_seconds >= 0.0

    def test_exception_marks_error_attr(self):
        tracer = make_tracer([0.0, 1.0])
        with pytest.raises(RuntimeError):
            with tracer.span("stage.build"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert dict(span.attrs)["error"] == "RuntimeError"

    def test_deferred_finish(self):
        tracer = make_tracer([1.0, 4.0])
        handle = tracer.span("tcp.handshake").start()
        handle.set("result", "established")
        handle.finish()
        handle.finish()  # idempotent
        (span,) = tracer.spans
        assert (span.begin, span.end) == (1.0, 4.0)
        assert dict(span.attrs)["result"] == "established"

    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = SpanTracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        with tracer.span("anything") as span:
            span.set("k", "v")
        assert tracer.spans == []

    def test_wall_isolated_from_deterministic_export(self):
        tracer = make_tracer([0.0, 1.0])
        with tracer.span("stage.build"):
            pass
        (payload,) = tracer.to_dicts(include_wall=False)
        assert "wall_ms" not in payload
        (full,) = tracer.to_dicts()
        assert "wall_ms" in full

    def test_chrome_trace_schema(self):
        tracer = make_tracer([1.5, 2.0])
        with tracer.span("stage.train-models", cache_hit=False):
            pass
        (event,) = chrome_trace(tracer.spans)
        assert set(event) == {"ph", "ts", "dur", "pid", "tid", "name", "cat", "args"}
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1.5e6)  # microseconds of sim time
        assert event["dur"] == pytest.approx(0.5e6)
        assert (event["pid"], event["tid"]) == (1, 1)
        assert event["cat"] == "stage"
        assert event["args"]["cache_hit"] is False
        assert "wall_ms" in event["args"]
        json.dumps([event])  # JSON-serializable as chrome://tracing requires

    def test_chrome_trace_accepts_snapshot_dicts_and_drops_wall(self):
        tracer = make_tracer([0.0, 1.0])
        with tracer.span("stage.detect"):
            pass
        (event,) = chrome_trace(tracer.to_dicts(), include_wall=False)
        assert "wall_ms" not in event["args"]


# ----------------------------------------------------------------------
# Scoping


class TestScope:
    def test_default_context_is_disabled(self):
        ctx = obs.current()
        assert not ctx.enabled
        assert ctx.registry.counter("x") is NULL_INSTRUMENT
        assert ctx.tracer.span("y") is NULL_SPAN

    def test_scope_swaps_and_restores(self):
        before = obs.current()
        with obs.scope() as octx:
            assert obs.current() is octx
            assert octx.enabled
            with obs.scope() as inner:
                assert obs.current() is inner
                assert inner is not octx
            assert obs.current() is octx
        assert obs.current() is before

    def test_scope_restores_on_exception(self):
        before = obs.current()
        with pytest.raises(RuntimeError):
            with obs.scope():
                raise RuntimeError("boom")
        assert obs.current() is before

    def test_snapshot_shape(self):
        with obs.scope() as octx:
            octx.registry.counter("a").inc()
            octx.events.record(1.0, "attack.start")
            with octx.tracer.span("stage.build"):
                pass
        snapshot = octx.snapshot(include_wall=False)
        assert set(snapshot) == {"metrics", "spans", "events", "flight"}
        json.dumps(snapshot)


# ----------------------------------------------------------------------
# Per-second accuracy (the attack-boundary drop)


def boundary_report():
    """Steady windows at full accuracy; the attack-edge bucket dips."""
    report = DetectionReport("RF")
    rows = [
        (0, 10.0, 50, 0, 1.0),     # benign steady state
        (1, 11.0, 50, 0, 1.0),
        (2, 12.0, 80, 40, 0.55),   # attack's first second: boundary dip
        (3, 13.0, 200, 200, 0.98), # flood steady state
        (4, 14.0, 200, 200, 0.99),
    ]
    for index, start, n, mal, acc in rows:
        report.windows.append(WindowResult(index, start, n, mal, mal, acc))
    return report


class TestPerSecondAccuracy:
    def test_boundary_bucket_dips(self):
        series = boundary_report().per_second_accuracy()
        by_second = {entry["second"]: entry["accuracy"] for entry in series}
        assert by_second[12.0] == pytest.approx(0.55)
        assert min(by_second, key=by_second.get) == 12.0
        assert all(by_second[s] > 0.9 for s in by_second if s != 12.0)

    def test_packet_weighting_within_bucket(self):
        report = DetectionReport("RF")
        report.windows.append(WindowResult(0, 0.2, 90, 0, 0, 1.0))
        report.windows.append(WindowResult(1, 0.7, 10, 10, 0, 0.0))
        (entry,) = report.per_second_accuracy()
        assert entry["accuracy"] == pytest.approx(0.9)
        assert entry["n_packets"] == 100
        assert entry["n_windows"] == 2

    def test_unscored_windows_omitted(self):
        report = DetectionReport("RF")
        report.windows.append(WindowResult(0, 3.0, 0, 0, 0, 0.0, status="degraded"))
        assert report.per_second_accuracy() == []

    def test_wider_buckets(self):
        series = boundary_report().per_second_accuracy(bucket_seconds=5.0)
        assert [entry["second"] for entry in series] == [10.0]

    def test_invalid_bucket_raises(self):
        with pytest.raises(ValueError):
            boundary_report().per_second_accuracy(0.0)


# ----------------------------------------------------------------------
# Timeline


class TestRunTimeline:
    def test_sum_and_set_modes(self):
        timeline = RunTimeline()
        timeline.add_value(1.2, "packets", 10)
        timeline.add_value(1.8, "packets", 5)
        timeline.add_value(1.2, "depth", 3, mode="set")
        timeline.add_value(1.8, "depth", 7, mode="set")
        (row,) = timeline.rows()
        assert row["packets"] == 15
        assert row["depth"] == 7

    def test_rows_dense_between_first_and_last(self):
        timeline = RunTimeline()
        timeline.add_value(2.0, "packets", 1)
        timeline.add_value(5.0, "packets", 1)
        rows = timeline.rows()
        assert [row["second"] for row in rows] == [2.0, 3.0, 4.0, 5.0]
        assert rows[1]["packets"] == 0.0

    def test_events_become_columns_and_marks(self):
        timeline = RunTimeline()
        timeline.add_events(
            [
                ObsEvent(3.1, "attack.start", detail="syn"),
                {"time": 3.4, "kind": "queue.drop", "detail": "txq:a", "value": 1.0},
                ObsEvent(3.6, "queue.drop", detail="txq:a"),
            ]
        )
        (row,) = timeline.rows()
        assert row["ev.attack.start"] == 1.0
        assert row["ev.queue.drop"] == 2.0
        assert row["events"] == "attack.start[syn]"  # queue drops are not markers

    def test_csv_and_json_exports(self):
        timeline = RunTimeline()
        timeline.add_value(0.0, "packets", 3)
        timeline.add_mark(0.0, "attack.start[syn]")
        csv = timeline.to_csv()
        assert csv.splitlines()[0] == "second,packets,events"
        assert csv.splitlines()[1] == "0,3,attack.start[syn]"
        payload = json.loads(timeline.to_json())
        assert payload["bucket_seconds"] == 1.0
        assert payload["rows"][0]["packets"] == 3.0

    def test_render_ascii_chart(self):
        report = boundary_report()
        timeline = RunTimeline()
        timeline.add_windows(report)
        timeline.add_events([ObsEvent(12.0, "attack.start", detail="syn")])
        timeline.add_value(13.0, "ev.queue.drop", 4)
        chart = timeline.render_ascii(width=20)
        lines = chart.splitlines()
        assert "packets (peak 200)" in lines[0]
        assert "acc.RF" in lines[0]
        dip_line = next(line for line in lines if "attack.start[syn]" in line)
        assert " 55.0%" in dip_line
        assert any("[queue drops: 4]" in line for line in lines)
        # Full bar on the peak row, shorter on the dip row.
        peak_line = next(line for line in lines if "#" * 20 in line)
        assert "  200" in peak_line

    def test_render_blank_accuracy_for_unscored_buckets(self):
        timeline = RunTimeline()
        timeline.add_value(0.0, "packets", 5)
        timeline.add_value(1.0, "acc.RF", 0.9, mode="set")
        lines = timeline.render_ascii().splitlines()
        assert lines[2].rstrip().endswith("-")  # bucket 0: traffic, no verdicts
        assert "90.0%" in lines[3]

    def test_empty_timeline(self):
        assert RunTimeline().render_ascii() == "(empty timeline)"
        assert RunTimeline().rows() == []


# ----------------------------------------------------------------------
# Integration: a full observed run


@pytest.fixture(scope="module")
def observed_run():
    with obs.scope() as octx:
        result = run_full_experiment(
            SCENARIO, train_duration=TRAIN, detect_duration=DETECT
        )
    return result, octx


STAGES = ("build", "capture-train", "train-models", "capture-detect", "detect")


class TestObservedExperiment:
    def test_result_carries_snapshot(self, observed_run):
        result, _ = observed_run
        assert result.telemetry is not None
        assert set(result.telemetry) == {"metrics", "spans", "events", "flight"}

    def test_all_five_stages_have_spans(self, observed_run):
        result, _ = observed_run
        names = {span["name"] for span in result.telemetry["spans"]}
        for stage in STAGES:
            assert f"stage.{stage}" in names

    def test_chrome_trace_covers_stages(self, observed_run):
        _, octx = observed_run
        events = chrome_trace(octx.tracer.spans)
        names = {event["name"] for event in events}
        assert {f"stage.{stage}" for stage in STAGES} <= names
        for event in events:
            assert set(event) == {"ph", "ts", "dur", "pid", "tid", "name", "cat", "args"}
            assert event["dur"] >= 0

    def test_attack_events_recorded(self, observed_run):
        result, _ = observed_run
        kinds = {e["kind"] for e in result.telemetry["events"]}
        assert "attack.start" in kinds
        assert "attack.stop" in kinds
        assert "ids.window" in kinds

    def test_core_metrics_populated(self, observed_run):
        result, _ = observed_run
        metrics = result.telemetry["metrics"]
        assert metrics["sim.events_dispatched"]["value"] > 0
        assert metrics["pipeline.cache_misses"]["value"] == 5.0
        assert any(key.startswith("queue.enqueued{") for key in metrics)

    def test_timeline_attributes_attack_to_traffic(self, observed_run):
        result, _ = observed_run
        timeline = timeline_from_result(result)
        rows = timeline.rows()
        marked = [row for row in rows if "attack.start" in row["events"]]
        assert marked
        # Rows at/after an attack launch carry the elevated flood traffic:
        # the detection phases peak well above the benign baseline.
        detect_rows = [row for row in rows if row["packets"] > 0]
        baseline = min(row["packets"] for row in detect_rows)
        peak = max(row["packets"] for row in detect_rows)
        assert peak > 2 * baseline
        chart = timeline.render_ascii()
        assert "attack.start" in chart

    def test_telemetry_deterministic_for_seed(self):
        def run():
            with obs.scope() as octx:
                run_full_experiment(
                    SCENARIO, train_duration=TRAIN, detect_duration=DETECT
                )
            return json.dumps(octx.snapshot(include_wall=False), sort_keys=True)

        assert run() == run()

    def test_telemetry_does_not_perturb_simulation(self, observed_run):
        observed, _ = observed_run
        plain = run_full_experiment(
            SCENARIO, train_duration=TRAIN, detect_duration=DETECT
        )
        assert plain.telemetry is None
        assert plain.table1() == observed.table1()
        assert plain.train_summary == observed.train_summary
        assert plain.detect_summary == observed.detect_summary
