"""Tests for the real-time IDS unit: live tap, engine, meter, report."""

import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.features import FeatureExtractor, RecordBatch
from repro.ids import RealTimeIds, ResourceMeter
from repro.ids.report import DetectionReport, WindowResult
from repro.sim.address import Ipv4Address
from repro.sim.packet import (
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    Provenance,
    TcpFlags,
    UdpHeader,
)
from repro.sim.tracing import PacketProbe, PacketRecord


def record(ts, label=0, sport=40000, dport=80):
    return PacketRecord(
        timestamp=ts,
        src_ip=1,
        dst_ip=2,
        protocol=PROTO_TCP,
        src_port=sport,
        dst_port=dport,
        size=60,
        tcp_flags=int(TcpFlags.ACK),
        seq=100,
        label=label,
    )


class RequireScaledModel:
    """Asserts inputs look standardized (used by the scaler test)."""

    def predict(self, X):
        assert np.abs(X).max() < 100
        return np.zeros(len(X), dtype=int)


class ConstantModel:
    """Predicts a fixed class for every packet."""

    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(len(X), self.value, dtype=int)


class ColumnModel:
    """A correct benign verdict, but shaped ``(n, 1)`` instead of ``(n,)``."""

    def predict(self, X):
        return np.zeros((len(X), 1), dtype=int)


class ShortModel:
    """One verdict too few for the window."""

    def predict(self, X):
        return np.zeros(len(X) - 1, dtype=int)


class OracleModel:
    """Uses a hidden lookup keyed by row order within each window."""

    def __init__(self, labels_by_call):
        self.labels_by_call = list(labels_by_call)
        self.calls = 0

    def predict(self, X):
        labels = self.labels_by_call[self.calls]
        self.calls += 1
        return np.asarray(labels)


def make_stream(seconds=4, per_window=10, malicious_windows=()):
    records = []
    for s in range(seconds):
        label = 1 if s in malicious_windows else 0
        for i in range(per_window):
            records.append(record(s + i / (per_window + 1), label=label))
    return RecordBatch.from_records(records)


def batch(*records):
    return RecordBatch.from_records(records) if records else RecordBatch.empty()


class TestLiveTap:
    def test_live_attach(self):
        """The IDS is a probe: a delivered IPv4 frame lands in its window,
        a non-IP frame is skipped."""
        from repro.sim.packet import EthernetHeader, Ipv4Header, Packet, TcpHeader
        from repro.sim.address import Ipv4Address, MacAddress

        ids = RealTimeIds(ConstantModel(0), "m")
        packet = Packet(
            eth=EthernetHeader(MacAddress(1), MacAddress(2)),
            ip=Ipv4Header(Ipv4Address(1), Ipv4Address(2), PROTO_TCP),
            tcp=TcpHeader(1, 2),
        )
        ids(packet, 0.5)
        ids(Packet(payload=b"junk"), 0.6)
        report = ids.finish()
        assert [(w.window_index, w.n_packets) for w in report.windows] == [(0, 1)]


class PortParity:
    """Flags odd source ports, so verdicts depend on each row."""

    def predict(self, X):
        return X[:, 2].astype(int) % 2


#: Gaps between successive timestamps: 1/8 s steps land exactly on
#: window boundaries (2.0), and free floats land anywhere.
GAPS = st.one_of(st.sampled_from([0.125, 0.25, 0.5]), st.floats(1e-3, 0.7))


@st.composite
def live_stream(draw):
    """UDP frames in time order, as ``(packet, time)`` pairs.

    Frames come in bursts of one source and class; times within a burst
    strictly increase, and a burst may start at its predecessor's last
    timestamp.
    """
    t, port, frames = 0.0, 0, []
    for is_burst in draw(st.lists(st.booleans(), min_size=1, max_size=15)):
        n = draw(st.integers(2, 6)) if is_burst else 1
        times = []
        for i in range(n):
            t += draw(GAPS) if i else draw(st.one_of(st.just(0.0), GAPS))
            times.append(t)
        malicious = draw(st.booleans())
        ip = Ipv4Header(Ipv4Address(draw(st.integers(1, 4))), Ipv4Address(9), PROTO_UDP)
        provenance = Provenance("test", malicious, "udp_flood" if malicious else None)
        for i, when in enumerate(times):
            udp = UdpHeader(port + i, 53)
            frames.append((Packet(ip=ip, udp=udp, payload_len=0, provenance=provenance), when))
        port += n
    return frames


class TestLiveMatchesOffline:
    @settings(max_examples=50, deadline=None)
    @given(live_stream(), st.sampled_from([1.0, 0.5]))
    def test_process_matches_live_feed(self, frames, window_seconds):
        """``process`` on the recorded capture scores the same windows as
        the live tap fed the same frames, then ``finish``."""
        live = RealTimeIds(PortParity(), "m", window_seconds=window_seconds)
        probe = PacketProbe()
        for packet, when in frames:
            live(packet, when)
            probe(packet, when)
        live_report = live.finish()
        offline = RealTimeIds(PortParity(), "m", window_seconds=window_seconds)
        offline_report = offline.process(RecordBatch.from_columns(probe.drain_columns()))
        assert live_report.windows == offline_report.windows
        assert live.records_reordered == live.records_dropped_late == 0


class TestRealTimeIds:
    def test_perfect_model_scores_one(self):
        ids = RealTimeIds(ConstantModel(0), "all-benign")
        report = ids.process(make_stream(3))
        assert report.mean_accuracy == 1.0
        assert report.n_windows == 3

    def test_wrong_model_scores_zero(self):
        ids = RealTimeIds(ConstantModel(1), "all-malicious")
        report = ids.process(make_stream(3))
        assert report.mean_accuracy == 0.0

    def test_mixed_windows(self):
        ids = RealTimeIds(ConstantModel(0), "all-benign")
        report = ids.process(make_stream(4, malicious_windows={1, 2}))
        assert report.mean_accuracy == pytest.approx(0.5)
        assert report.min_accuracy == 0.0

    def test_window_results_populated(self):
        ids = RealTimeIds(ConstantModel(1), "flagger")
        report = ids.process(make_stream(2, per_window=5, malicious_windows={1}))
        first, second = report.windows
        assert first.n_packets == 5
        assert first.n_malicious_true == 0
        assert first.n_malicious_predicted == 5
        assert second.accuracy == 1.0
        assert second.is_pure_malicious
        assert first.is_pure_benign

    def test_sustainability_attached(self):
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(make_stream(2))
        assert report.sustainability is not None
        assert report.sustainability.model_size_kb > 0
        assert report.sustainability.cpu_percent >= 0

    @pytest.mark.parametrize("model", [ColumnModel(), ShortModel()])
    def test_malformed_predictions_degrade_the_window(self, model):
        """A predict output that is not one verdict per packet is a
        classifier error: the window degrades, the run goes on."""
        ids = RealTimeIds(model, "malformed")
        report = ids.process(make_stream(2))
        assert report.n_windows == 2
        assert all(w.is_degraded for w in report.windows)
        assert all(w.n_malicious_predicted == 0 for w in report.windows)
        assert ids.classifier_errors == 2

    def test_per_model_scaler_applied(self):
        from repro.ml import StandardScaler

        extractor = FeatureExtractor()
        stream = make_stream(3)
        X, _, _ = extractor.transform(stream)
        scaler = StandardScaler().fit(X)
        ids = RealTimeIds(RequireScaledModel(), "m", extractor=extractor, scaler=scaler)
        report = ids.process(stream)
        assert report.n_windows == 3


class TestFinishOutageAccounting:
    """Regression tests for the trailing-outage fixes in finish(until=...)."""

    def test_total_blackout_yields_all_degraded_report(self):
        """Zero packets for the whole run must produce degraded verdicts
        covering [0, until), not an empty report."""
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(batch(), until=5.0)
        assert report.n_windows == 5
        assert [w.window_index for w in report.windows] == [0, 1, 2, 3, 4]
        assert all(w.is_degraded and w.n_packets == 0 for w in report.windows)
        assert report.availability == 0.0

    def test_final_partial_window_gets_verdict(self):
        """until=9.5 with packets only in window 0: windows 1..9 were
        live (window 9 partially) and all need verdicts."""
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(batch(record(0.5)), until=9.5)
        assert [w.window_index for w in report.windows] == list(range(10))
        assert report.windows[9].is_degraded

    def test_until_exactly_on_boundary(self):
        """until=10.0: windows 0..9 only — no phantom window 10."""
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(batch(record(0.5)), until=10.0)
        assert [w.window_index for w in report.windows] == list(range(10))

    def test_until_just_above_boundary_is_robust(self):
        """A float hair above the boundary must not conjure an extra
        empty window."""
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(batch(record(0.5)), until=10.0 + 1e-12)
        assert [w.window_index for w in report.windows] == list(range(10))

    def test_until_just_below_boundary(self):
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(batch(record(0.5)), until=9.999)
        assert [w.window_index for w in report.windows] == list(range(10))

    def test_until_before_last_seen_window_adds_nothing(self):
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(make_stream(4), until=2.0)
        assert report.n_windows == 4

    def test_fractional_window_seconds(self):
        ids = RealTimeIds(ConstantModel(0), "m", window_seconds=0.5)
        report = ids.process(batch(record(0.1)), until=1.25)
        # Windows: [0, .5) seen, [.5, 1) and [1, 1.25) outages.
        assert [w.window_index for w in report.windows] == [0, 1, 2]

    def test_blackout_without_until_stays_empty(self):
        ids = RealTimeIds(ConstantModel(0), "m")
        report = ids.process(batch())
        assert report.n_windows == 0

    def test_reorder_counters_exposed(self):
        ids = RealTimeIds(ConstantModel(0), "m")
        ids.process(make_stream(2))
        assert ids.records_reordered == 0
        assert ids.records_dropped_late == 0


class SpyModel:
    """Benign verdicts; records ``(rows, tracing)`` at every ``predict``.

    ``fail_rows`` makes a window of exactly that many rows raise.
    """

    def __init__(self, fail_rows=None):
        self.fail_rows = fail_rows
        self.calls = []

    def predict(self, X):
        self.calls.append((len(X), tracemalloc.is_tracing()))
        if len(X) == self.fail_rows:
            raise RuntimeError("classifier fault")
        return np.zeros(len(X), dtype=int)


def sized_stream(sizes):
    """Window ``i`` holds ``sizes[i]`` packets."""
    return RecordBatch.from_records(
        [record(s + i / (n + 1)) for s, n in enumerate(sizes) for i in range(n)]
    )


class TestMemoryReRun:
    """Windows are scored untraced; ``finish`` traces one re-run of the
    busiest scored window for Table II's memory column."""

    def test_windows_are_scored_untraced(self):
        spy = SpyModel()
        RealTimeIds(spy, "spy").process(sized_stream([3, 7, 5, 7]))
        assert [rows for rows, _ in spy.calls[:4]] == [3, 7, 5, 7]
        if not tracemalloc.is_tracing():
            assert not any(traced for _, traced in spy.calls[:4])

    def test_finish_re_runs_the_busiest_window_once_traced(self):
        spy = SpyModel()
        report = RealTimeIds(spy, "spy").process(sized_stream([3, 7, 5, 7]))
        assert [rows for rows, _ in spy.calls[4:]] == [7]
        if not tracemalloc.is_tracing():
            assert spy.calls[4][1]
        assert report.sustainability.memory_kb > 0

    def test_a_window_whose_predict_raised_is_not_re_run(self):
        spy = SpyModel(fail_rows=9)
        ids = RealTimeIds(spy, "spy")
        ids.process(sized_stream([3, 9, 5]))
        assert ids.classifier_errors == 1
        assert [rows for rows, _ in spy.calls] == [3, 9, 5, 5]

    def test_no_scored_window_measures_no_memory(self):
        spy = SpyModel(fail_rows=4)
        report = RealTimeIds(spy, "spy").process(sized_stream([4, 4]))
        assert [rows for rows, _ in spy.calls] == [4, 4]
        assert report.sustainability.memory_kb == 0.0
        assert RealTimeIds(SpyModel(), "spy").process(batch()).sustainability.memory_kb == 0.0


class TestResourceMeter:
    def test_accumulates_cpu_and_memory(self):
        ambient = tracemalloc.is_tracing()
        meter = ResourceMeter(window_seconds=1.0)
        meter.start_window()
        _ = [i**2 for i in range(20_000)]  # burn some cpu
        meter.end_window()
        assert meter.windows_measured == 1
        assert meter.cpu_seconds_total > 0
        assert meter.memory_kb == 0.0  # windows are timed, not traced
        meter.measure_memory(lambda: [i**2 for i in range(20_000)])
        assert meter.memory_kb > 0
        assert meter.windows_measured == 1
        assert tracemalloc.is_tracing() == ambient  # its own tracer stopped

    def test_memory_excludes_heap_traced_before_the_window(self):
        # Under ambient tracing (``python -X tracemalloc``, or a caller's
        # own ``tracemalloc.start()``) the measured memory is the call's
        # own peak, not the whole traced heap, and the caller's tracer
        # keeps running.
        ambient = tracemalloc.is_tracing()
        if not ambient:
            tracemalloc.start()
        try:
            ballast = bytearray(16_000_000)
            meter = ResourceMeter(1.0)
            meter.measure_memory(lambda: bytearray(80_000))
            still_tracing = tracemalloc.is_tracing()
            del ballast
        finally:
            if not ambient:
                tracemalloc.stop()
        assert still_tracing
        assert 80 <= meter.memory_kb < 1_000

    def test_cpu_is_the_metering_threads_own(self):
        # A helper thread's CPU (a BLAS thread spinning on another core)
        # is not the window's: the metering thread only waits for it.
        def burn():
            stop = time.thread_time() + 0.1
            while time.thread_time() < stop:
                pass

        meter = ResourceMeter(1.0)
        meter.start_window()
        helper = threading.Thread(target=burn)
        helper.start()
        helper.join(timeout=10)
        meter.end_window()
        assert not helper.is_alive()
        assert meter.cpu_seconds_total < 0.05

    def test_end_without_start_raises(self):
        with pytest.raises(RuntimeError):
            ResourceMeter(1.0).end_window()

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ResourceMeter(0.0)

    def test_cpu_percent_scales_with_budget(self):
        meter_small = ResourceMeter(1.0, iot_cpu_scale=0.01)
        meter_big = ResourceMeter(1.0, iot_cpu_scale=1.0)
        for meter in (meter_small, meter_big):
            meter.start_window()
            _ = sum(i for i in range(50_000))
            meter.end_window()
        assert meter_small.cpu_percent > meter_big.cpu_percent

    def test_finalize_builds_metrics(self):
        meter = ResourceMeter(1.0)
        meter.start_window()
        meter.end_window()
        metrics = meter.finalize(model_size_kb=42.0)
        assert metrics.model_size_kb == 42.0
        assert "42.00 Kb" in str(metrics)

    def test_zero_windows_zero_percent(self):
        meter = ResourceMeter(1.0)
        assert meter.cpu_percent == 0.0
        assert meter.memory_kb == 0.0

    def test_ambient_mirrors_equal_the_meter(self):
        with obs.scope() as ctx:
            ids = RealTimeIds(ConstantModel(0), "mirrored")
            ids.process(make_stream(3))
        meter = ids.meter
        mirrors = ctx.registry.snapshot()
        assert meter.windows_measured == 3
        assert mirrors["ids.windows_measured{model=mirrored}"]["value"] == 3
        assert mirrors["ids.cpu_seconds{model=mirrored}"]["value"] == meter.cpu_seconds_total
        memory = mirrors["ids.window_peak_memory_bytes{model=mirrored}"]
        assert memory["count"] == 1
        assert memory["total"] == pytest.approx(meter.memory_kb * 1000)


class TestDetectionReport:
    def make(self, accuracies, malicious=None):
        report = DetectionReport("m")
        malicious = malicious or [0] * len(accuracies)
        for i, (acc, mal) in enumerate(zip(accuracies, malicious)):
            report.windows.append(
                WindowResult(i, float(i), 10, mal, 0, acc)
            )
        return report

    def test_mean_and_min(self):
        report = self.make([1.0, 0.5, 0.75])
        assert report.mean_accuracy == pytest.approx(0.75)
        assert report.min_accuracy == 0.5

    def test_packet_accuracy_weighted(self):
        report = DetectionReport("m")
        report.windows.append(WindowResult(0, 0.0, 10, 0, 0, 1.0))
        report.windows.append(WindowResult(1, 1.0, 30, 0, 0, 0.5))
        assert report.packet_accuracy == pytest.approx((10 + 15) / 40)

    def test_empty_report(self):
        report = DetectionReport("m")
        assert report.mean_accuracy == 0.0
        assert report.min_accuracy == 0.0
        assert report.packet_accuracy == 0.0

    def test_boundary_windows_flank_transitions(self):
        report = self.make([1.0, 0.4, 1.0, 0.4, 1.0], malicious=[0, 10, 10, 0, 0])
        edges = report.boundary_windows()
        assert [w.window_index for w in edges] == [0, 1, 2, 3]

    def test_accuracy_series(self):
        report = self.make([1.0, 0.5])
        assert report.accuracy_series() == [(0.0, 1.0), (1.0, 0.5)]

    def test_str_mentions_model(self):
        assert "m:" in str(self.make([1.0]))
