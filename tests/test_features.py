"""Tests for basic features, window statistics, and the extractor."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.features import (
    BASIC_FEATURE_NAMES,
    FeatureExtractor,
    RecordBatch,
    STATISTICAL_FEATURE_NAMES,
    WindowAggregator,
    basic_features_batch,
    compute_window_statistics,
)
from repro.features.statistical import WindowStatistics
from repro.sim.packet import PROTO_TCP, PROTO_UDP, TcpFlags
from repro.sim.tracing import PacketRecord
from tests.feature_oracle import iter_windows, shannon_entropy


def record(
    ts=0.0,
    src=1,
    dst=2,
    sport=1000,
    dport=80,
    proto=PROTO_TCP,
    flags=int(TcpFlags.ACK),
    size=60,
    seq=0,
    label=0,
):
    return PacketRecord(ts, src, dst, proto, sport, dport, size, flags, seq, label)


def syn(ts=0.0, src=1, dst=2, sport=1000, dport=80, seq=0):
    return record(ts, src, dst, sport, dport, flags=int(TcpFlags.SYN), seq=seq)


def basic_features(record, **flags):
    """The library's basic feature row for one packet."""
    return basic_features_batch(RecordBatch.from_records([record]), **flags)[0]


def window_statistics(records, window_seconds=1.0):
    return compute_window_statistics(RecordBatch.from_records(records), window_seconds)


class TestShannonEntropy:
    """The oracle's entropy, which the columnar statistics are held to."""

    def test_uniform_distribution_max_entropy(self):
        assert shannon_entropy([1, 1, 1, 1]) == pytest.approx(2.0)

    def test_single_value_zero_entropy(self):
        assert shannon_entropy([10]) == 0.0

    def test_empty_is_zero(self):
        assert shannon_entropy([]) == 0.0
        assert shannon_entropy([0, 0]) == 0.0

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=30))
    def test_property_bounds(self, counts):
        entropy = shannon_entropy(counts)
        assert 0.0 <= entropy <= math.log2(len(counts)) + 1e-9


class TestBasicFeatures:
    def test_vector_matches_names(self):
        vec = basic_features(record())
        assert len(vec) == len(BASIC_FEATURE_NAMES)

    def test_values(self):
        vec = basic_features(record(sport=1234, dport=53))
        names = list(BASIC_FEATURE_NAMES)
        assert vec[names.index("src_port")] == 1234
        assert vec[names.index("dst_port")] == 53
        assert vec[names.index("protocol")] == 6

    def test_detail_values(self):
        from repro.features.basic import basic_feature_names

        vec = basic_features(record(size=99), include_details=True)
        names = list(basic_feature_names(include_details=True))
        assert vec[names.index("size")] == 99
        assert vec[names.index("is_ack")] == 1.0
        assert vec[names.index("is_syn")] == 0.0

    def test_include_ips_prepends(self):
        vec = basic_features(record(src=7, dst=9), include_ips=True)
        assert vec[0] == 7.0 and vec[1] == 9.0
        assert len(vec) == len(BASIC_FEATURE_NAMES) + 2

    def test_timestamp_first_and_removable(self):
        vec = basic_features(record(ts=3.5))
        assert vec[0] == 3.5
        vec_no_ts = basic_features(record(ts=3.5), include_timestamp=False)
        assert len(vec_no_ts) == len(vec) - 1

    def test_seq_normalized(self):
        from repro.features.basic import basic_feature_names

        vec = basic_features(record(seq=2**31), include_details=True)
        names = list(basic_feature_names(include_details=True))
        assert vec[names.index("seq_norm")] == pytest.approx(0.5)


class TestWindowStatistics:
    def test_empty_window_is_zeros(self):
        stats = window_statistics([])
        assert stats == WindowStatistics.zeros()
        assert (stats.to_array() == 0).all()

    def test_packet_and_byte_counts(self):
        stats = window_statistics([record(size=100), record(size=50)])
        assert stats.pkt_count == 2
        assert stats.byte_count == 150
        assert stats.mean_size == 75

    def test_dport_entropy_uniform_vs_concentrated(self):
        spread = [record(dport=p) for p in range(16)]
        focused = [record(dport=80) for _ in range(16)]
        assert window_statistics(spread).dport_entropy == pytest.approx(4.0)
        assert window_statistics(focused).dport_entropy == 0.0

    def test_top_dport_fraction(self):
        packets = [record(dport=80)] * 3 + [record(dport=53)]
        assert window_statistics(packets).top_dport_fraction == pytest.approx(0.75)

    def test_syn_without_ack_counts_half_handshakes(self):
        # src 1 completes a handshake (SYN then ACK); src 5 only SYNs.
        packets = [
            syn(src=1, dst=2, dport=80),
            record(src=1, dst=2, dport=80, flags=int(TcpFlags.ACK)),
            syn(src=5, dst=2, dport=80),
            syn(src=6, dst=2, dport=80),
        ]
        stats = window_statistics(packets)
        assert stats.syn_count == 3
        assert stats.syn_without_ack == 2

    def test_repeated_connection_attempts(self):
        packets = [
            syn(src=1, sport=100, dport=80),
            syn(src=1, sport=101, dport=80),  # same (src, dst, dport) again
            syn(src=2, sport=102, dport=80),
        ]
        assert window_statistics(packets).repeated_conn_attempts == 1

    def test_short_lived_connections(self):
        packets = [
            syn(src=1, sport=100, dport=80),
            record(src=1, sport=100, dport=80, flags=int(TcpFlags.FIN | TcpFlags.ACK)),
            syn(src=2, sport=200, dport=80),  # opened but never closed
        ]
        assert window_statistics(packets).short_lived_conns == 1

    def test_udp_fraction(self):
        packets = [record(proto=PROTO_UDP, flags=0)] * 3 + [record()]
        assert window_statistics(packets).udp_fraction == pytest.approx(0.75)

    def test_flow_rate_scales_with_window(self):
        packets = [record(sport=p) for p in range(10)]
        assert window_statistics(packets, 1.0).flow_rate == 10.0
        assert window_statistics(packets, 2.0).flow_rate == 5.0

    def test_seq_std_zero_for_constant(self):
        packets = [record(seq=1000)] * 5
        assert window_statistics(packets).seq_std == 0.0

    def test_seq_std_high_for_random_floods(self):
        rng = np.random.default_rng(0)
        packets = [record(seq=int(s)) for s in rng.integers(0, 2**32, 50)]
        assert window_statistics(packets).seq_std > 0.2

    def test_unique_counts(self):
        packets = [record(src=i % 3, dport=i % 5) for i in range(15)]
        stats = window_statistics(packets)
        assert stats.unique_src == 3
        assert stats.unique_dst_ports == 5

    def test_array_matches_names(self):
        array = window_statistics([record()]).to_array()
        assert len(array) == len(STATISTICAL_FEATURE_NAMES)


class TestIterWindows:
    """The oracle's windowing, which ``FeatureExtractor.transform`` is held to."""

    def test_assigns_by_floor_division(self):
        records = [record(ts=t) for t in (0.1, 0.9, 1.1, 2.5)]
        windows = dict(iter_windows(records, 1.0))
        assert sorted(windows) == [0, 1, 2]
        assert len(windows[0]) == 2

    def test_empty_windows_skipped(self):
        records = [record(ts=0.5), record(ts=5.5)]
        indices = [i for i, _ in iter_windows(records, 1.0)]
        assert indices == [0, 5]

    def test_custom_window_size(self):
        records = [record(ts=t) for t in (0.0, 0.4, 0.6)]
        windows = dict(iter_windows(records, 0.5))
        assert sorted(windows) == [0, 1]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            list(iter_windows([], 0.0))

    def test_unsorted_input_matches_sorted(self):
        """The ordering guard: a jittered capture groups identically to
        its sorted counterpart instead of splitting/mislabeling windows."""
        rng = np.random.default_rng(9)
        times = rng.uniform(0, 5, 60)
        records = [record(ts=float(t), sport=i) for i, t in enumerate(times)]
        records_sorted = sorted(records, key=lambda r: r.timestamp)
        unsorted_windows = {
            i: sorted(r.src_port for r in bucket)
            for i, bucket in iter_windows(records, 1.0)
        }
        sorted_windows = {
            i: sorted(r.src_port for r in bucket)
            for i, bucket in iter_windows(records_sorted, 1.0)
        }
        assert unsorted_windows == sorted_windows
        assert sorted(unsorted_windows) == list(unsorted_windows)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_property_no_packet_lost(self, times):
        records = [record(ts=t) for t in sorted(times)]
        total = sum(len(bucket) for _, bucket in iter_windows(records, 1.0))
        assert total == len(records)


class TestWindowAggregator:
    def test_streams_completed_windows(self):
        emitted = []
        agg = WindowAggregator(1.0, lambda i, recs: emitted.append((i, len(recs))))
        for t in (0.1, 0.5, 1.2, 2.7):
            agg.add(record(ts=t))
        assert emitted == [(0, 2), (1, 1)]
        agg.flush()
        assert emitted == [(0, 2), (1, 1), (2, 1)]

    def test_flush_idempotent(self):
        emitted = []
        agg = WindowAggregator(1.0, lambda i, recs: emitted.append(i))
        agg.add(record(ts=0.0))
        agg.flush()
        agg.flush()
        assert emitted == [0]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowAggregator(-1.0, lambda i, r: None)
        with pytest.raises(ValueError):
            WindowAggregator(1.0, lambda i, r: None, reorder_horizon=-0.5)

    def test_reordered_record_filed_into_true_window(self):
        """An out-of-order record inside the horizon lands in its own
        window, not whichever bucket happened to be open."""
        emitted = {}
        agg = WindowAggregator(
            1.0, lambda i, recs: emitted.__setitem__(i, recs), reorder_horizon=0.5
        )
        for t in (0.2, 1.1, 0.8, 1.4, 2.9):  # 0.8 arrives late
            agg.add(record(ts=t))
        agg.flush()
        assert sorted(emitted) == [0, 1, 2]
        assert [r.timestamp for r in emitted[0]] == [0.2, 0.8]
        assert [r.timestamp for r in emitted[1]] == [1.1, 1.4]
        assert agg.records_reordered == 1
        assert agg.records_dropped_late == 0

    def test_jittered_stream_matches_sorted_assignment(self):
        rng = np.random.default_rng(12)
        times = np.sort(rng.uniform(0, 6, 120))
        jittered = times + rng.uniform(-0.3, 0.3, 120)  # bounded reorder
        order = np.argsort(times, kind="stable")

        def run(stream_times, horizon):
            emitted = {}
            agg = WindowAggregator(
                1.0,
                lambda i, recs: emitted.__setitem__(i, [r.src_port for r in recs]),
                reorder_horizon=horizon,
            )
            for sport, t in stream_times:
                agg.add(record(ts=max(0.0, float(t)), sport=sport))
            agg.flush()
            return emitted, agg

        # Identity of each record is its src_port; deliver in jittered
        # arrival order vs sorted order and compare window assignment.
        arrival = sorted(enumerate(jittered), key=lambda item: item[1])
        by_jittered_arrival = [
            (i, max(0.0, float(times[i]))) for i, _ in arrival
        ]
        by_sorted = [(int(i), max(0.0, float(times[i]))) for i in order]
        jittered_windows, agg = run(by_jittered_arrival, horizon=0.6)
        sorted_windows, _ = run(by_sorted, horizon=0.0)
        assert {k: sorted(v) for k, v in jittered_windows.items()} == {
            k: sorted(v) for k, v in sorted_windows.items()
        }
        assert agg.records_dropped_late == 0

    def test_too_late_record_dropped_with_counter(self):
        emitted = []
        agg = WindowAggregator(1.0, lambda i, recs: emitted.append((i, len(recs))))
        agg.add(record(ts=0.5))
        agg.add(record(ts=3.2))  # emits window 0
        agg.add(record(ts=0.7))  # window 0 already emitted: dropped
        agg.flush()
        assert agg.records_dropped_late == 1
        assert emitted == [(0, 1), (3, 1)]

    def test_emission_order_strictly_increasing_under_jitter(self):
        indices = []
        agg = WindowAggregator(
            1.0, lambda i, recs: indices.append(i), reorder_horizon=0.5
        )
        rng = np.random.default_rng(7)
        times = rng.uniform(0, 10, 200)
        times = np.clip(np.sort(times) + rng.uniform(-0.4, 0.4, 200), 0, None)
        for t in times:
            agg.add(record(ts=float(t)))
        agg.flush()
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_no_packet_lost_or_duplicated_within_horizon(self):
        counts = []
        agg = WindowAggregator(
            1.0, lambda i, recs: counts.append(len(recs)), reorder_horizon=1.0
        )
        rng = np.random.default_rng(3)
        # Jitter of ±0.4 displaces a timestamp at most 0.8s behind the
        # stream maximum, so a 1.0s horizon must lose nothing.
        times = np.clip(np.sort(rng.uniform(0, 5, 80)) + rng.uniform(-0.4, 0.4, 80), 0, None)
        for t in times:
            agg.add(record(ts=float(t)))
        agg.flush()
        assert sum(counts) + agg.records_dropped_late == 80
        assert agg.records_dropped_late == 0  # horizon covers the jitter


class TestFeatureExtractor:
    def make_capture(self):
        rng = np.random.default_rng(1)
        records = []
        for t in np.sort(rng.uniform(0, 5, 200)):
            records.append(record(ts=float(t), sport=int(rng.integers(1024, 60000))))
        return RecordBatch.from_records(records)

    def test_matrix_shape(self):
        extractor = FeatureExtractor(window_seconds=1.0)
        X, y, windows = extractor.transform(self.make_capture())
        assert X.shape == (200, extractor.n_features)
        assert len(y) == 200
        assert len(windows) == 200

    def test_statistics_identical_within_window(self):
        """The paper's design: window stats repeat for every packet."""
        extractor = FeatureExtractor(window_seconds=1.0)
        X, _, windows = extractor.transform(self.make_capture())
        n_basic = len(BASIC_FEATURE_NAMES)
        for w in np.unique(windows):
            block = X[windows == w, n_basic:]
            assert (block == block[0]).all()

    def test_without_statistics(self):
        extractor = FeatureExtractor(stat_set="none")
        X, _, _ = extractor.transform(self.make_capture())
        assert X.shape[1] == len(BASIC_FEATURE_NAMES)

    def test_with_ips(self):
        from repro.features.statistical import PAPER_STATISTICAL_FEATURE_NAMES

        extractor = FeatureExtractor(include_ips=True)
        assert extractor.n_features == len(BASIC_FEATURE_NAMES) + 2 + len(
            PAPER_STATISTICAL_FEATURE_NAMES
        )

    def test_stat_set_variants(self):
        from repro.features.statistical import (
            NORMALIZED_STATISTICAL_FEATURE_NAMES,
            PAPER_STATISTICAL_FEATURE_NAMES,
        )

        paper = FeatureExtractor(stat_set="paper")
        normalized = FeatureExtractor(stat_set="normalized")
        extended = FeatureExtractor(stat_set="extended")
        assert paper.stat_names == PAPER_STATISTICAL_FEATURE_NAMES
        assert normalized.stat_names == NORMALIZED_STATISTICAL_FEATURE_NAMES
        assert extended.stat_names == STATISTICAL_FEATURE_NAMES
        explicit = FeatureExtractor(stat_set=("pkt_count", "seq_std"))
        assert explicit.stat_names == ("pkt_count", "seq_std")

    def test_unknown_stat_set_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            FeatureExtractor(stat_set="bogus")
        with _pytest.raises(ValueError):
            FeatureExtractor(stat_set=("no_such_stat",))

    def test_empty_capture(self):
        extractor = FeatureExtractor()
        X, y, windows = extractor.transform(RecordBatch.empty())
        assert X.shape == (0, extractor.n_features)
        assert len(y) == 0

    def test_transform_window_matches_transform(self):
        batch = RecordBatch.from_records([record(ts=0.1), record(ts=0.2), syn(ts=0.3)])
        extractor = FeatureExtractor()
        from_stream = extractor.transform_window(batch)
        from_batch, _, _ = extractor.transform(batch)
        np.testing.assert_allclose(from_stream, from_batch)

    def test_labels_preserved(self):
        records = [record(ts=0.1, label=0), record(ts=0.2, label=1)]
        _, y, _ = FeatureExtractor().transform(RecordBatch.from_records(records))
        assert y.tolist() == [0, 1]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(window_seconds=0)
