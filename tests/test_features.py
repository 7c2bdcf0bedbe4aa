"""Tests for basic features, window statistics, and the extractor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from tests.feature_oracle import RowWindowAggregator, iter_windows, shannon_entropy


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


#: Timestamps on a 1/8 s grid (exact window boundaries such as 2.0, and
#: duplicates) or anywhere in [0, 6].
ARRIVAL_TIMES = st.one_of(
    st.integers(0, 48).map(lambda k: k / 8),
    st.floats(0, 6, allow_nan=False, allow_infinity=False),
)


@st.composite
def arrivals(draw):
    """Arrival chunks ``(kind, rows)`` for the live window assembler.

    A chunk is one ``"row"``, a ``"train"`` with strictly increasing
    times, or a ``"flush"`` (no rows).  The chunks arrive sorted by first
    timestamp or in drawn order, so a chunk can be behind the stream: a
    straggler for the open window, for a passed one, or for one already
    emitted.  Each row's ``src_port`` is its arrival number, so the
    column bytes pin the row order.
    """
    chunks = []
    port = 0
    kinds = st.sampled_from(["row", "row", "train", "train", "flush"])
    for kind in draw(st.lists(kinds, max_size=30)):
        if kind == "train":
            times = sorted(draw(st.lists(ARRIVAL_TIMES, min_size=1, max_size=6, unique=True)))
        elif kind == "row":
            times = [draw(ARRIVAL_TIMES)]
        else:
            times = []
        rows = []
        for t in times:
            port += 1
            label = int(port % 3 == 0)
            attack = "udp_flood" if label else None
            rows.append(PacketRecord(t, 1, 2, PROTO_UDP, port, 53, 60, 0, 0, label, attack))
        chunks.append((kind, rows))
    if draw(st.booleans()):  # sort the rows and trains; flushes keep their place
        slots = [i for i, (kind, _) in enumerate(chunks) if kind != "flush"]
        ordered = sorted((chunks[i] for i in slots), key=lambda chunk: chunk[1][0].timestamp)
        for i, chunk in zip(slots, ordered):
            chunks[i] = chunk
    return chunks


def window_bytes(window):
    """A window's columns as bytes (the object column ``attack`` as values)."""
    return tuple(
        column.tolist() if column.dtype == object else column.tobytes()
        for column in window.columns
    )


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

    def test_reordered_record_filed_into_true_window(self):
        """An out-of-order record lands in its own window, not whichever
        bucket happened to be open: sorted into the open window, or
        emitted at once as a window the stream has already passed."""
        emitted = {}
        agg = WindowAggregator(1.0, lambda i, window: emitted.__setitem__(i, window))
        for t in (0.2, 0.8, 0.5, 2.5, 1.5, 2.9):  # 0.5 and 1.5 arrive late
            agg.add(record(ts=t))
        agg.flush()
        assert sorted(emitted) == [0, 1, 2]
        assert emitted[0].timestamp.tolist() == [0.2, 0.5, 0.8]
        assert emitted[1].timestamp.tolist() == [1.5]
        assert emitted[2].timestamp.tolist() == [2.5, 2.9]
        assert agg.records_reordered == 2
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
        agg = WindowAggregator(1.0, lambda i, recs: indices.append(i))
        rng = np.random.default_rng(7)
        times = rng.uniform(0, 10, 200)
        times = np.clip(np.sort(times) + rng.uniform(-0.4, 0.4, 200), 0, None)
        for t in times:
            agg.add(record(ts=float(t)))
        agg.flush()
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    @settings(max_examples=300, deadline=None)
    @given(arrivals(), st.sampled_from([1.0, 0.5, 0.3]))
    def test_matches_row_oracle(self, chunks, window_seconds):
        """The columnar assembler against the record-at-a-time one: the
        same windows (column bytes), emitted in the same order during
        the same chunk of ``add`` calls, with the same counters."""
        chunk_no = 0
        emitted: dict[str, list] = {"oracle": [], "columnar": []}

        def sink(name):
            return lambda index, window: emitted[name].append(
                (chunk_no, index, window_bytes(window))
            )

        oracle = RowWindowAggregator(
            window_seconds,
            lambda index, rows: sink("oracle")(index, RecordBatch.from_records(rows)),
        )
        columnar = WindowAggregator(window_seconds, sink("columnar"))
        for chunk_no, (kind, rows) in enumerate(chunks):
            if kind == "flush":
                oracle.flush()
                columnar.flush()
                continue
            for row in rows:
                oracle.add(row)
                columnar.add(row)
        chunk_no = len(chunks)
        oracle.flush()
        columnar.flush()
        assert emitted["columnar"] == emitted["oracle"]
        for counter in ("windows_emitted", "records_reordered", "records_dropped_late"):
            assert getattr(columnar, counter) == getattr(oracle, counter)


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
