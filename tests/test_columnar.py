"""Tests for the columnar record store and vectorized feature path.

The contract under test: the library pipeline (RecordBatch +
compute_window_statistics + basic_features_batch) is numerically
interchangeable with the per-record oracle in ``tests.feature_oracle``
to 1e-9.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import TrafficDataset, synthetic_capture
from repro.features import (
    FeatureExtractor,
    RecordBatch,
    basic_features_batch,
    compute_window_statistics,
)
from repro.sim.packet import PROTO_TCP, PROTO_UDP, TcpFlags
from repro.sim.tracing import PacketRecord
from tests.feature_oracle import (
    basic_features,
    compute_window_statistics_legacy,
    iter_windows,
    transform_legacy,
    transform_window_legacy,
)


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
    attack=None,
):
    return PacketRecord(ts, src, dst, proto, sport, dport, size, flags, seq, label, attack)


#: Randomized single-window record generator for the equivalence tests:
#: small cardinalities force collisions so the set-algebra statistics
#: (SYN-without-ACK, short-lived, repeated attempts) take every branch.
record_strategy = st.builds(
    record,
    ts=st.floats(min_value=0.0, max_value=0.999),
    src=st.integers(1, 5),
    dst=st.integers(1, 4),
    sport=st.integers(1000, 1006),
    dport=st.sampled_from([80, 443, 53, 9999]),
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, 1]),
    flags=st.integers(0, 0x3F),
    size=st.integers(40, 1500),
    seq=st.integers(0, 2**32 - 1),
    label=st.integers(0, 1),
)


def value_pool(low, high, aliases=()):
    """A small pool of full-range values: draws, extremes and aliases.

    The aliases share their low bits with an extreme (``2**16`` and
    ``2**31`` with address ``0``; ports ``256`` with ``0`` and ``255``
    with ``65535``), so a kernel that truncated or packed key columns
    would merge groups.
    """
    edges = st.sampled_from((low, high, *aliases))
    return st.lists(edges | st.integers(low, high), min_size=1, max_size=4)


@st.composite
def full_range_records(draw):
    """One window drawn from full-range pools, keeping tuple collisions."""
    ips = draw(value_pool(0, 2**32 - 1, aliases=(2**16, 2**31)))
    ports = draw(value_pool(0, 65535, aliases=(255, 256)))
    protocols = draw(value_pool(0, 255, aliases=(PROTO_TCP, PROTO_UDP)))
    rows = st.builds(
        record,
        ts=st.floats(min_value=0.0, max_value=0.999),
        src=st.sampled_from(ips),
        dst=st.sampled_from(ips),
        sport=st.sampled_from(ports),
        dport=st.sampled_from(ports),
        proto=st.sampled_from(protocols),
        flags=st.integers(0, 0x3F),
        size=st.integers(40, 1500),
        seq=st.integers(0, 2**32 - 1),
        label=st.integers(0, 1),
    )
    return draw(st.lists(rows, max_size=60))


class TestRecordBatch:
    def test_round_trip(self):
        records = [record(ts=0.1, attack="syn_flood", label=1), record(ts=0.5)]
        assert RecordBatch.from_records(records).to_records() == records

    def test_unsorted_input_stable_sorted(self):
        records = [record(ts=2.0, sport=1), record(ts=1.0), record(ts=2.0, sport=2)]
        batch = RecordBatch.from_records(records)
        assert batch.timestamp.tolist() == [1.0, 2.0, 2.0]
        # Stable: the two ts=2.0 records keep their relative order.
        assert batch.src_port.tolist() == [1000, 1, 2]

    def test_len_and_empty(self):
        assert len(RecordBatch.empty()) == 0
        assert len(RecordBatch.from_records([record()])) == 1

    def test_slice_is_zero_copy(self):
        batch = RecordBatch.from_records([record(ts=t / 10) for t in range(10)])
        view = batch.slice(2, 5)
        assert len(view) == 3
        assert view.timestamp.base is batch.timestamp

    def test_flag_masks_match_record_properties(self):
        records = [
            record(flags=f, proto=p)
            for f in range(0x40)
            for p in (PROTO_TCP, PROTO_UDP)
        ]
        batch = RecordBatch.from_records(records)
        for i, r in enumerate(batch.to_records()):
            assert batch.is_syn[i] == r.is_syn
            assert batch.is_ack[i] == r.is_ack
            assert batch.is_fin[i] == r.is_fin
            assert batch.is_rst[i] == bool(r.tcp_flags & 0x04)
            assert batch.is_tcp[i] == r.is_tcp
            assert batch.is_udp[i] == r.is_udp

    def test_window_slices_match_iter_windows(self):
        rng = np.random.default_rng(3)
        records = [record(ts=float(t)) for t in np.sort(rng.uniform(0, 8, 100))]
        batch = RecordBatch.from_records(records)
        sliced = {
            index: window.to_records()
            for index, window in batch.window_slices(1.0)
        }
        legacy = dict(iter_windows(records, 1.0))
        assert sliced == legacy

    def test_from_columns_matches_from_records(self):
        records = [record(ts=2.0, sport=1), record(ts=1.0, attack="syn_flood", label=1)]
        from_columns = RecordBatch.from_columns(zip(*records))
        assert from_columns.to_records() == RecordBatch.from_records(records).to_records()
        assert from_columns.timestamp.tolist() == [1.0, 2.0]

    def test_from_columns_rejects_ragged_columns(self):
        columns = [list(values) for values in zip(record(), record())]
        columns[3].pop()
        with pytest.raises(ValueError):
            RecordBatch.from_columns(columns)
        with pytest.raises(ValueError):
            RecordBatch.from_columns(columns[:-1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_from_columns_rejects_non_finite_timestamps(self, bad):
        columns = [list(values) for values in zip(record(ts=0.5), record(ts=1.5))]
        columns[0][1] = bad
        with pytest.raises(ValueError, match="finite"):
            RecordBatch.from_columns(columns)

    def test_to_records_yields_python_scalars(self):
        row = RecordBatch.from_records([record(ts=0.5, attack="udp_flood")]).to_records()[0]
        assert type(row.timestamp) is float
        assert all(type(value) is int for value in row[1:-1])
        assert row.attack == "udp_flood"

    def test_window_slices_rejects_bad_window(self):
        with pytest.raises(ValueError):
            list(RecordBatch.from_records([record()]).window_slices(0.0))


class TestVectorizedStatisticsEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(record_strategy, min_size=0, max_size=60), full_range_records())
    def test_matches_legacy_on_random_windows(self, records, wide_records):
        for window in (records, wide_records):
            batch = RecordBatch.from_records(window)
            vectorized = compute_window_statistics(batch, 1.0).to_array()
            legacy = compute_window_statistics_legacy(window, 1.0).to_array()
            np.testing.assert_allclose(vectorized, legacy, atol=1e-9, rtol=0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(record_strategy, min_size=1, max_size=40),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_legacy_for_window_lengths(self, records, window_seconds):
        batch = RecordBatch.from_records(records)
        vectorized = compute_window_statistics(batch, window_seconds).to_array()
        legacy = compute_window_statistics_legacy(records, window_seconds).to_array()
        np.testing.assert_allclose(vectorized, legacy, atol=1e-9, rtol=0)

    def test_synthetic_capture_windows(self):
        capture = synthetic_capture(3_000, duration=10.0, seed=11)
        for _, window in capture.to_batch().window_slices(1.0):
            vectorized = compute_window_statistics(window).to_array()
            legacy = compute_window_statistics_legacy(window.to_records()).to_array()
            np.testing.assert_allclose(vectorized, legacy, atol=1e-9, rtol=0)


class TestVectorizedBasicFeatures:
    @pytest.mark.parametrize("include_ips", [False, True])
    @pytest.mark.parametrize("include_timestamp", [False, True])
    @pytest.mark.parametrize("include_details", [False, True])
    def test_matches_per_record(self, include_ips, include_timestamp, include_details):
        rng = np.random.default_rng(5)
        records = [
            record(
                ts=float(t),
                src=int(rng.integers(1, 9)),
                flags=int(rng.integers(0, 0x40)),
                seq=int(rng.integers(0, 2**32)),
                proto=int(rng.choice([PROTO_TCP, PROTO_UDP])),
            )
            for t in np.sort(rng.uniform(0, 3, 50))
        ]
        batch = RecordBatch.from_records(records)
        vectorized = basic_features_batch(
            batch, include_ips, include_timestamp, include_details
        )
        legacy = np.stack(
            [
                basic_features(r, include_ips, include_timestamp, include_details)
                for r in records
            ]
        )
        np.testing.assert_allclose(vectorized, legacy, atol=1e-9, rtol=0)


class TestVectorizedTransformEquivalence:
    @pytest.mark.parametrize("stat_set", ["paper", "normalized", "extended", "none"])
    def test_transform_matches_legacy(self, stat_set):
        capture = synthetic_capture(1_500, duration=8.0, seed=23)
        extractor = FeatureExtractor(
            window_seconds=1.0, include_details=True, stat_set=stat_set
        )
        X_legacy, y_legacy, w_legacy = transform_legacy(extractor, capture.records)
        X_vector, y_vector, w_vector = extractor.transform(capture.to_batch())
        np.testing.assert_allclose(X_vector, X_legacy, atol=1e-9, rtol=0)
        np.testing.assert_array_equal(y_vector, y_legacy)
        np.testing.assert_array_equal(w_vector, w_legacy)

    def test_transform_window_matches_legacy(self):
        capture = synthetic_capture(400, duration=1.0, seed=2)
        extractor = FeatureExtractor(include_details=True, stat_set="extended")
        np.testing.assert_allclose(
            extractor.transform_window(capture.to_batch()),
            transform_window_legacy(extractor, capture.records),
            atol=1e-9,
            rtol=0,
        )

    def test_transform_unsorted_records_match_sorted(self):
        capture = synthetic_capture(300, duration=3.0, seed=9)
        shuffled = list(capture.records)
        np.random.default_rng(0).shuffle(shuffled)
        extractor = FeatureExtractor()
        X_sorted, y_sorted, w_sorted = extractor.transform(capture.to_batch())
        X_shuffled, y_shuffled, w_shuffled = extractor.transform(
            RecordBatch.from_records(shuffled)
        )
        np.testing.assert_allclose(X_shuffled, X_sorted, atol=1e-9, rtol=0)
        np.testing.assert_array_equal(w_shuffled, w_sorted)

    def test_empty_transform(self):
        extractor = FeatureExtractor()
        X, y, w = extractor.transform(RecordBatch.empty())
        assert X.shape == (0, extractor.n_features)
        assert len(y) == 0 and len(w) == 0


class TestDatasetBatch:
    def test_to_batch_cached(self):
        dataset = TrafficDataset([record(ts=0.1), record(ts=0.2)])
        assert dataset.to_batch() is dataset.to_batch()

    def test_synthetic_capture_shape(self):
        capture = synthetic_capture(500, duration=5.0, malicious_fraction=0.3, seed=1)
        assert len(capture) == 500
        summary = capture.summary()
        assert 0 < summary.malicious < 500
        assert set(summary.by_attack) <= {"syn_flood", "udp_flood"}
        batch = capture.to_batch()
        assert np.all(np.diff(batch.timestamp) >= 0)
