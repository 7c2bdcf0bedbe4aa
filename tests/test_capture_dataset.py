"""Tests for the labelled traffic dataset."""

import csv

import pytest
from hypothesis import given, strategies as st

from repro.capture import TrafficDataset
from repro.features import FeatureExtractor
from repro.sim.tracing import PacketRecord


def record(ts=0.0, label=0, attack=None, src=1, dst=2, dport=80, proto=6):
    return PacketRecord(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        protocol=proto,
        src_port=1000,
        dst_port=dport,
        size=60,
        tcp_flags=16,
        seq=7,
        label=label,
        attack=attack,
    )


def mixed_dataset(n_benign=60, n_malicious=40):
    records = [record(ts=i * 0.01, label=0) for i in range(n_benign)]
    records += [
        record(ts=(n_benign + i) * 0.01, label=1, attack="syn_flood")
        for i in range(n_malicious)
    ]
    return TrafficDataset(records)


class TestSummary:
    def test_counts(self):
        summary = mixed_dataset().summary()
        assert summary.total == 100
        assert summary.malicious == 40
        assert summary.benign == 60
        assert summary.malicious_fraction == pytest.approx(0.4)
        assert summary.by_attack == {"syn_flood": 40}

    def test_empty_dataset(self):
        summary = TrafficDataset([]).summary()
        assert summary.total == 0
        assert summary.malicious_fraction == 0.0
        assert TrafficDataset([]).duration == 0.0

    def test_duration(self):
        assert mixed_dataset().duration == pytest.approx(0.99)

    def test_str_contains_percentages(self):
        text = str(mixed_dataset().summary())
        assert "40.0%" in text
        assert "syn_flood" in text


class TestSplits:
    def test_chronological_split_respects_time(self):
        train, test = mixed_dataset().chronological_split(0.7)
        assert len(train) == 70 and len(test) == 30
        assert max(r.timestamp for r in train) <= min(r.timestamp for r in test)

    def test_stratified_split_preserves_ratio(self):
        train, test = mixed_dataset(600, 400).stratified_split(0.75, seed=1)
        assert train.summary().malicious_fraction == pytest.approx(0.4, abs=0.02)
        assert test.summary().malicious_fraction == pytest.approx(0.4, abs=0.02)

    def test_stratified_split_is_partition(self):
        dataset = mixed_dataset(30, 20)
        train, test = dataset.stratified_split(0.6, seed=2)
        assert len(train) + len(test) == len(dataset)
        seen = sorted(r.timestamp for r in list(train) + list(test))
        assert seen == sorted(r.timestamp for r in dataset)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            mixed_dataset().chronological_split(1.0)
        with pytest.raises(ValueError):
            mixed_dataset().stratified_split(0.0)

    @given(st.floats(min_value=0.1, max_value=0.9))
    def test_property_chronological_sizes(self, fraction):
        dataset = mixed_dataset(50, 50)
        train, test = dataset.chronological_split(fraction)
        assert len(train) == int(100 * fraction)
        assert len(train) + len(test) == 100


class TestFilters:
    def test_filter_by_label(self):
        malicious = mixed_dataset().filter(lambda r: r.label == 1)
        assert len(malicious) == 40
        assert all(r.label == 1 for r in malicious)

    def test_time_slice(self):
        sliced = mixed_dataset().time_slice(0.2, 0.5)
        assert all(0.2 <= r.timestamp < 0.5 for r in sliced)
        assert len(sliced) == 30

    def test_merge_sorts_by_time(self):
        a = TrafficDataset([record(ts=2.0), record(ts=4.0)])
        b = TrafficDataset([record(ts=1.0), record(ts=3.0)])
        merged = TrafficDataset.merge([a, b])
        times = [r.timestamp for r in merged]
        assert times == sorted(times)
        assert len(merged) == 4


class TestCsv:
    def test_roundtrip(self, tmp_path):
        dataset = mixed_dataset(10, 5)
        path = tmp_path / "capture.csv"
        dataset.to_csv(path)
        loaded = TrafficDataset.from_csv(path)
        assert len(loaded) == len(dataset)
        for original, restored in zip(dataset, loaded):
            assert original == restored

    def test_roundtrip_preserves_float_timestamps(self, tmp_path):
        dataset = TrafficDataset([record(ts=1.2345678901234)])
        path = tmp_path / "t.csv"
        dataset.to_csv(path)
        assert TrafficDataset.from_csv(path)[0].timestamp == 1.2345678901234

    def test_none_attack_roundtrips(self, tmp_path):
        dataset = TrafficDataset([record(attack=None), record(attack="udp_flood", label=1)])
        path = tmp_path / "a.csv"
        dataset.to_csv(path)
        loaded = TrafficDataset.from_csv(path)
        assert loaded[0].attack is None
        assert loaded[1].attack == "udp_flood"


class TestTimeOrder:
    """A dataset is held in time order, whatever order its rows came in."""

    @staticmethod
    def out_of_order():
        return [record(ts=2.0, label=1, attack="syn_flood"), record(ts=1.0), record(ts=1.5)]

    @staticmethod
    def check(dataset):
        assert dataset.duration == 2.0 - 1.0
        _, y, _ = FeatureExtractor().transform(dataset.to_batch())
        assert dataset.labels == y.tolist() == [0, 0, 1]
        assert [r.timestamp for r in dataset] == [1.0, 1.5, 2.0]

    def test_rows_out_of_order(self):
        self.check(TrafficDataset(self.out_of_order()))

    def test_csv_written_out_of_order(self, tmp_path):
        path = tmp_path / "disordered.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(PacketRecord._fields)
            for r in self.out_of_order():
                writer.writerow([repr(r.timestamp), *r[1:-1], r.attack or ""])
        self.check(TrafficDataset.from_csv(path))


class TestCsvValidation:
    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "short.csv"
        fields = [f for f in PacketRecord._fields if f not in ("protocol", "seq")]
        path.write_text(",".join(fields) + "\n")
        with pytest.raises(ValueError, match="missing column.*protocol, seq"):
            TrafficDataset.from_csv(path)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no CSV header"):
            TrafficDataset.from_csv(path)

    def test_nan_timestamp_rejected(self, tmp_path):
        """A NaN timestamp has no window: it must not load as a capture
        the IDS would score under a bogus window index."""
        path = tmp_path / "nan.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(PacketRecord._fields)
            for ts in ("0.1", "0.4", "nan", "1.2", "1.7"):
                writer.writerow([ts, *record()[1:-1], ""])
        with pytest.raises(ValueError, match="finite"):
            TrafficDataset.from_csv(path)

    def test_header_only_is_empty_capture(self, tmp_path):
        path = tmp_path / "header.csv"
        TrafficDataset([]).to_csv(path)
        assert len(TrafficDataset.from_csv(path)) == 0
