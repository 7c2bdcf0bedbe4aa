"""Labelled traffic datasets.

A :class:`TrafficDataset` holds one time-ordered
:class:`~repro.features.columnar.RecordBatch` — the capture as columns,
exactly as the probe handed it over and the feature pipeline reads it —
with the operations the evaluation needs: class balance summaries (the
paper's §IV-D dataset composition), chronological and stratified splits,
per-attack breakdowns, and CSV round-trips for offline analysis.
:class:`~repro.sim.tracing.PacketRecord` rows are built once, on demand,
only for callers that iterate or index the dataset.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.features.columnar import FIELDS, RecordBatch
from repro.sim.tracing import PacketRecord


@dataclass(frozen=True)
class DatasetSummary:
    """Class-balance summary (the paper's dataset-composition numbers)."""

    total: int
    malicious: int
    benign: int
    by_attack: dict[str, int]
    duration: float

    @property
    def malicious_fraction(self) -> float:
        return self.malicious / self.total if self.total else 0.0

    def __str__(self) -> str:
        lines = [
            f"packets: {self.total} over {self.duration:.1f}s",
            f"  malicious: {self.malicious} ({100 * self.malicious_fraction:.1f}%)",
            f"  benign:    {self.benign} ({100 * (1 - self.malicious_fraction):.1f}%)",
        ]
        for attack, count in sorted(self.by_attack.items()):
            lines.append(f"    {attack}: {count}")
        return "\n".join(lines)


class TrafficDataset:
    """An ordered, labelled packet capture.

    Built from a :class:`RecordBatch`, or from a sequence of
    :class:`PacketRecord` rows, which is converted once.  Either way the
    rows are held in time order.
    """

    def __init__(self, capture: RecordBatch | Sequence[PacketRecord]) -> None:
        if not isinstance(capture, RecordBatch):
            capture = RecordBatch.from_records(capture)
        self._batch = capture
        self._records: list[PacketRecord] | None = None

    def to_batch(self) -> RecordBatch:
        """The capture as the columnar batch the feature pipeline consumes."""
        return self._batch

    @property
    def records(self) -> list[PacketRecord]:
        """The capture as rows, in time order (built on first use)."""
        if self._records is None:
            self._records = self._batch.to_records()
        return self._records

    def __len__(self) -> int:
        return len(self._batch)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> PacketRecord:
        return self.records[index]

    @property
    def labels(self) -> list[int]:
        return self._batch.label.tolist()

    @property
    def duration(self) -> float:
        timestamp = self._batch.timestamp
        if len(timestamp) == 0:
            return 0.0
        return float(timestamp[-1] - timestamp[0])

    def summary(self) -> DatasetSummary:
        """Compute the class-balance summary."""
        batch = self._batch
        malicious = batch.label == 1
        n_malicious = int(batch.label.sum())
        return DatasetSummary(
            total=len(batch),
            malicious=n_malicious,
            benign=len(batch) - n_malicious,
            by_attack=dict(Counter(batch.attack[malicious].tolist())),
            duration=self.duration,
        )

    # ------------------------------------------------------------------
    # Splits

    def chronological_split(self, train_fraction: float = 0.7) -> tuple["TrafficDataset", "TrafficDataset"]:
        """Split by capture time: train on the past, test on the future."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        n = len(self)
        cut = int(n * train_fraction)
        return (
            TrafficDataset(self._batch.slice(0, cut)),
            TrafficDataset(self._batch.slice(cut, n)),
        )

    def stratified_split(
        self, train_fraction: float = 0.7, seed: int = 0
    ) -> tuple["TrafficDataset", "TrafficDataset"]:
        """Random split preserving the malicious/benign ratio."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = random.Random(seed)
        train: list[int] = []
        test: list[int] = []
        for label in (0, 1):
            group = np.flatnonzero(self._batch.label == label).tolist()
            rng.shuffle(group)
            cut = int(len(group) * train_fraction)
            train.extend(group[:cut])
            test.extend(group[cut:])
        return self._subset(train), self._subset(test)

    def _subset(self, rows: list[int]) -> "TrafficDataset":
        """The given rows, back in time order (ties keep list order)."""
        rows_array = np.array(rows, dtype=np.int64)
        order = np.argsort(self._batch.timestamp[rows_array], kind="stable")
        return TrafficDataset(self._batch.take(rows_array[order]))

    def filter(self, predicate) -> "TrafficDataset":
        """A new dataset with only records where ``predicate(record)``."""
        keep = [bool(predicate(record)) for record in self.records]
        return TrafficDataset(self._batch.take(np.array(keep, dtype=bool)))

    def time_slice(self, start: float, end: float) -> "TrafficDataset":
        """Records with ``start <= timestamp < end``."""
        timestamp = self._batch.timestamp
        return TrafficDataset(self._batch.take((timestamp >= start) & (timestamp < end)))

    # ------------------------------------------------------------------
    # Persistence

    def to_csv(self, path: str | Path) -> None:
        """Write the capture as CSV (one row per packet)."""
        columns = [column.tolist() for column in self._batch.columns]
        # ``repr`` round-trips the float bit-exactly; no attack is "".
        columns[0] = map(repr, columns[0])
        columns[-1] = (attack or "" for attack in columns[-1])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FIELDS)
            writer.writerows(zip(*columns))

    @classmethod
    def from_csv(cls, path: str | Path) -> "TrafficDataset":
        """Read a capture previously written by :meth:`to_csv`."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: no CSV header (expected {', '.join(FIELDS)})")
            missing = [name for name in FIELDS if name not in header]
            if missing:
                raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
            rows = list(reader)
        columns = dict(zip(header, zip(*rows, strict=True))) if rows else dict.fromkeys(header, ())
        return cls(
            RecordBatch.from_columns(
                [
                    list(map(float, columns["timestamp"])),
                    *(list(map(int, columns[name])) for name in FIELDS[1:-1]),
                    [attack or None for attack in columns["attack"]],
                ]
            )
        )

    def save(self, path: str | Path) -> Path:
        """Persist the capture as a pipeline artifact (lossless CSV).

        This is the canonical on-disk format for capture-stage artifacts:
        timestamps are written via ``repr`` so the float round-trips
        bit-exactly and a reloaded capture produces byte-identical
        feature matrices.  Returns the written path.
        """
        path = Path(path)
        self.to_csv(path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TrafficDataset":
        """Reload a capture written by :meth:`save`."""
        return cls.from_csv(path)

    @classmethod
    def merge(cls, datasets: Iterable["TrafficDataset"]) -> "TrafficDataset":
        """Concatenate captures and re-sort chronologically."""
        batches = [dataset.to_batch() for dataset in datasets] or [RecordBatch.empty()]
        per_field = zip(*(batch.columns for batch in batches))
        return cls(RecordBatch.from_columns(map(np.concatenate, per_field)))
