"""Content-addressed artifact storage for the staged experiment pipeline.

An :class:`ArtifactStore` maps a *stage key* — the SHA-256 of the
canonical JSON of ``(source digest, shuffle seed, stage name, scenario
dict, stage parameters, upstream stage keys)`` — to a committed
directory of artifact files.  Because the key is derived purely from
the code and the inputs, an unchanged stage with unchanged upstream
stages hashes to the same key on every run: a cache hit that lets the
runner skip re-executing it entirely.

Commits are atomic (write into a temp directory, then ``os.replace``
into place), so concurrent campaign workers sharing one cache directory
never observe half-written artifacts; when two workers race to produce
the same key, the loser's rename simply discards its duplicate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Marker file distinguishing a committed entry from debris.
_COMMIT_MARKER = "ARTIFACT.json"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@functools.cache
def source_digest() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` files, once per process.

    Every stage key covers it, so any code change misses the entries
    written before it: artifact formats and stage results need no
    manual version bump.  Hashes each file's package-relative path,
    length and bytes, in sorted path order.
    """
    package = Path(__file__).resolve().parent.parent
    files = sorted(
        (path.relative_to(package).as_posix(), path) for path in package.rglob("*.py")
    )
    digest = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def stage_key(
    stage: str,
    scenario: dict,
    params: dict,
    upstream: dict[str, str],
) -> str:
    """The content hash identifying one stage invocation.

    ``upstream`` maps dependency stage names to *their* keys, so any
    change anywhere upstream cascades into fresh keys downstream.  The
    resolved ``REPRO_SHUFFLE`` seed is part of the key, so a shuffled
    run never reads or writes an unshuffled run's entries.
    """
    from repro.analysis.sanitizers import shuffle_seed_from_env

    payload = {
        "source": source_digest(),
        "shuffle": shuffle_seed_from_env(),
        "stage": stage,
        "scenario": scenario,
        "params": params,
        "upstream": upstream,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass
class StoreStats:
    """Hit/miss counters for one pipeline (or campaign) run."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ArtifactStore:
    """A directory of content-addressed artifact entries.

    Layout: ``<root>/<key[:2]>/<key>/`` holding the stage's artifact
    files plus an ``ARTIFACT.json`` commit marker.  ``stats`` counts
    hits and misses of :meth:`contains` lookups for cache reporting.
    """

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def contains(self, key: str, count: bool = True) -> bool:
        """Whether ``key`` is committed; updates hit/miss stats."""
        present = (self.entry_dir(key) / _COMMIT_MARKER).is_file()
        if count:
            if present:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        return present

    def open(self, key: str) -> Path:
        """Directory of a committed entry (raises ``KeyError`` if absent)."""
        entry = self.entry_dir(key)
        if not (entry / _COMMIT_MARKER).is_file():
            raise KeyError(f"artifact {key} not in store {self.root}")
        return entry

    def begin(self, key: str) -> Path:
        """A private staging directory for writing ``key``'s files."""
        staging = self.root / "tmp" / f"{key}-{uuid.uuid4().hex}"
        staging.mkdir(parents=True, exist_ok=True)
        return staging

    def commit(self, key: str, staging: Path, meta: dict | None = None) -> Path:
        """Atomically publish a staging directory as entry ``key``.

        The commit marker records the stage metadata; it is written
        *before* the rename so a published directory is complete by
        construction.  Losing a publish race is not an error — the
        already-committed entry wins and the duplicate is removed.
        """
        marker = {"key": key, "source": source_digest(), **(meta or {})}
        (staging / _COMMIT_MARKER).write_text(json.dumps(marker, indent=2, sort_keys=True))
        entry = self.entry_dir(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(staging, entry)
        except OSError:
            if (entry / _COMMIT_MARKER).is_file():  # lost the race; keep the winner
                shutil.rmtree(staging, ignore_errors=True)
            else:
                raise
        self.stats.writes += 1
        return entry

    def abort(self, staging: Path) -> None:
        """Discard a staging directory after a failed stage run."""
        shutil.rmtree(staging, ignore_errors=True)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"??/*/{_COMMIT_MARKER}"))
