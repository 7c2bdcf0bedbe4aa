"""Feature-pipeline benchmark: throughput of the columnar extractor.

Times the two costs that dominate every experiment — offline
``FeatureExtractor.transform`` over a whole capture (training-set
generation) and per-window ``transform_window`` latency (the real-time
IDS hot path) — on a synthetic capture.  Results are written as JSON
(``BENCH_features.json``) so the perf trajectory of the pipeline is
recorded run over run.  No speedup ratio is reported: the per-record
implementation survives only as the test suite's oracle, and a ratio
against a path kept for comparison is not a result.

Run via ``python benchmarks/bench_features.py`` or
``ddoshield bench-features``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.capture.synthetic import synthetic_capture
from repro.features.pipeline import FeatureExtractor


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time in seconds (min is the least noisy estimator)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_feature_benchmark(
    n_packets: int = 100_000,
    duration: float = 100.0,
    window_seconds: float = 1.0,
    seed: int = 7,
    repeats: int = 3,
    stat_set: str | Sequence[str] = "extended",
) -> dict:
    """Benchmark offline extraction and per-window latency; return results."""
    capture = synthetic_capture(n_packets, duration=duration, seed=seed)
    extractor = FeatureExtractor(
        window_seconds=window_seconds, include_details=True, stat_set=stat_set
    )
    batch = capture.to_batch()

    # Offline path: whole-capture transform (training-set generation).
    transform_seconds = _best_of(lambda: extractor.transform(batch), repeats)

    # Real-time path: per-window latency over every window of the capture.
    windows = [window for _, window in batch.window_slices(window_seconds)]

    def run_windows() -> None:
        for window in windows:
            extractor.transform_window(window)

    window_total = _best_of(run_windows, repeats)

    # Field names are kept from the history's first entries, so
    # ``ddoshield bench-compare`` keeps comparing like with like.
    return {
        "n_packets": n_packets,
        "n_windows": len(windows),
        "duration_seconds": duration,
        "window_seconds": window_seconds,
        "n_features": extractor.n_features,
        "seed": seed,
        "repeats": repeats,
        "offline_transform": {
            "vectorized_seconds": transform_seconds,
            "vectorized_packets_per_second": n_packets / transform_seconds,
        },
        "per_window_latency": {
            "vectorized_mean_ms": 1000.0 * window_total / max(1, len(windows)),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_benchmark(result: dict, path: str | Path) -> Path:
    """Persist benchmark results as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def merge_benchmark(result: dict, path: str | Path, section: str = "features") -> Path:
    """Record a feature-bench result into the shared BENCH history.

    Same append-only ``ddoshield-bench-history/v1`` scheme as
    :func:`repro.sim.bench.merge_benchmark`, so ``BENCH_features.json``
    carries a performance trajectory that ``ddoshield bench-compare``
    can gate on, instead of being overwritten per run.
    """
    from repro.obs.regress import record_benchmark

    path = Path(path)
    record_benchmark(result, path, section)
    return path


def format_benchmark(result: dict) -> str:
    """Human-readable one-screen summary of a benchmark result."""
    offline = result["offline_transform"]
    window = result["per_window_latency"]
    return "\n".join(
        [
            f"feature pipeline benchmark — {result['n_packets']} packets, "
            f"{result['n_windows']} windows, {result['n_features']} features",
            f"  offline transform: {offline['vectorized_seconds']:.3f}s "
            f"({offline['vectorized_packets_per_second']:.0f} pkt/s)",
            f"  per-window latency: {window['vectorized_mean_ms']:.3f}ms",
        ]
    )
