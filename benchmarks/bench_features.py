#!/usr/bin/env python
"""Time the columnar feature pipeline.

Runs offline `FeatureExtractor.transform` and per-window IDS latency on
a synthetic capture (default 100k packets) and appends the results to
the ``BENCH_features.json`` history at the repo root (compare runs
across commits with ``ddoshield bench-compare``).  ``--smoke`` runs a tiny
capture for CI (seconds, exercises the columnar path end to end, but
makes no performance claim).

    PYTHONPATH=src python benchmarks/bench_features.py
    PYTHONPATH=src python benchmarks/bench_features.py --smoke
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.features.bench import format_benchmark, merge_benchmark, run_feature_benchmark

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_features.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=100_000)
    parser.add_argument("--duration", type=float, default=100.0)
    parser.add_argument("--window-seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny capture for CI: fast, correctness-focused, no perf claim",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.packets = min(args.packets, 2_000)
        args.duration = min(args.duration, 20.0)
        args.repeats = 1
    result = run_feature_benchmark(
        n_packets=args.packets,
        duration=args.duration,
        window_seconds=args.window_seconds,
        seed=args.seed,
        repeats=args.repeats,
    )
    result["smoke"] = args.smoke
    path = merge_benchmark(result, args.out, "features")
    print(format_benchmark(result))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
