#!/usr/bin/env python
"""Benchmark the event kernel: packets per second across node counts.

Runs one seeded scene per node count and merges the timings into
``BENCH_sim.json`` at the repo root (``flood`` and ``benign`` sections
are independent, so either sweep can be re-run without clobbering the
other).

The default sweep is the SYN-flood path; ``--benign`` switches to the
benign plane (HTTP/FTP/RTMP/DNS device mix, no floods).  ``--smoke``
caps the sweep at {16, 64} nodes for CI (seconds, end to end).

    PYTHONPATH=src python benchmarks/bench_sim.py
    PYTHONPATH=src python benchmarks/bench_sim.py --smoke
    PYTHONPATH=src python benchmarks/bench_sim.py --benign --nodes 64 256 1024
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.sim.bench import (
    format_benchmark,
    format_benign_benchmark,
    merge_benchmark,
    run_benign_benchmark,
    run_sim_benchmark,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_sim.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, nargs="+", default=[16, 64, 256, 1024])
    parser.add_argument("--pps", type=float, default=20000.0)
    parser.add_argument("--duration", type=float, default=0.05)
    parser.add_argument("--window-seconds", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--attack", default="syn", choices=["syn", "udp", "ack", "http"])
    parser.add_argument(
        "--segment-size",
        type=int,
        default=64,
        help="devices per CSMA segment (0 = flat LAN, small node counts only)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--benign",
        action="store_true",
        help="benchmark the benign plane (device HTTP/FTP/RTMP/DNS mix, no "
        "floods) instead of the flood path; writes the 'benign' section",
    )
    parser.add_argument(
        "--benign-duration",
        type=float,
        default=8.0,
        help="sim-seconds per benign run (flood --duration is far too short "
        "for session-scale traffic)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="cap the sweep at {16, 64} nodes for CI: fast, correctness-focused",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.nodes = [n for n in args.nodes if n <= 64] or [16, 64]
    if args.benign:
        result = run_benign_benchmark(
            node_counts=args.nodes,
            duration=args.benign_duration,
            seed=args.seed,
            devices_per_segment=args.segment_size,
        )
        section, formatted = "benign", format_benign_benchmark(result)
    else:
        result = run_sim_benchmark(
            node_counts=args.nodes,
            pps_per_node=args.pps,
            duration=args.duration,
            seed=args.seed,
            attack=args.attack,
            window_seconds=args.window_seconds,
            devices_per_segment=args.segment_size,
        )
        section, formatted = "flood", format_benchmark(result)
    result["smoke"] = args.smoke
    path = merge_benchmark(result, args.out, section)
    print(formatted)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
