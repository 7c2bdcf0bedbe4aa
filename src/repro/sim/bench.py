"""Event-kernel benchmark: packets per second through the data plane.

Two seeded scenes, timed at each node count:

* :func:`run_sim_benchmark` — ``n`` attacker nodes flooding one victim
  (SYN by default) on the hierarchical topology;
* :func:`run_benign_benchmark` — the Figure 1 testbed's benign plane
  (HTTP/FTP/RTMP device sessions and DNS/NTP chatter, no infection).

Each row records wall-clock, executed events and packets per second
under ``scalar`` — the key ``BENCH_sim.json``'s history has carried
since its first entry, which ``ddoshield bench-compare`` gates on —
plus how many ``window_seconds`` capture windows a threshold IDS would
rule attack windows, a sanity check that the scene did what it says.
Results are merged into ``BENCH_sim.json`` so the kernel's perf
trajectory is recorded run over run.

Run via ``python benchmarks/bench_sim.py`` or ``ddoshield bench-sim``.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.botnet.attacks import make_attack
from repro.sim.core import Simulator
from repro.sim.topology import CsmaLan, SegmentedLan
from repro.sim.tracing import PacketProbe

#: Per-window malicious share above which a window is ruled an attack
#: window.
VERDICT_THRESHOLD = 0.5


def build_and_run_flood(
    n_nodes: int,
    pps_per_node: float,
    duration: float,
    seed: int,
    attack: str,
    devices_per_segment: int,
) -> dict:
    """One flood run; returns counters, records, and wall time.

    Public so ``ddoshield profile`` can drive the canonical flood scene
    under a profiling scope without duplicating the topology setup.
    """
    sim = Simulator()
    if devices_per_segment > 0:
        lan: CsmaLan | SegmentedLan = SegmentedLan(
            sim, devices_per_segment=devices_per_segment
        )
    else:
        lan = CsmaLan(sim)
    victim = lan.add_host("tserver")
    victim.tcp.seed(seed + 1)
    listener = victim.tcp.listen(80, on_accept=lambda sock: None)
    probe = lan.add_probe(PacketProbe())
    attackers = [lan.add_host(f"dev-{i}") for i in range(n_nodes)]
    modules = [
        make_attack(
            attack,
            node,
            sim,
            victim.address,
            80,
            pps_per_node,
            duration,
            seed=seed * 1000 + i,
        )
        for i, node in enumerate(attackers)
    ]
    started = time.perf_counter()
    for module in modules:
        sim.schedule(0.0, module.start)
    sim.run(until=duration + 1.0)
    wall = time.perf_counter() - started
    packets_sent = sum(m.packets_sent for m in modules)
    return {
        "wall_seconds": wall,
        "events": sim.events_executed,
        "packets_sent": packets_sent,
        "records": probe.records,
        "syn_dropped": listener.syn_dropped,
        "half_open": len(listener.half_open),
        "unroutable": victim.packets_unroutable,
    }


def _window_counts(records, window_seconds: float) -> tuple[int, int]:
    """(windows, attack windows) a threshold IDS sees in a capture."""
    totals: dict[int, list[int]] = {}
    for record in records:
        bucket = totals.setdefault(int(record.timestamp // window_seconds), [0, 0])
        bucket[0] += 1
        bucket[1] += record.label
    attack = sum(1 for total, bad in totals.values() if bad / total >= VERDICT_THRESHOLD)
    return len(totals), attack


def run_sim_benchmark(
    node_counts: Sequence[int] = (16, 64, 256, 1024),
    pps_per_node: float = 20000.0,
    duration: float = 0.05,
    seed: int = 7,
    attack: str = "syn",
    window_seconds: float = 0.01,
    devices_per_segment: int = 64,
) -> dict:
    """Flood sweep over ``node_counts``; one timed run per count.

    ``devices_per_segment=64`` routes the sweep through the hierarchical
    topology (a flat /24 cannot hold 1024 hosts anyway); pass ``0`` for
    a flat LAN at small node counts.
    """
    runs = []
    for n in node_counts:
        run = build_and_run_flood(
            n, pps_per_node, duration, seed, attack, devices_per_segment
        )
        windows, attack_windows = _window_counts(run["records"], window_seconds)
        # The capture list is the dominant allocation at 1024 nodes;
        # drop it before the next (larger) run.
        run["records"] = None
        runs.append({
            "nodes": n,
            "scalar": {
                "wall_seconds": run["wall_seconds"],
                "events": run["events"],
                "events_per_second": run["events"] / run["wall_seconds"],
                "packets_sent": run["packets_sent"],
                "packets_per_second": run["packets_sent"] / run["wall_seconds"],
            },
            "windows": windows,
            "attack_windows": attack_windows,
            "syn_dropped": run["syn_dropped"],
            "half_open": run["half_open"],
        })
    return {
        "node_counts": list(node_counts),
        "pps_per_node": pps_per_node,
        "duration_seconds": duration,
        "window_seconds": window_seconds,
        "seed": seed,
        "attack": attack,
        "devices_per_segment": devices_per_segment,
        "runs": runs,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _build_and_run_benign(
    n_devices: int,
    duration: float,
    seed: int,
    mean_session_interval: float,
    mean_dns_interval: float,
    devices_per_segment: int,
    weights: tuple[float, float, float],
    rtmp_bitrate_bps: float,
    rtmp_chunk_interval: float,
    ftp_file_bytes: tuple[int, int],
    data_rate: str,
) -> dict:
    """One benign-only testbed run; returns counters, records, and wall.

    Builds the full Figure 1 testbed (TServer apps, device profiles,
    UDP chatter) but never infects, so every packet on the wire is the
    benign plane.  Wall-clock covers the simulation only, not assembly.
    """
    # Local import: repro.testbed imports repro.sim, so the testbed can
    # only be pulled in lazily from inside the sim package.
    from repro.apps import UdpChatter
    from repro.testbed.builder import Testbed
    from repro.testbed.scenario import Scenario

    http_w, ftp_w, rtmp_w = weights
    scenario = Scenario(
        n_devices=n_devices,
        seed=seed,
        devices_per_segment=devices_per_segment,
        mean_session_interval=mean_session_interval,
        mean_dns_interval=mean_dns_interval,
        http_weight=http_w,
        ftp_weight=ftp_w,
        rtmp_weight=rtmp_w,
        rtmp_bitrate_bps=rtmp_bitrate_bps,
        rtmp_chunk_interval=rtmp_chunk_interval,
        ftp_min_file_bytes=ftp_file_bytes[0],
        ftp_max_file_bytes=ftp_file_bytes[1],
        data_rate=data_rate,
    )
    testbed = Testbed(scenario).build()
    probe = testbed.lan.add_probe(PacketProbe())
    started = time.perf_counter()
    testbed.sim.run(until=duration)
    wall = time.perf_counter() - started
    chatters = [
        process
        for dev in testbed.devices
        for process in dev.processes
        if isinstance(process, UdpChatter)
    ]
    assert testbed.tserver is not None
    return {
        "wall_seconds": wall,
        "events": testbed.sim.events_executed,
        "delivered": probe.count,
        "records": probe.records,
        "sessions_started": sum(p.sessions_started for p in testbed.profiles),
        "queries_sent": sum(c.queries_sent for c in chatters),
        "responses_received": sum(c.responses_received for c in chatters),
        "victim_payload_bytes": testbed.tserver.node.tcp.payload_bytes_sent,
    }


def run_benign_benchmark(
    node_counts: Sequence[int] = (64, 256, 1024),
    duration: float = 8.0,
    seed: int = 7,
    mean_session_interval: float = 6.0,
    mean_dns_interval: float = 2.0,
    window_seconds: float = 1.0,
    devices_per_segment: int = 64,
    weights: tuple[float, float, float] = (0.10, 0.45, 0.45),
    rtmp_bitrate_bps: float = 1_600_000.0,
    rtmp_chunk_interval: float = 0.3,
    ftp_file_bytes: tuple[int, int] = (200_000, 800_000),
    data_rate: str = "1Gbps",
) -> dict:
    """Benign-plane sweep over ``node_counts``; one timed run per count.

    The workload is benign by construction (no infection runs): HTTP
    page fetches, bulk FTP downloads, RTMP streams, and DNS/NTP chatter
    from every device against the TServer, so every window a threshold
    IDS sees must be benign.
    """
    runs = []
    for n in node_counts:
        run = _build_and_run_benign(
            n, duration, seed, mean_session_interval,
            mean_dns_interval, devices_per_segment, weights,
            rtmp_bitrate_bps, rtmp_chunk_interval, ftp_file_bytes, data_rate,
        )
        windows, attack_windows = _window_counts(run["records"], window_seconds)
        if attack_windows:
            raise AssertionError(
                f"benign plane produced {attack_windows} attack window(s) at "
                f"{n} devices: some benign traffic is labelled malicious"
            )
        run["records"] = None
        runs.append({
            "nodes": n,
            "scalar": {
                "wall_seconds": run["wall_seconds"],
                "events": run["events"],
                "events_per_second": run["events"] / run["wall_seconds"],
                "packets_delivered": run["delivered"],
                "packets_per_second": run["delivered"] / run["wall_seconds"],
                "sessions_started": run["sessions_started"],
                "queries_sent": run["queries_sent"],
            },
            "windows": windows,
            "responses_received": run["responses_received"],
            "victim_payload_bytes": run["victim_payload_bytes"],
        })
    return {
        "workload": "benign",
        "node_counts": list(node_counts),
        "duration_seconds": duration,
        "window_seconds": window_seconds,
        "seed": seed,
        "mean_session_interval": mean_session_interval,
        "mean_dns_interval": mean_dns_interval,
        "devices_per_segment": devices_per_segment,
        "weights": {"http": weights[0], "ftp": weights[1], "rtmp": weights[2]},
        "rtmp_bitrate_bps": rtmp_bitrate_bps,
        "rtmp_chunk_interval": rtmp_chunk_interval,
        "ftp_file_bytes": list(ftp_file_bytes),
        "data_rate": data_rate,
        "runs": runs,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def format_benign_benchmark(result: dict) -> str:
    """Human-readable one-screen summary of a benign-plane result."""
    lines = [
        f"benign-plane benchmark — HTTP/FTP/RTMP/DNS mix, "
        f"{result['duration_seconds']:g}s sim, "
        f"session interval {result['mean_session_interval']:g}s"
    ]
    for row in result["runs"]:
        scalar = row["scalar"]
        lines.append(
            f"  {row['nodes']:>5} devices: {scalar['packets_per_second']:>9.0f} pkt/s, "
            f"{scalar['events_per_second']:>9.0f} events/s, "
            f"{scalar['packets_delivered']} packets delivered"
        )
    return "\n".join(lines)


def merge_benchmark(result: dict, path: str | Path, section: str) -> Path:
    """Record one section (``"flood"`` or ``"benign"``) into a BENCH history.

    Results append to the ``ddoshield-bench-history/v1`` store (keyed by
    git sha, date, and config fingerprint) instead of overwriting, so
    ``ddoshield bench-compare`` can diff runs across commits.  Legacy
    single-run files are upgraded in place on first append.
    """
    from repro.obs.regress import record_benchmark

    path = Path(path)
    record_benchmark(result, path, section)
    return path


def format_benchmark(result: dict) -> str:
    """Human-readable one-screen summary of a benchmark result."""
    lines = [
        f"event-kernel benchmark — {result['attack']} flood, "
        f"{result['pps_per_node']:.0f} pps/node × {result['duration_seconds']:g}s"
        + (
            f", {result['devices_per_segment']} devs/segment"
            if result["devices_per_segment"]
            else ", flat LAN"
        )
    ]
    for row in result["runs"]:
        scalar = row["scalar"]
        lines.append(
            f"  {row['nodes']:>5} nodes: {scalar['packets_per_second']:>10.0f} pkt/s, "
            f"{scalar['events_per_second']:>10.0f} events/s, "
            f"{row['attack_windows']}/{row['windows']} attack windows"
        )
    return "\n".join(lines)
