"""Figure 2 — the IDS component's three stages, with per-stage latency.

Figure 2 decomposes the IDS into (i) real-time traffic monitoring,
(ii) data preprocessing (window aggregation + feature extraction +
scaling), and (iii) attack identification (model inference).  The bench
measures the latency of each stage for one representative 1-second
window per model, confirming the pipeline structure and that a full
window is processed well within its real-time budget.
"""

import time

import numpy as np

from conftest import write_result


def stage_latencies(detect_capture, trained, scenario):
    """Per-stage wall latency for the busiest window, per model."""
    windows = list(detect_capture.to_batch().window_slices(scenario.window_seconds))
    _, busiest = max(windows, key=lambda pair: len(pair[1]))
    records = busiest.to_records()
    rows = []
    for item in trained:
        t0 = time.perf_counter()
        for record in records:  # stage 1: monitoring hand-off
            pass
        t1 = time.perf_counter()
        X = item.extractor.transform_window(busiest)  # stage 2a: features
        X = item.scaler.transform(X)  # stage 2b: scaling
        t2 = time.perf_counter()
        predictions = item.model.predict(X)  # stage 3: identification
        t3 = time.perf_counter()
        rows.append(
            (item.name, len(busiest), (t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3,
             int(np.sum(predictions)))
        )
    return rows


def test_fig2_ids_pipeline(benchmark, detect_capture, trained_models, scenario):
    rows = benchmark.pedantic(
        stage_latencies,
        args=(detect_capture, trained_models, scenario),
        rounds=1,
        iterations=1,
    )
    lines = [
        "Figure 2: IDS stages — monitor / preprocess / identify (busiest window)",
        f"{'Model':<10}{'pkts':>6}{'monitor ms':>12}{'preprocess ms':>15}{'identify ms':>13}",
    ]
    for name, n, monitor_ms, preprocess_ms, identify_ms, flagged in rows:
        lines.append(
            f"{name:<10}{n:>6}{monitor_ms:>12.3f}{preprocess_ms:>15.3f}{identify_ms:>13.3f}"
        )
    write_result("fig2_ids_pipeline", lines)

    for name, n, monitor_ms, preprocess_ms, identify_ms, flagged in rows:
        total_ms = monitor_ms + preprocess_ms + identify_ms
        # Real-time feasibility: a 1 s window processed in far less than 1 s.
        assert total_ms < 1000.0 * scenario.window_seconds
        # The pipeline has real preprocessing and identification stages.
        assert preprocess_ms > 0 and identify_ms > 0
