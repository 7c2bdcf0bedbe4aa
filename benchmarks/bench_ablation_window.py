"""Ablation — statistical-window period vs CPU cost (§IV-E claim).

The paper: "A strategic approach to mitigate this high CPU usage
involves adjusting the frequency at which statistical features are
computed.  By extending the period for computing these features, a
reduction in CPU utilization can be achieved."

The bench sweeps the window period over {0.5, 1, 2, 5} seconds and
re-runs the K-Means IDS on the same live capture, measuring the metered
CPU percentage for each period (after a warm-up pass, so allocator and
numpy cache effects don't masquerade as a trend).

Reproduction verdict (recorded in EXPERIMENTS.md): CPU per
traffic-second falls with longer windows, as the paper says.  On a
2-vCPU Xeon host, three runs read 2.09 → 0.80, 2.49 → 0.94 and
1.69 → 0.78 % from 0.5 s to 5 s windows.  The bench asserts its own
"falls" rule: 5 s windows cost under 0.8× the CPU of 0.5 s windows.
It does not assert a monotonic fall, because neighbouring periods can
swap (the third run read 0.76 % at 2 s and 0.78 % at 5 s).
"""

from repro.ids import RealTimeIds
from repro.ml import KMeansDetector, StandardScaler, train_test_split
from repro.testbed import ModelSpec

from conftest import write_result

PERIODS = (0.5, 1.0, 2.0, 5.0)


def sweep(train_capture, detect_capture, seed):
    rows = []
    spec = ModelSpec(
        "K-Means",
        lambda n, s=seed: KMeansDetector(n_clusters=40, random_state=s),
        stat_set="normalized",
        include_details=True,
        include_timestamp=False,
        scale=True,
    )
    for i, period in enumerate(PERIODS):
        extractor = spec.make_extractor(period)
        X, y, _ = extractor.transform(train_capture.to_batch())
        X_train, X_test, y_train, _ = train_test_split(X, y, seed=seed)
        scaler = StandardScaler().fit(X_train)
        model = spec.factory(X.shape[1])
        model.fit(scaler.transform(X_train), y_train)

        def run_ids():
            ids = RealTimeIds(
                model, f"K-Means@{period}s", extractor=extractor, scaler=scaler,
                window_seconds=period,
            )
            return ids.process(detect_capture.to_batch())

        if i == 0:
            run_ids()  # warm-up: populate numpy/alloc caches once
        report = run_ids()
        assert report.sustainability is not None
        rows.append((period, report.sustainability.cpu_percent, report.mean_accuracy))
    return rows


def test_ablation_window_period_vs_cpu(benchmark, train_capture, detect_capture, scenario):
    rows = benchmark.pedantic(
        sweep, args=(train_capture, detect_capture, scenario.seed), rounds=1, iterations=1
    )
    lines = [
        "Ablation: statistical-window period vs IDS CPU (paper §IV-E)",
        f"{'window (s)':>11}{'CPU (%)':>10}{'accuracy':>10}",
    ]
    for period, cpu, accuracy in rows:
        lines.append(f"{period:>11.1f}{cpu:>10.2f}{accuracy:>10.3f}")
    cpus = [cpu for _, cpu, _ in rows]
    direction = "falls" if cpus[-1] < cpus[0] * 0.8 else "is roughly flat"
    lines.append(
        f"verdict: CPU per traffic-second {direction} with longer windows "
        "(the paper predicts a fall; see EXPERIMENTS.md)"
    )
    write_result("ablation_window", lines)

    # The paper's §IV-E direction: the longest period costs clearly less
    # CPU than the shortest.
    assert cpus[-1] < 0.8 * cpus[0]
    # accuracy stays usable across periods
    assert all(acc > 0.7 for _, _, acc in rows)
