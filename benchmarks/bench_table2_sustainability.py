"""Table II — ML model sustainability: CPU %, memory, model size.

Paper (DSN'24, Table II):

    Model     CPU (%)   Memory (Kb)   Model Size (Kb)
    RF        65.46     98.07         712.30
    K-Means   67.88     86.83         11.20
    CNN       65.94     275.85        736.30

The bench regenerates the rows from real measurements: CPU is the
detecting thread's ``thread_time`` per window, with no tracer running,
against the documented IoT budget; memory is the real tracemalloc peak
of one traced re-run of the busiest window's detection compute (the
working set an IoT box must provision); model size is the pickled PKL
size.  Shape assertions: the K-Means model is by far the smallest, the
CNN occupies the most working memory, and RF/CNN model sizes are within
the same order of magnitude.
"""

from repro.ids import RealTimeIds

from conftest import write_result


def run_one(detect_capture, trained, scenario):
    """Re-run one model's IDS loop (this is what the benchmark times)."""
    item = trained[0]
    ids = RealTimeIds(
        model=item.model,
        model_name=item.name,
        extractor=item.extractor,
        scaler=item.scaler,
        window_seconds=scenario.window_seconds,
    )
    return ids.process(detect_capture.to_batch())


def test_table2_sustainability(benchmark, detect_capture, trained_models, scenario, detection_reports):
    benchmark.pedantic(
        run_one,
        args=(detect_capture, trained_models, scenario),
        rounds=1,
        iterations=1,
    )
    rows = {}
    for report in detection_reports:
        s = report.sustainability
        assert s is not None
        rows[report.model_name] = (s.cpu_percent, s.memory_kb, s.model_size_kb)

    paper = {
        "RF": (65.46, 98.07, 712.30),
        "K-Means": (67.88, 86.83, 11.20),
        "CNN": (65.94, 275.85, 736.30),
    }
    lines = [
        "Table II: ML models sustainability",
        f"{'Model':<10}{'CPU (%)':>10}{'Mem (Kb)':>12}{'Size (Kb)':>12}"
        f"{'paper CPU':>12}{'paper Mem':>12}{'paper Size':>12}",
    ]
    for name in ("RF", "K-Means", "CNN"):
        cpu, mem, size = rows[name]
        pcpu, pmem, psize = paper[name]
        lines.append(
            f"{name:<10}{cpu:>10.2f}{mem:>12.2f}{size:>12.2f}"
            f"{pcpu:>12.2f}{pmem:>12.2f}{psize:>12.2f}"
        )
    write_result("table2_sustainability", lines)

    # Shape assertions.
    assert rows["K-Means"][2] < rows["RF"][2] / 10, "K-Means model far smallest"
    assert rows["K-Means"][2] < rows["CNN"][2] / 10
    assert rows["CNN"][1] > rows["RF"][1], "CNN uses the most working memory"
    assert rows["CNN"][1] > rows["K-Means"][1]
    # RF and CNN PKLs are the two heavyweight models (same order of magnitude).
    ratio = rows["RF"][2] / rows["CNN"][2]
    assert 0.2 < ratio < 5.0
    # every model fits an IoT-class CPU budget within ~2x
    for name in rows:
        assert rows[name][0] < 200.0
