"""Micro-benchmark for the telemetry no-op fast path.

Instrumentation stays compiled into the hot paths even when telemetry
is off, so the disabled cost must be a hair above an uninstrumented
loop.  This benchmark measures three variants of the same arithmetic
loop — uninstrumented, disabled-registry ``inc()``, enabled-registry
``inc()`` — and reports per-iteration nanoseconds and overhead ratios.

Run it with ``python -m repro.obs.bench``; ``tests/test_obs.py`` pins
the disabled ratio with a generous bound so CI noise cannot flake it.
"""

from __future__ import annotations

import time

from repro.obs.registry import MetricsRegistry


def _loop_uninstrumented(iterations: int) -> float:
    acc = 0.0
    for i in range(iterations):
        acc += i * 0.5
    return acc


def _loop_counter(iterations: int, counter) -> float:
    acc = 0.0
    for i in range(iterations):
        acc += i * 0.5
        counter.inc()
    return acc


def _time_interleaved(fns, repeats: int) -> list[float]:
    """Best-of-``repeats`` wall seconds of each of ``fns``.

    Every repeat times each variant in turn (a, b, c, a, b, c, ...), so
    a burst of load from elsewhere on the host lands on all of them
    rather than on whichever ran while it lasted; the minimum filters
    scheduler noise.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def run_overhead_benchmark(iterations: int = 200_000, repeats: int = 5) -> dict:
    """Measure disabled/enabled telemetry overhead vs an uninstrumented loop.

    Returns per-variant best-of-``repeats`` ns/iteration plus the
    ratios the no-op fast path is judged by.
    """
    disabled = MetricsRegistry(enabled=False).counter("bench.ops")
    enabled = MetricsRegistry(enabled=True).counter("bench.ops")

    base, off, on = _time_interleaved(
        [
            lambda: _loop_uninstrumented(iterations),
            lambda: _loop_counter(iterations, disabled),
            lambda: _loop_counter(iterations, enabled),
        ],
        repeats,
    )

    scale = 1e9 / iterations
    return {
        "iterations": iterations,
        "repeats": repeats,
        "uninstrumented_ns": base * scale,
        "disabled_ns": off * scale,
        "enabled_ns": on * scale,
        "disabled_ratio": off / base if base else float("inf"),
        "enabled_ratio": on / base if base else float("inf"),
    }


class _BenchEvent:
    """Minimal stand-in for a kernel Event (time, priority, callback + args)."""

    __slots__ = ("time", "priority", "callback", "args")

    def __init__(self, callback, args=()) -> None:
        self.time = 0.0
        self.priority = 0
        self.callback = callback
        self.args = args


def _loop_dispatch_direct(events) -> None:
    for event in events:
        event.callback(*event.args)


def _loop_dispatch_gated(events, profiler) -> None:
    # The exact shape of the kernel's dispatch site: one `is None`
    # check per event when profiling is off.
    for event in events:
        if profiler is None:
            event.callback(*event.args)
        else:
            profiler.dispatch(event)


def run_profiler_overhead_benchmark(iterations: int = 50_000, repeats: int = 5) -> dict:
    """Measure the profiler's dispatch-site overhead.

    Three variants of draining the same event list: direct callback
    (the pre-profiler kernel), the gated dispatch with profiling *off*
    (what every un-profiled run now pays — the pinned bound), and with
    profiling *on* (two clock reads + a dict hit per event).
    """
    from repro.obs.profile import KernelProfiler

    def _noop() -> None:
        pass

    events = [_BenchEvent(_noop) for _ in range(iterations)]
    profiler = KernelProfiler()

    base, off, on = _time_interleaved(
        [
            lambda: _loop_dispatch_direct(events),
            lambda: _loop_dispatch_gated(events, None),
            lambda: _loop_dispatch_gated(events, profiler),
        ],
        repeats,
    )

    scale = 1e9 / iterations
    return {
        "iterations": iterations,
        "repeats": repeats,
        "direct_ns": base * scale,
        "profile_off_ns": off * scale,
        "profile_on_ns": on * scale,
        "profile_off_ratio": off / base if base else float("inf"),
        "profile_on_ratio": on / base if base else float("inf"),
    }


def main() -> None:
    result = run_overhead_benchmark()
    print(f"iterations per variant : {result['iterations']} (best of {result['repeats']})")
    print(f"uninstrumented loop    : {result['uninstrumented_ns']:8.2f} ns/iter")
    print(
        f"disabled registry inc(): {result['disabled_ns']:8.2f} ns/iter "
        f"({result['disabled_ratio']:.2f}x)"
    )
    print(
        f"enabled registry inc() : {result['enabled_ns']:8.2f} ns/iter "
        f"({result['enabled_ratio']:.2f}x)"
    )
    prof = run_profiler_overhead_benchmark()
    print(f"dispatch direct        : {prof['direct_ns']:8.2f} ns/event")
    print(
        f"dispatch, profile off  : {prof['profile_off_ns']:8.2f} ns/event "
        f"({prof['profile_off_ratio']:.2f}x)"
    )
    print(
        f"dispatch, profile on   : {prof['profile_on_ns']:8.2f} ns/event "
        f"({prof['profile_on_ratio']:.2f}x)"
    )


if __name__ == "__main__":
    main()
