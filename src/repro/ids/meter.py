"""Sustainability metering: CPU %, occupied memory, and model size.

Table II's three metrics, measured for real:

* **CPU %** — actual ``time.thread_time`` consumed by the IDS's
  per-window compute (feature extraction + scaling + inference), expressed
  as utilisation of an IoT-class CPU budget.  The paper measures the IDS
  container on a laptop; our equivalent models the IDS host as a core
  ``IOT_CPU_SCALE`` times slower than the benchmark machine, so
  ``cpu% = 100 * host_cpu_seconds / (window_seconds * IOT_CPU_SCALE)``.
  The scale constant is documented, not hidden, and the *relative* CPU
  cost across models — which is what the table compares — does not depend
  on it.  The clock is the calling thread's: CPU that helper threads
  burn does not count (a second BLAS thread spins at these window sizes
  rather than speeding inference up), and no window runs under a memory
  tracer, so the figure is the detector's own compute.
* **Memory (Kb)** — real ``tracemalloc`` peak allocation of one traced
  re-run of the busiest window's detection compute, above the traced
  size at the re-run's start (:meth:`ResourceMeter.measure_memory`):
  the working set an IoT box must provision on top of the resident
  model, even when something else already traces allocations.
* **Model size (Kb)** — real pickled size of the trained model (the
  paper's PKL file).

The meter keeps its per-run totals in plain fields, so Table II math is
exact per run.  When an ambient telemetry scope is active, each
measurement is also mirrored into it — ``ids.cpu_seconds``,
``ids.window_peak_memory_bytes``, ``ids.windows_measured`` — labeled by
model.  CPU and memory are wall-clock-derived and registered with
``wall=True`` so deterministic snapshots exclude them.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.obs.registry import NULL_INSTRUMENT

#: How many times slower than the benchmark host an IoT-class core is.
#: 1 host-CPU-millisecond per 1 s window ≈ 2.5% IoT CPU at this scale.
IOT_CPU_SCALE = 0.04

#: Active power draw of an IoT-class SoC core (W).  Used for the §VI
#: Green-AI energy estimates: energy = IoT-CPU-seconds × IOT_WATTS.
IOT_WATTS = 2.5

#: Peak-allocation histogram buckets in bytes (10 KB .. 100 MB).
MEMORY_BUCKETS: tuple[float, ...] = (
    1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8,
)


@dataclass(frozen=True)
class SustainabilityMetrics:
    """One model's Table II row, plus the §VI Green-AI energy estimate."""

    cpu_percent: float
    memory_kb: float
    model_size_kb: float
    energy_mj_per_window: float = 0.0

    def __str__(self) -> str:
        return (
            f"cpu {self.cpu_percent:.2f}% | mem {self.memory_kb:.2f} Kb | "
            f"model {self.model_size_kb:.2f} Kb | "
            f"{self.energy_mj_per_window:.1f} mJ/window"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (pipeline report artifacts)."""
        return {
            "cpu_percent": self.cpu_percent,
            "memory_kb": self.memory_kb,
            "model_size_kb": self.model_size_kb,
            "energy_mj_per_window": self.energy_mj_per_window,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SustainabilityMetrics":
        """Rebuild metrics from :meth:`to_dict`."""
        return cls(**payload)


class ResourceMeter:
    """Accumulates per-window CPU time and one peak-memory measurement.

    ``model`` labels the mirrored ambient metrics so one telemetry scope
    can hold several models' meters side by side.
    """

    def __init__(
        self,
        window_seconds: float,
        iot_cpu_scale: float = IOT_CPU_SCALE,
        model: str = "",
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.window_seconds = window_seconds
        self.iot_cpu_scale = iot_cpu_scale
        self.model = model
        #: CPU seconds the detecting thread spent on windows so far.
        self.cpu_seconds_total = 0.0
        #: Number of windows measured so far.
        self.windows_measured = 0
        #: Largest peak allocation :meth:`measure_memory` saw (bytes).
        self.memory_peak_bytes = 0
        # Ambient mirrors: null objects unless a telemetry scope is active.
        ctx = obs.current()
        if ctx.enabled:
            labels = {"model": model} if model else {}
            self._pub_cpu = ctx.registry.counter("ids.cpu_seconds", wall=True, **labels)
            self._pub_memory = ctx.registry.histogram(
                "ids.window_peak_memory_bytes", buckets=MEMORY_BUCKETS, wall=True, **labels
            )
            self._pub_windows = ctx.registry.counter("ids.windows_measured", **labels)
        else:
            self._pub_cpu = NULL_INSTRUMENT
            self._pub_memory = NULL_INSTRUMENT
            self._pub_windows = NULL_INSTRUMENT
        self._cpu_start: float | None = None

    def start_window(self) -> None:
        """Begin timing one window's detection compute."""
        self._cpu_start = time.thread_time()

    def end_window(self) -> None:
        """Finish timing; accumulates the window's CPU seconds."""
        if self._cpu_start is None:
            raise RuntimeError("end_window() without start_window()")
        elapsed = time.thread_time() - self._cpu_start
        self.cpu_seconds_total += elapsed
        self._pub_cpu.inc(elapsed)
        self._cpu_start = None
        self.windows_measured += 1
        self._pub_windows.inc()

    def measure_memory(self, compute: Callable[[], object]) -> None:
        """Run ``compute`` once under ``tracemalloc``; record its peak.

        The peak is taken above the traced size at the start, so heap
        traced before the call does not count.  The tracer is started
        and stopped here only if nothing else is already tracing.
        """
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            compute()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        peak -= base
        self.memory_peak_bytes = max(self.memory_peak_bytes, peak)
        self._pub_memory.observe(peak)

    @property
    def cpu_percent(self) -> float:
        """Mean IoT-budget utilisation across measured windows."""
        if self.windows_measured == 0:
            return 0.0
        budget = self.windows_measured * self.window_seconds * self.iot_cpu_scale
        return 100.0 * self.cpu_seconds_total / budget

    @property
    def memory_kb(self) -> float:
        """Peak allocation of :meth:`measure_memory` in Kb (0.0 before it;
        the largest if it ran more than once)."""
        return self.memory_peak_bytes / 1000.0

    @property
    def energy_mj_per_window(self) -> float:
        """Mean detection energy per window on an IoT-class core (mJ)."""
        if self.windows_measured == 0:
            return 0.0
        iot_cpu_seconds = self.cpu_seconds_total / self.iot_cpu_scale
        return 1000.0 * iot_cpu_seconds * IOT_WATTS / self.windows_measured

    def finalize(self, model_size_kb: float) -> SustainabilityMetrics:
        """Produce the Table II row for this run."""
        return SustainabilityMetrics(
            cpu_percent=self.cpu_percent,
            memory_kb=self.memory_kb,
            model_size_kb=model_size_kb,
            energy_mj_per_window=self.energy_mj_per_window,
        )
