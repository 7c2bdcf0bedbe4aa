"""Campaign runner: sweep a scenario/seed grid, sharded across workers.

A :class:`CampaignSpec` expands into one run per (scenario × seed) grid
cell; :func:`run_campaign` executes them — in process for ``jobs=1``,
across a ``multiprocessing`` pool otherwise — with every worker sharing
one content-addressed :class:`~repro.pipeline.store.ArtifactStore`.
Per-run results are merged, in deterministic grid order, into a
:class:`CampaignReport` with per-scenario Table I / Table II aggregates
and cache accounting, which is how the repo reports robustness across
traffic mixes (the sweep-style evaluation of Kitsune-like IDS papers).

Repeating a campaign against the same cache directory re-executes zero
stages: every run is served from the store and the report (timing
aside) is identical.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import signal
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.pipeline.stages import run_experiment_pipeline
from repro.testbed.experiment import FaultExperimentResult
from repro.testbed.scenario import Scenario


@dataclass(frozen=True)
class CampaignSpec:
    """The grid: scenarios × seeds, plus shared run parameters."""

    scenarios: tuple[Scenario, ...]
    seeds: tuple[int, ...]
    train_duration: float = 60.0
    detect_duration: float = 30.0
    faults: bool = False
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if self.labels and len(self.labels) != len(self.scenarios):
            raise ValueError(
                f"{len(self.labels)} label(s) for {len(self.scenarios)} scenario(s)"
            )

    def scenario_labels(self) -> tuple[str, ...]:
        if self.labels:
            return self.labels
        return tuple(
            f"s{index}-dev{scenario.n_devices}"
            for index, scenario in enumerate(self.scenarios)
        )


@dataclass(frozen=True)
class CampaignRun:
    """One grid cell: a concrete scenario (seed applied) plus metadata."""

    label: str
    seed: int
    scenario: Scenario
    train_duration: float
    detect_duration: float
    faults: bool
    cache_dir: str | None = None


def expand_grid(spec: CampaignSpec, cache_dir: str | Path | None = None) -> list[CampaignRun]:
    """Scenario × seed expansion, in deterministic grid order."""
    runs = []
    for label, scenario in zip(spec.scenario_labels(), spec.scenarios):
        for seed in spec.seeds:
            runs.append(
                CampaignRun(
                    label=label,
                    seed=seed,
                    scenario=replace(scenario, seed=seed),
                    train_duration=spec.train_duration,
                    detect_duration=spec.detect_duration,
                    faults=spec.faults,
                    cache_dir=str(cache_dir) if cache_dir is not None else None,
                )
            )
    return runs


@dataclass
class RunRecord:
    """The portable (picklable, JSON-able) outcome of one campaign run."""

    label: str
    seed: int
    scenario: dict
    faults: bool
    infection_seconds: float
    train_summary: dict
    detect_summary: dict
    table1: list[list]  # [model, accuracy %]
    table2: list[list]  # [model, cpu %, memory Kb, model size Kb]
    training_metrics: list[list]  # [model, acc, precision, recall, f1]
    fault_table: list[list] | None
    stage_cache: dict[str, dict]
    elapsed_seconds: float
    #: The run's obs snapshot ({"metrics", "spans", "events"}).  Gated
    #: under ``include_timing`` in :meth:`to_dict` because cached and
    #: uncached repeats of the same run observe different telemetry.
    telemetry: dict | None = None
    #: RecoveryMetrics dict when the scenario carried a MitigationPlan.
    recovery: dict | None = None
    #: Why the run failed (``"ExcType: message"``); None for successes.
    error: str | None = None
    #: Execution attempts (1 + retries).  Gated under ``include_timing``
    #: because cached repeats succeed first try regardless of history.
    attempts: int = 1
    #: Flight-recorder postmortem for failed runs (the ring of kernel
    #: dispatches / events / spans just before death plus crash-time
    #: metric state); None for successes.
    flight: dict | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_dict(self, include_timing: bool = True) -> dict:
        payload = {
            "label": self.label,
            "seed": self.seed,
            "scenario": self.scenario,
            "faults": self.faults,
            "infection_seconds": self.infection_seconds,
            "train_summary": self.train_summary,
            "detect_summary": self.detect_summary,
            "table1": self.table1,
            "table2": self.table2,
            "training_metrics": self.training_metrics,
            "fault_table": self.fault_table,
            "recovery": self.recovery,
            "error": self.error,
            "flight": self.flight,
        }
        if include_timing:
            payload["stage_cache"] = self.stage_cache
            payload["elapsed_seconds"] = self.elapsed_seconds
            payload["telemetry"] = self.telemetry
            payload["attempts"] = self.attempts
        return payload


def _summary_dict(summary) -> dict:
    return {
        "total": summary.total,
        "malicious": summary.malicious,
        "benign": summary.benign,
        "by_attack": dict(sorted(summary.by_attack.items())),
        "duration": summary.duration,
    }


def execute_run(run: CampaignRun) -> RunRecord:
    """Execute one grid cell through the staged pipeline.

    Top-level (not a closure) so multiprocessing workers can receive it
    under every start method.  Each worker opens its own handle on the
    shared content-addressed store; commits are atomic, so concurrent
    writers are safe.
    """
    # Each run gets its own telemetry scope; the campaign.run span's
    # wall cost is the shard's elapsed time on this host (what the two
    # baselined perf_counter reads used to measure directly).
    with obs.scope() as octx:
        span = octx.tracer.span("campaign.run", label=run.label, seed=run.seed)
        try:
            with span:
                result, outcome = run_experiment_pipeline(
                    scenario=run.scenario,
                    train_duration=run.train_duration,
                    detect_duration=run.detect_duration,
                    faults=run.faults,
                    store=run.cache_dir,
                )
        except Exception as exc:
            # Any death inside the run — crash, sanitizer, or the
            # SIGALRM timeout — leaves this scope's flight ring on the
            # exception so the tombstone carries a postmortem.
            if octx.flight is not None and getattr(exc, "flight_dump", None) is None:
                exc.flight_dump = octx.flight.dump(registry=octx.registry)
            raise
        elapsed = span.wall_seconds
        telemetry = octx.snapshot()
    return RunRecord(
        label=run.label,
        seed=run.seed,
        scenario=run.scenario.to_dict(),
        faults=run.faults,
        infection_seconds=result.infection_seconds,
        train_summary=_summary_dict(result.train_summary),
        detect_summary=_summary_dict(result.detect_summary),
        table1=[list(row) for row in result.table1()],
        table2=[list(row) for row in result.table2()],
        training_metrics=[list(row) for row in result.training_metrics()],
        fault_table=(
            [list(row) for row in result.fault_table()]
            if isinstance(result, FaultExperimentResult)
            else None
        ),
        stage_cache=outcome.cache_summary(),
        elapsed_seconds=elapsed,
        telemetry=telemetry,
        recovery=(result.mitigation or {}).get("recovery"),
    )


class _RunTimeout(Exception):
    """Raised inside a worker when a run exceeds its wall-clock budget."""


@contextlib.contextmanager
def _deadline(seconds: float | None):
    """SIGALRM-based wall-clock budget for the current (worker) process.

    No-ops when ``seconds`` is None or the platform lacks ``SIGALRM``
    (Windows); workers are single-run-at-a-time, so claiming the ALRM
    handler for the duration is safe.
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise _RunTimeout(f"run exceeded {seconds:.0f}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _failed_record(
    run: CampaignRun, error: str, attempts: int, flight: dict | None = None
) -> RunRecord:
    """A tombstone record: the grid cell's slot, minus any tables."""
    return RunRecord(
        label=run.label,
        seed=run.seed,
        scenario=run.scenario.to_dict(),
        faults=run.faults,
        infection_seconds=0.0,
        train_summary={},
        detect_summary={},
        table1=[],
        table2=[],
        training_metrics=[],
        fault_table=None,
        stage_cache={},
        elapsed_seconds=0.0,
        error=error,
        attempts=attempts,
        flight=flight,
    )


def execute_run_safe(
    run: CampaignRun, max_retries: int = 1, run_timeout: float | None = None
) -> RunRecord:
    """Crash-tolerant :func:`execute_run`: never raises, always records.

    A worker exception (including a :class:`_RunTimeout` from the
    ``run_timeout`` budget) is retried up to ``max_retries`` times; if
    every attempt fails, the grid cell is filled with a failed
    :class:`RunRecord` carrying the final error string — so one poisoned
    run degrades the campaign's report instead of aborting the pool.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    attempts = 0
    while True:
        attempts += 1
        try:
            with _deadline(run_timeout):
                record = execute_run(run)
            record.attempts = attempts
            return record
        except Exception as exc:  # noqa: BLE001 — tombstone everything
            if attempts > max_retries:
                return _failed_record(
                    run,
                    f"{type(exc).__name__}: {exc}",
                    attempts,
                    flight=getattr(exc, "flight_dump", None),
                )


@dataclass
class CampaignReport:
    """Merged campaign outcome: per-run records plus grid aggregates."""

    records: list[RunRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates

    def table1_aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per scenario label, per model: mean/min/max accuracy across seeds."""
        grouped: dict[str, dict[str, list[float]]] = {}
        for record in self.records:
            if record.failed:
                continue
            models = grouped.setdefault(record.label, {})
            for model, accuracy in record.table1:
                models.setdefault(model, []).append(accuracy)
        return {
            label: {
                model: {
                    "mean": sum(values) / len(values),
                    "min": min(values),
                    "max": max(values),
                    "n": float(len(values)),
                }
                for model, values in models.items()
            }
            for label, models in grouped.items()
        }

    def table2_aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per scenario label, per model: mean cpu/memory/model-size."""
        grouped: dict[str, dict[str, list[tuple[float, float, float]]]] = {}
        for record in self.records:
            if record.failed:
                continue
            models = grouped.setdefault(record.label, {})
            for model, cpu, memory, size in record.table2:
                models.setdefault(model, []).append((cpu, memory, size))
        return {
            label: {
                model: {
                    "cpu_percent": sum(r[0] for r in rows) / len(rows),
                    "memory_kb": sum(r[1] for r in rows) / len(rows),
                    "model_size_kb": sum(r[2] for r in rows) / len(rows),
                }
                for model, rows in models.items()
            }
            for label, models in grouped.items()
        }

    def recovery_aggregate(self) -> dict[str, dict[str, float]]:
        """Per scenario label: mean recovery metrics across defended seeds."""
        grouped: dict[str, list[dict]] = {}
        for record in self.records:
            if record.recovery is not None:
                grouped.setdefault(record.label, []).append(record.recovery)
        keys = ("goodput_retained_pct", "time_to_mitigate", "collateral_block_rate")
        return {
            label: {
                **{key: sum(r[key] for r in rows) / len(rows) for key in keys},
                "n": float(len(rows)),
            }
            for label, rows in grouped.items()
        }

    # ------------------------------------------------------------------
    # Failure accounting

    @property
    def runs_failed(self) -> int:
        return sum(1 for record in self.records if record.failed)

    @property
    def runs_retried(self) -> int:
        return sum(1 for record in self.records if record.attempts > 1)

    def failures(self) -> list[dict]:
        """(label, seed, error, attempts) for every failed grid cell."""
        return [
            {
                "label": record.label,
                "seed": record.seed,
                "error": record.error,
                "attempts": record.attempts,
            }
            for record in self.records
            if record.failed
        ]

    # ------------------------------------------------------------------
    # Cache accounting

    @property
    def stages_total(self) -> int:
        return sum(len(record.stage_cache) for record in self.records)

    @property
    def stages_executed(self) -> int:
        return sum(
            1
            for record in self.records
            for info in record.stage_cache.values()
            if info["executed"]
        )

    @property
    def cache_hits(self) -> int:
        return sum(
            1
            for record in self.records
            for info in record.stage_cache.values()
            if info["cache_hit"]
        )

    @property
    def cache_hit_rate(self) -> float:
        total = self.stages_total
        return self.cache_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Rendering

    def to_dict(self, include_timing: bool = True) -> dict:
        payload: dict = {
            "runs": [record.to_dict(include_timing=include_timing) for record in self.records],
            "table1_aggregate": self.table1_aggregate(),
            "table2_aggregate": self.table2_aggregate(),
        }
        if any(record.recovery is not None for record in self.records):
            payload["recovery_aggregate"] = self.recovery_aggregate()
        if self.runs_failed:
            payload["failures"] = self.failures()
        if include_timing:
            payload["cache"] = {
                "stages_total": self.stages_total,
                "stages_executed": self.stages_executed,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": self.cache_hit_rate,
            }
        return payload

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2, sort_keys=True)

    def format_text(self) -> str:
        """The ``ddoshield campaign`` console rendering."""
        lines = [f"campaign: {len(self.records)} run(s)"]
        if self.runs_failed or self.runs_retried:
            lines[0] += f" — {self.runs_failed} failed, {self.runs_retried} retried"
        for record in self.records:
            if record.failed:
                line = (
                    f"  {record.label} seed={record.seed}: FAILED "
                    f"({record.error}) after {record.attempts} attempt(s)"
                )
                if record.flight:
                    line += f" [flight: {len(record.flight.get('entries', []))} entries]"
                lines.append(line)
                continue
            cells = ", ".join(f"{model} {accuracy:.2f}%" for model, accuracy in record.table1)
            lines.append(
                f"  {record.label} seed={record.seed}: {cells} "
                f"[{record.elapsed_seconds:.1f}s]"
            )
        lines.append("\nTable I aggregate — real-time accuracy (%) across seeds:")
        for label, models in sorted(self.table1_aggregate().items()):
            for model, stats in models.items():
                lines.append(
                    f"  {label} {model}: mean={stats['mean']:.2f} "
                    f"min={stats['min']:.2f} max={stats['max']:.2f} (n={int(stats['n'])})"
                )
        lines.append("\nTable II aggregate — sustainability (mean across seeds):")
        for label, models in sorted(self.table2_aggregate().items()):
            for model, stats in models.items():
                lines.append(
                    f"  {label} {model}: cpu={stats['cpu_percent']:.2f}% "
                    f"mem={stats['memory_kb']:.2f}Kb model={stats['model_size_kb']:.2f}Kb"
                )
        recovery = self.recovery_aggregate()
        if recovery:
            lines.append("\nRecovery aggregate — mitigation outcome (mean across seeds):")
            for label, stats in sorted(recovery.items()):
                lines.append(
                    f"  {label}: goodput retained={stats['goodput_retained_pct']:.1f}% "
                    f"time-to-mitigate={stats['time_to_mitigate']:.2f}s "
                    f"collateral={stats['collateral_block_rate']:.2f} "
                    f"(n={int(stats['n'])})"
                )
        lines.append(
            f"\ncache: {self.cache_hits}/{self.stages_total} stage(s) served from cache "
            f"({100 * self.cache_hit_rate:.0f}%), {self.stages_executed} executed"
        )
        return "\n".join(lines)


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    max_retries: int = 1,
    run_timeout: float | None = None,
) -> CampaignReport:
    """Execute the full grid and merge the records in grid order.

    ``jobs > 1`` shards runs across a ``multiprocessing`` pool; results
    are merged in grid order regardless of completion order, so the
    report is deterministic for a given grid.  ``cache_dir`` points all
    runs at one shared content-addressed artifact store, enabling both
    cross-run reuse (shared stage prefixes within a campaign) and
    resume-from-cache on repeated invocations.

    Execution is crash-tolerant: a run that raises (or exceeds
    ``run_timeout`` wall-clock seconds) is retried up to ``max_retries``
    times, then recorded as a failed :class:`RunRecord` — the campaign
    always completes and the report names every casualty.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    runs = expand_grid(spec, cache_dir=cache_dir)
    calls = [(run, max_retries, run_timeout) for run in runs]
    if jobs == 1 or len(runs) == 1:
        records = [execute_run_safe(*call) for call in calls]
    else:
        with multiprocessing.Pool(processes=min(jobs, len(runs))) as pool:
            records = pool.starmap(execute_run_safe, calls)
    return CampaignReport(records=records)

