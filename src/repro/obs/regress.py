"""Bench-history store and regression gate.

``BENCH_sim.json`` and ``BENCH_features.json`` used to be overwritten on
every run, so the repo had benchmark *numbers* but no performance
*trajectory*.  This module turns both files into append-only histories:

.. code-block:: json

    {
      "schema": "ddoshield-bench-history/v1",
      "entries": [
        {
          "sha": "<git sha at record time>",
          "date": "<UTC ISO timestamp>",
          "sections": {
            "flood":    {"fingerprint": "<cfg sha16>", "result": {...}},
            "benign":   {"fingerprint": "...", "result": {...}},
            "features": {"fingerprint": "...", "result": {...}}
          }
        }
      ]
    }

The *config fingerprint* hashes every non-measurement key of a result
(node counts, durations, seeds, window sizes, …) so `bench-compare`
only ever compares runs of the same experiment shape — a config change
starts a new comparison lineage instead of a false regression.

``compare_section`` diffs the newest entry of a section against the
most recent earlier entry with a matching fingerprint under a relative
tolerance band, and `ddoshield bench-compare --assert-no-regression`
exits nonzero when a higher-is-better metric drops (or a lower-is-
better one rises) beyond tolerance.  CI runs it after every bench
smoke, and also verifies the gate trips on an injected synthetic
regression.

Legacy single-run files (the pre-history sectioned ``{"flood": ...}``
shape and the flat features shape) load as a one-entry history tagged
``sha="legacy"`` so existing baselines keep working as comparison
anchors.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

SCHEMA = "ddoshield-bench-history/v1"

#: Result keys that hold measurements (or machine identity), not
#: experiment configuration.  Everything else feeds the fingerprint.
MEASUREMENT_KEYS = frozenset(
    {
        "runs",
        "offline_transform",
        "per_window_latency",
        "batch_build_seconds",
        "python",
        "numpy",
        "smoke",
    }
)


def config_fingerprint(result: dict) -> str:
    """Stable short hash of a result's configuration (non-measurement) keys."""
    config = {k: v for k, v in result.items() if k not in MEASUREMENT_KEYS}
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def git_sha(repo_root: str | Path | None = None) -> str:
    """Current git commit sha, or ``"unknown"`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# History load / record


def _pre_history_sections(payload: dict) -> dict[str, dict]:
    """Map a pre-history benchmark file onto history sections."""
    sections: dict[str, dict] = {}
    if "runs" in payload or "offline_transform" in payload:
        # Flat single-result file: a sim flood result (runs) or a
        # features result (offline_transform).
        section = "features" if "offline_transform" in payload else (
            "benign" if payload.get("workload") == "benign" else "flood"
        )
        sections[section] = payload
    else:
        # Sectioned {"flood": {...}, "benign": {...}} shape.
        for key, value in payload.items():
            if isinstance(value, dict):
                sections[key] = value
    return sections


def load_history(path: str | Path) -> dict:
    """Load a bench history, upgrading legacy shapes in memory."""
    path = Path(path)
    if not path.exists():
        return {"schema": SCHEMA, "entries": []}
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {"schema": SCHEMA, "entries": []}
    if not isinstance(payload, dict):
        return {"schema": SCHEMA, "entries": []}
    if payload.get("schema") == SCHEMA:
        entries = payload.get("entries")
        return {"schema": SCHEMA, "entries": entries if isinstance(entries, list) else []}
    sections = _pre_history_sections(payload)
    if not sections:
        return {"schema": SCHEMA, "entries": []}
    entry = {
        "sha": "legacy",
        "date": "",
        "sections": {
            name: {"fingerprint": config_fingerprint(result), "result": result}
            for name, result in sections.items()
        },
    }
    return {"schema": SCHEMA, "entries": [entry]}


def record_benchmark(
    result: dict,
    path: str | Path,
    section: str,
    sha: str | None = None,
    date: str | None = None,
) -> dict:
    """Append ``result`` to the history at ``path`` under ``section``.

    Sections recorded at the same sha merge into one entry (a bench run
    that produces flood then benign results lands as one history row);
    re-recording an existing section at the same sha overwrites it
    (re-running a bench at one commit keeps the latest numbers).
    Returns the full history payload that was written.
    """
    path = Path(path)
    history = load_history(path)
    if sha is None:
        sha = git_sha(path.parent if path.parent != Path("") else None)
    if date is None:
        date = datetime.now(timezone.utc).isoformat(timespec="seconds")  # repro: lint-ok[TIME001] -- bench-history record timestamp, never enters simulation
    record = {"fingerprint": config_fingerprint(result), "result": result}
    entries = history["entries"]
    if entries and entries[-1].get("sha") == sha:
        entries[-1].setdefault("sections", {})[section] = record
        entries[-1]["date"] = date
    else:
        entries.append({"sha": sha, "date": date, "sections": {section: record}})
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    return history


# ----------------------------------------------------------------------
# Metric extraction and comparison


def extract_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Flatten a bench result into ``{name: (value, direction)}``.

    ``direction`` is ``"higher"`` (bigger is better) or ``"lower"``.
    Covers both sim-bench shapes (per-node-count rows under ``runs``)
    and the features-bench shape (offline/per-window speedups).
    """
    metrics: dict[str, tuple[float, str]] = {}
    for row in result.get("runs", []):
        value = row.get("scalar", {}).get("packets_per_second")
        if isinstance(value, (int, float)):
            metrics[f"nodes{row.get('nodes')}.scalar_pkts_per_s"] = (float(value), "higher")
    offline = result.get("offline_transform")
    if isinstance(offline, dict):
        if isinstance(offline.get("speedup"), (int, float)):
            metrics["offline.speedup"] = (float(offline["speedup"]), "higher")
        rate = offline.get("vectorized_packets_per_second")
        if isinstance(rate, (int, float)):
            metrics["offline.pkts_per_s"] = (float(rate), "higher")
    window = result.get("per_window_latency")
    if isinstance(window, dict):
        if isinstance(window.get("speedup"), (int, float)):
            metrics["window.speedup"] = (float(window["speedup"]), "higher")
        mean_ms = window.get("vectorized_mean_ms")
        if isinstance(mean_ms, (int, float)):
            metrics["window.vectorized_mean_ms"] = (float(mean_ms), "lower")
    return metrics


@dataclass
class MetricDelta:
    """One metric compared between the current run and the baseline."""

    name: str
    direction: str
    baseline: float
    current: float
    ratio: float
    regressed: bool

    def format_text(self) -> str:
        arrow = "↓" if self.current < self.baseline else "↑"
        flag = "  REGRESSION" if self.regressed else ""
        return (
            f"  {self.name:<28} {self.baseline:>14.2f} -> {self.current:>14.2f}"
            f"  ({arrow}{abs(self.ratio - 1.0) * 100.0:.1f}%){flag}"
        )


@dataclass
class SectionComparison:
    """Comparison verdict for one benchmark section."""

    section: str
    current_sha: str
    baseline_sha: str | None
    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)
    note: str = ""

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format_text(self) -> str:
        head = f"[{self.section}] current={self.current_sha[:12]}"
        if self.baseline_sha is None:
            return f"{head}  {self.note or 'no baseline — nothing to compare'}"
        head += f" baseline={self.baseline_sha[:12]} tolerance={self.tolerance:.0%}"
        lines = [head]
        lines.extend(d.format_text() for d in self.deltas)
        n_reg = len(self.regressions)
        lines.append(
            f"  => {'OK' if not n_reg else f'{n_reg} regression(s)'}"
            f" across {len(self.deltas)} metric(s)"
        )
        return "\n".join(lines)


def compare_section(
    history: dict,
    section: str,
    tolerance: float = 0.30,
    baseline: str | None = None,
) -> SectionComparison | None:
    """Compare a section's newest entry against a baseline entry.

    The baseline is the most recent *earlier* entry whose section has
    the same config fingerprint (optionally narrowed to sha-prefix
    ``baseline``).  Returns ``None`` when no entry has the section at
    all; returns a no-baseline (ok) comparison when only one exists.
    """
    entries = [e for e in history.get("entries", []) if section in e.get("sections", {})]
    if not entries:
        return None
    current_entry = entries[-1]
    current = current_entry["sections"][section]
    candidates = [
        e
        for e in entries[:-1]
        if e["sections"][section].get("fingerprint") == current.get("fingerprint")
    ]
    if baseline is not None:
        candidates = [e for e in candidates if str(e.get("sha", "")).startswith(baseline)]
    comparison = SectionComparison(
        section=section,
        current_sha=str(current_entry.get("sha", "unknown")),
        baseline_sha=None,
        tolerance=tolerance,
    )
    if not candidates:
        comparison.note = (
            "no baseline with matching config fingerprint"
            if len(entries) > 1
            else "first recorded run for this section"
        )
        return comparison
    baseline_entry = candidates[-1]
    comparison.baseline_sha = str(baseline_entry.get("sha", "unknown"))
    base_metrics = extract_metrics(baseline_entry["sections"][section].get("result", {}))
    cur_metrics = extract_metrics(current.get("result", {}))
    for name, (base_value, direction) in sorted(base_metrics.items()):
        if name not in cur_metrics:
            continue
        cur_value, _ = cur_metrics[name]
        if base_value == 0.0:
            continue
        ratio = cur_value / base_value
        if direction == "higher":
            regressed = ratio < 1.0 - tolerance
        else:
            regressed = ratio > 1.0 + tolerance
        comparison.deltas.append(
            MetricDelta(
                name=name,
                direction=direction,
                baseline=base_value,
                current=cur_value,
                ratio=ratio,
                regressed=regressed,
            )
        )
    if not comparison.deltas:
        comparison.note = "no shared metrics with baseline"
    return comparison


def compare_file(
    path: str | Path,
    sections: list[str] | None = None,
    tolerance: float = 0.30,
    baseline: str | None = None,
) -> list[SectionComparison]:
    """Compare every (or the named) section(s) of a history file."""
    history = load_history(path)
    if sections is None:
        seen: list[str] = []
        for entry in history.get("entries", []):
            for name in entry.get("sections", {}):
                if name not in seen:
                    seen.append(name)
        sections = seen
    results = []
    for section in sections:
        comparison = compare_section(
            history, section, tolerance=tolerance, baseline=baseline
        )
        if comparison is not None:
            results.append(comparison)
    return results
