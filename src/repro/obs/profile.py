"""Deterministic attribution profiler for the event kernel.

The kernel dispatches every simulation callback from one site in
:meth:`~repro.sim.core.Simulator.run`; when a :class:`KernelProfiler`
is active that site routes through :meth:`KernelProfiler.dispatch`,
which times each callback and attributes the cost to the *owner
subsystem* of the handler (queue, channel, tcp, probe, filter, bot,
app, …), resolved from the callback's defining module.

Two export planes with different determinism guarantees:

* **counts** — events, packets carried, bucket sizes — are pure
  simulation facts, identical for a seed run over run.
  ``snapshot(include_wall=False)`` and
  ``format_table(include_wall=False)`` emit only these, so attribution
  tables are byte-identical across repeats.
* **wall time** — per-callsite totals and fixed-bucket latency
  histograms (:meth:`~repro.obs.registry.Histogram.percentile` gives
  p50/p95/p99) — is telemetry about this host and is dropped from
  deterministic exports, following the registry's ``wall=True``
  convention.

Profiling is opt-in via ``ObsContext.make(profile=True)`` (or
``ddoshield profile``); with it off the kernel's dispatch site costs
one ``is None`` check per event, and :mod:`repro.obs.bench` pins that
overhead ratio.  Like all telemetry, the profiler never schedules
events or consumes RNG — a profiled run is bit-identical in simulation
outcomes to an unprofiled one.

The wall-clock reads here are the profiler's measurement itself, marked
with explicit lint suppressions; they never feed back into simulation
state.
"""

from __future__ import annotations

import time as _time
from typing import Any

from repro.obs.registry import Histogram

#: Per-event wall-time histogram bounds in seconds (1 µs … 100 ms).
#: Python-level handlers land in the 1–100 µs decades; the coarse tail
#: catches pathological events (a whole-capture flush, a model fit).
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1,
)

#: Exact module → owner-subsystem mapping (checked before prefixes).
_OWNER_EXACT: dict[str, str] = {
    "repro.sim.queue": "queue",
    "repro.sim.channel": "channel",
    "repro.sim.topology": "channel",
    "repro.sim.node": "node",
    "repro.sim.tcp": "tcp",
    "repro.sim.udp": "udp",
    "repro.sim.tracing": "probe",
    "repro.sim.core": "kernel",
    "repro.ids.defense": "filter",
}

#: Package-prefix fallbacks, most specific first.
_OWNER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.botnet", "bot"),
    ("repro.apps", "app"),
    ("repro.ids", "ids"),
    ("repro.features", "ids"),
    ("repro.faults", "faults"),
    ("repro.containers", "container"),
    ("repro.testbed", "testbed"),
    ("repro.sim", "sim"),
)


def classify_owner(module: str) -> str:
    """Owner subsystem for a handler defined in ``module``."""
    owner = _OWNER_EXACT.get(module)
    if owner is not None:
        return owner
    for prefix, owner in _OWNER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return owner
    return "other"


def callsite_label(callback: Any) -> str:
    """Stable short label for a callback: ``module.Class.method``."""
    func = getattr(callback, "__func__", callback)
    qualname = getattr(func, "__qualname__", "") or type(callback).__name__
    module = getattr(func, "__module__", "") or ""
    if module:
        return f"{module.rsplit('.', 1)[-1]}.{qualname}"
    return qualname


class _CallsiteStat:
    """Accumulated cost and cargo counts for one handler function."""

    __slots__ = (
        "label", "owner", "events", "wall_seconds", "packets", "hist",
    )

    def __init__(self, label: str, owner: str) -> None:
        self.label = label
        self.owner = owner
        self.events = 0
        self.wall_seconds = 0.0
        self.packets = 0
        self.hist = Histogram(buckets=LATENCY_BUCKETS)


class KernelProfiler:
    """Times kernel dispatches and attributes them per owner subsystem.

    Stats are keyed by the underlying function object, so every bound
    method of the same class/method pair accumulates into one callsite
    row regardless of which instance it was bound to.
    :class:`~repro.sim.core.PeriodicEvent` ticks are attributed to the
    user callback the schedule drives, not to the kernel's ``_fire``
    trampoline.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._stats: dict[Any, _CallsiteStat] = {}
        self.buckets_drained = 0
        self.bucket_events = 0
        # The previous dispatch's (time, priority), and whether it is
        # already part of a counted bucket.
        self._last_key: tuple[float, int] | None = None
        self._in_bucket = False
        # Lazily imported to keep repro.obs importable before repro.sim
        # (sim modules import repro.obs at module level).
        self._packet_cls: type | None = None
        self._periodic_cls: type | None = None

    # ------------------------------------------------------------------
    # Hot path (called from Simulator.run's dispatch site)

    def _bind_classes(self) -> None:
        from repro.sim.core import PeriodicEvent
        from repro.sim.packet import Packet

        self._packet_cls = Packet
        self._periodic_cls = PeriodicEvent

    def dispatch(self, event: Any) -> None:
        """Run ``event``'s callback and attribute its wall time.

        Consecutive dispatches that share one bit-equal ``(time,
        priority)`` form a bucket; see :meth:`bucket_stats`.  Exceptions
        propagate unchanged (the kernel leaves undispatched events
        pending); the partial cost up to the raise is still recorded.
        """
        key = (event.time, event.priority)
        if key == self._last_key:  # repro: lint-ok[FLT001]
            if not self._in_bucket:
                self._in_bucket = True
                self.buckets_drained += 1
                self.bucket_events += 1
            self.bucket_events += 1
        else:
            self._last_key = key
            self._in_bucket = False
        started = _time.perf_counter()  # repro: lint-ok[TIME001] -- profiler measurement, isolated from simulation state
        try:
            event.callback(*event.args)
        finally:
            elapsed = _time.perf_counter() - started  # repro: lint-ok[TIME001] -- profiler measurement, isolated from simulation state
            self._record(event.callback, event.args, elapsed)

    def _record(self, callback: Any, args: tuple, elapsed: float) -> None:
        if self._packet_cls is None:
            self._bind_classes()
        bound_self = getattr(callback, "__self__", None)
        if type(bound_self) is self._periodic_cls:
            # A periodic tick: charge the driven callback, and count the
            # cargo it was invoked with, not the trampoline's empty args.
            callback = bound_self.callback
            args = bound_self.args
        func = getattr(callback, "__func__", callback)
        stat = self._stats.get(func)
        if stat is None:
            module = getattr(func, "__module__", "") or ""
            stat = _CallsiteStat(callsite_label(callback), classify_owner(module))
            self._stats[func] = stat
        stat.events += 1
        stat.wall_seconds += elapsed
        stat.hist.observe(elapsed)
        for arg in args:
            if isinstance(arg, self._packet_cls):
                stat.packets += 1

    # ------------------------------------------------------------------
    # Aggregation

    def _ordered_stats(self) -> list[_CallsiteStat]:
        return sorted(self._stats.values(), key=lambda s: (s.owner, s.label))

    def bucket_stats(self) -> dict:
        """Packets carried and same-instant buckets drained (deterministic
        for a seed).  A bucket is a run of two or more consecutive
        dispatches with one bit-equal ``(time, priority)``."""
        return {
            "packets": sum(s.packets for s in self._stats.values()),
            "buckets_drained": self.buckets_drained,
            "bucket_events": self.bucket_events,
            "mean_bucket_events": (
                self.bucket_events / self.buckets_drained
                if self.buckets_drained else 0.0
            ),
        }

    def attribution(self) -> dict:
        """How much measured wall time lands in a *named* subsystem.

        ``named_fraction`` is the acceptance gate: a profiler that dumps
        most of the run into ``other`` is not attributing anything.
        """
        total = sum(s.wall_seconds for s in self._stats.values())
        named = sum(
            s.wall_seconds for s in self._stats.values() if s.owner != "other"
        )
        return {
            "total_wall_seconds": total,
            "named_wall_seconds": named,
            "named_fraction": named / total if total else 1.0,
        }

    def owner_summary(self, include_wall: bool = True) -> dict[str, dict]:
        """Per-owner rollup (merged callsite histograms for percentiles)."""
        owners: dict[str, dict] = {}
        hists: dict[str, Histogram] = {}
        for stat in self._ordered_stats():
            row = owners.setdefault(
                stat.owner,
                {"events": 0, "packets": 0},
            )
            row["events"] += stat.events
            row["packets"] += stat.packets
            if include_wall:
                row["wall_seconds"] = row.get("wall_seconds", 0.0) + stat.wall_seconds
                merged = hists.get(stat.owner)
                if merged is None:
                    merged = hists[stat.owner] = Histogram(buckets=LATENCY_BUCKETS)
                merged.count += stat.hist.count
                merged.total += stat.hist.total
                for i, n in enumerate(stat.hist.bucket_counts):
                    merged.bucket_counts[i] += n
        if include_wall:
            for owner, row in owners.items():
                hist = hists[owner]
                row["p50_us"] = 1e6 * hist.percentile(0.50)
                row["p95_us"] = 1e6 * hist.percentile(0.95)
                row["p99_us"] = 1e6 * hist.percentile(0.99)
        return owners

    def snapshot(self, include_wall: bool = True) -> dict:
        """JSON-able dump; deterministic with ``include_wall=False``."""
        callsites = []
        for stat in self._ordered_stats():
            row: dict = {
                "callsite": stat.label,
                "owner": stat.owner,
                "events": stat.events,
                "packets": stat.packets,
            }
            if include_wall:
                row["wall_seconds"] = stat.wall_seconds
                row["p50_us"] = 1e6 * stat.hist.percentile(0.50)
                row["p95_us"] = 1e6 * stat.hist.percentile(0.95)
                row["p99_us"] = 1e6 * stat.hist.percentile(0.99)
            callsites.append(row)
        payload: dict = {
            "callsites": callsites,
            "owners": self.owner_summary(include_wall=include_wall),
            "buckets": self.bucket_stats(),
        }
        if include_wall:
            payload["attribution"] = self.attribution()
        return payload

    # ------------------------------------------------------------------
    # Rendering

    def format_table(self, top: int = 15, include_wall: bool = True) -> str:
        """The ``ddoshield profile`` top-N callsite table.

        Ordered by wall time (or by event count in the deterministic
        ``include_wall=False`` mode, where the rendering is byte-stable
        across repeats of the same seed).
        """
        stats = self._ordered_stats()
        if not stats:
            return "(no events profiled)"
        if include_wall:
            stats.sort(key=lambda s: (-s.wall_seconds, s.owner, s.label))
        else:
            stats.sort(key=lambda s: (-s.events, s.owner, s.label))
        total_wall = sum(s.wall_seconds for s in self._stats.values())
        header = f"{'owner':<10} {'callsite':<44} {'events':>9}"
        if include_wall:
            header += f" {'wall ms':>9} {'wall %':>7} {'p50µs':>7} {'p95µs':>7} {'p99µs':>7}"
        lines = [header, "-" * len(header)]
        for stat in stats[:top]:
            line = f"{stat.owner:<10} {stat.label:<44.44} {stat.events:>9}"
            if include_wall:
                share = 100.0 * stat.wall_seconds / total_wall if total_wall else 0.0
                line += (
                    f" {1000.0 * stat.wall_seconds:>9.2f} {share:>6.1f}%"
                    f" {1e6 * stat.hist.percentile(0.50):>7.0f}"
                    f" {1e6 * stat.hist.percentile(0.95):>7.0f}"
                    f" {1e6 * stat.hist.percentile(0.99):>7.0f}"
                )
            lines.append(line)
        if len(stats) > top:
            lines.append(f"... {len(stats) - top} more callsite(s)")
        buckets = self.bucket_stats()
        lines.append(
            f"{buckets['packets']} packet(s) carried, "
            f"{buckets['buckets_drained']} bucket(s) drained "
            f"({buckets['mean_bucket_events']:.1f} events/bucket)"
        )
        if include_wall:
            attr = self.attribution()
            lines.append(
                f"attribution: {1000.0 * attr['total_wall_seconds']:.2f} ms handler wall, "
                f"{100.0 * attr['named_fraction']:.1f}% in named subsystems"
            )
        return "\n".join(lines)

    def collapsed_stacks(self, include_wall: bool = True) -> str:
        """Collapsed-stack export (``flamegraph.pl`` / speedscope input).

        One ``owner;callsite weight`` line per callsite; weights are
        wall microseconds, or event counts with ``include_wall=False``
        (deterministic flamegraphs for a seed).
        """
        lines = []
        for stat in self._ordered_stats():
            if include_wall:
                weight = int(round(1e6 * stat.wall_seconds))
            else:
                weight = stat.events
            if weight <= 0:
                continue
            lines.append(f"{stat.owner};{stat.label} {weight}")
        return "\n".join(lines) + ("\n" if lines else "")

