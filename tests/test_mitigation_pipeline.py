"""End-to-end tests for defended pipeline runs.

One small configuration (3 devices, seed 41) is run through the staged
pipeline in four flavours — defended, defended again (determinism),
monitor-mode baseline, and defended-under-chaos — and the results are
compared pairwise.  These are the pinned "closing the loop" guarantees:
the defense actually fires, it beats the undefended baseline on the same
seed, it never blocks a benign source, and the whole defended run is
bit-reproducible, faults included.
"""

from collections import Counter

import pytest

from repro.obs import ObsEvent
from repro.obs.timeline import timeline_from_result
from repro.pipeline import run_experiment_pipeline
from repro.pipeline.store import canonical_json
from repro.testbed import MitigationPlan, Scenario

N_DEVICES, SEED = 3, 41
TRAIN, DETECT = 25.0, 12.0


def defended_scenario(**plan_kwargs):
    return Scenario(
        n_devices=N_DEVICES,
        seed=SEED,
        mitigation_plan=MitigationPlan(model="K-Means", **plan_kwargs),
    )


def run(scenario, **kwargs):
    result, outcome = run_experiment_pipeline(
        scenario, train_duration=TRAIN, detect_duration=DETECT, **kwargs
    )
    return result, outcome


@pytest.fixture(scope="module")
def defended():
    return run(defended_scenario())


@pytest.fixture(scope="module")
def monitor():
    return run(defended_scenario(mode="monitor"))


@pytest.fixture(scope="module")
def chaos():
    scenario = defended_scenario()
    return run(
        scenario,
        fault_plan=scenario.chaos_fault_schedule(DETECT),
        faults=True,
    )


class TestDefendedRun:
    def test_mitigation_attached_to_result(self, defended):
        result, _ = defended
        m = result.mitigation
        assert m is not None
        assert set(m) == {"plan", "attack_spans", "summary", "recovery", "impact"}
        assert m["summary"]["events"] == len(result.events)  # no faults: all mitigation
        assert m["plan"] == result.scenario.mitigation_plan.to_dict()
        assert len(m["attack_spans"]) == 3

    def test_defense_fires(self, defended):
        result, _ = defended
        summary = result.mitigation["summary"]
        assert summary["blocks_issued"] >= 1
        assert summary["dropped_by_blocklist"] > 100
        assert summary["syn_cookies_sent"] > 0
        kinds = {e.kind for e in result.events}
        assert {"mitigation.verdict", "mitigation.block"} <= kinds

    def test_recovery_metrics_are_sane(self, defended):
        result, _ = defended
        metrics = result.recovery_metrics()
        assert metrics is not None
        assert metrics.time_to_mitigate is not None
        assert metrics.time_to_mitigate < 5.0
        assert metrics.collateral_block_rate == 0.0  # no benign source blocked
        assert metrics.blocked_sources >= 1
        rows = dict(result.recovery_table())
        assert "goodput retained" in rows

    def test_defended_run_is_deterministic(self, defended):
        """Same seed twice: the mitigation record is byte-identical."""
        result, _ = defended
        again, _ = run(defended_scenario())
        assert canonical_json(again.mitigation) == canonical_json(result.mitigation)

    def test_detection_tables_still_produced(self, defended):
        result, _ = defended
        assert result.table1()
        assert result.table2()

    def test_stage_dag_shape_unchanged(self, defended):
        _, outcome = defended
        assert sorted(outcome.cache_summary()) == [
            "build", "capture-detect", "capture-train", "detect", "train-models",
        ]


class TestDefendedVsMonitor:
    def test_monitor_mode_measures_without_filtering(self, monitor):
        result, _ = monitor
        summary = result.mitigation["summary"]
        assert summary["mode"] == "monitor"
        assert summary["blocks_issued"] == 0
        assert summary["dropped_by_blocklist"] == 0
        assert summary["syn_cookies_sent"] == 0
        metrics = result.recovery_metrics()
        assert metrics.time_to_mitigate is None
        assert metrics.blocked_sources == 0

    def test_defended_beats_undefended_on_same_seed(self, defended, monitor):
        """The pinned recovery comparison: same seed, same schedules."""
        d = defended[0].recovery_metrics()
        u = monitor[0].recovery_metrics()
        assert d.goodput_retained_pct > u.goodput_retained_pct
        assert d.attack_goodput > u.attack_goodput


class TestDefendedChaos:
    def test_chaos_run_completes_with_fallback_cycles(self, chaos):
        result, _ = chaos
        kinds = [e.kind for e in result.events]
        assert kinds.count("mitigation.fallback.enter") == 2  # ids kill + ids partition
        assert kinds.count("mitigation.fallback.exit") == 2
        assert kinds.count("mitigation.resync") == 2
        assert result.mitigation["summary"]["fallback_entries"] == 2

    def test_defense_survives_the_faults(self, chaos):
        result, _ = chaos
        summary = result.mitigation["summary"]
        assert summary["blocks_issued"] >= 1  # kept mitigating around the outage
        metrics = result.recovery_metrics()
        assert metrics.collateral_block_rate == 0.0
        assert metrics.goodput_retained_pct > 50.0  # the CI recovery floor

    def test_fallback_ordering_is_consistent(self, chaos):
        result, _ = chaos
        events = [
            e for e in result.events
            if e.kind.startswith("mitigation.fallback") or e.kind == "mitigation.resync"
        ]
        times = [e.time for e in events]
        assert times == sorted(times)
        # enter/exit alternate: never two enters without an exit between
        state = 0
        for event in events:
            if event.kind == "mitigation.fallback.enter":
                assert state == 0
                state = 1
            elif event.kind == "mitigation.fallback.exit":
                assert state == 1
                state = 0

    def test_chaos_run_is_deterministic(self, chaos):
        result, _ = chaos
        scenario = defended_scenario()
        again, _ = run(
            scenario,
            fault_plan=scenario.chaos_fault_schedule(DETECT),
            faults=True,
        )
        assert canonical_json(again.mitigation) == canonical_json(result.mitigation)
        assert again.events == result.events


class TestOneEventStream:
    """Fault, supervisor and mitigation events share one run log."""

    def test_telemetry_mirror_equals_run_events(self, chaos):
        scenario = defended_scenario()
        observed, _ = run(
            scenario,
            fault_plan=scenario.chaos_fault_schedule(DETECT),
            faults=True,
            telemetry=True,
        )
        mirrored = [
            ObsEvent.from_dict(entry)
            for entry in observed.telemetry["events"]
            if entry["kind"].split(".", 1)[0] in ("fault", "supervisor", "mitigation")
        ]
        assert Counter(mirrored) == Counter(observed.events)
        # Telemetry never changes the run: the telemetry-off run agrees.
        assert observed.events == chaos[0].events

    def test_all_three_producers_recorded(self, chaos):
        result, _ = chaos
        prefixes = {e.kind.split(".", 1)[0] for e in result.events}
        assert prefixes == {"fault", "supervisor", "mitigation"}
        # The chaos plan partitions the victim's link, then the IDS's.
        assert [(e.kind, e.targets) for e in result.fault_events] == [
            ("fault.partition", ("tserver",)), ("fault.heal", ("tserver",)),
            ("fault.partition", ("ids",)), ("fault.heal", ("ids",)),
        ]
        kills = [e for e in result.events if e.kind == "supervisor.kill"]
        assert [e.targets for e in kills] == [("ids",)]


class TestTimeline:
    def test_recovery_columns_and_markers(self, defended):
        result, _ = defended
        timeline = timeline_from_result(result)
        assert "goodput" in timeline.columns
        assert "half_open" in timeline.columns
        assert "conn.accepted" in timeline.columns
        marks = ";".join(row["events"] for row in timeline.rows())
        assert "mitigation.block" in marks

    def test_chaos_timeline_shows_fallback(self, chaos):
        result, _ = chaos
        timeline = timeline_from_result(result)
        marks = ";".join(row["events"] for row in timeline.rows())
        assert "mitigation.fallback.enter" in marks
        assert "mitigation.resync" in marks
        csv = timeline.to_csv()
        assert "goodput" in csv.splitlines()[0]

    def test_render_ascii_plots_goodput(self, defended):
        result, _ = defended
        art = timeline_from_result(result).render_ascii(traffic="goodput")
        assert "goodput" in art


class TestMitigateStageCaching:
    def test_warm_rerun_serves_mitigation_from_cache(self, tmp_path, defended):
        cold_result, cold_outcome = run(defended_scenario(), store=tmp_path)
        assert all(not s["cache_hit"] for s in cold_outcome.cache_summary().values())
        warm_result, warm_outcome = run(defended_scenario(), store=tmp_path)
        assert all(s["cache_hit"] for s in warm_outcome.cache_summary().values())
        assert canonical_json(warm_result.mitigation) == canonical_json(
            cold_result.mitigation
        )
        # and it matches the uncached run bit-for-bit too
        assert canonical_json(warm_result.mitigation) == canonical_json(
            defended[0].mitigation
        )
        # The mitigation events ride in the capture's meta, not its JSON.
        assert warm_result.events == cold_result.events == defended[0].events

    def test_plan_change_misses_cache(self, tmp_path):
        # The plan lives in the scenario (and in MitigateStage params),
        # so a tweaked plan can never be served a stale defended capture.
        _, cold = run(defended_scenario(), store=tmp_path)
        tweaked_result, tweaked = run(defended_scenario(block_seconds=9.0), store=tmp_path)
        assert not tweaked.cache_summary()["capture-detect"]["cache_hit"]
        assert tweaked_result.mitigation["plan"]["block_seconds"] == 9.0
