"""Staged experiment pipeline: store, runner DAG semantics, equivalence.

The equivalence test is the refactor's contract: the staged
``run_full_experiment`` must produce *identical* tables to the
historical monolithic flow (same seed, same testbed event order), and a
second run against a warm cache must execute zero stages while loading
identical results.
"""

import json
from pathlib import Path

import pytest

from repro.pipeline import (
    ArtifactStore,
    PipelineRunner,
    Stage,
    run_experiment_pipeline,
    stage_key,
)
from repro.pipeline import store as store_module
from repro.testbed import (
    ExperimentResult,
    Scenario,
    Testbed,
    run_full_experiment,
    run_realtime_detection,
    train_models,
)

SCENARIO = Scenario(n_devices=2, seed=5)
TRAIN, DETECT = 25.0, 12.0


# ----------------------------------------------------------------------
# Store


class TestArtifactStore:
    def test_commit_and_open(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key = "ab" + "0" * 62
        staging = store.begin(key)
        (staging / "data.json").write_text("{}")
        entry = store.commit(key, staging, meta={"stage": "x"})
        assert store.contains(key)
        assert store.open(key) == entry
        assert (entry / "data.json").read_text() == "{}"
        marker = json.loads((entry / "ARTIFACT.json").read_text())
        assert marker["stage"] == "x"

    def test_missing_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.contains("ff" + "0" * 62)
        with pytest.raises(KeyError):
            store.open("ff" + "0" * 62)

    def test_race_loser_discarded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cd" + "1" * 62
        first = store.begin(key)
        (first / "v.txt").write_text("first")
        second = store.begin(key)
        (second / "v.txt").write_text("second")
        store.commit(key, first)
        store.commit(key, second)  # loses: the committed entry wins
        assert (store.open(key) / "v.txt").read_text() == "first"
        assert not second.exists()

    def test_stats_count_hits_and_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ee" + "2" * 62
        store.contains(key)
        staging = store.begin(key)
        store.commit(key, staging)
        store.contains(key)
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.hit_rate == 0.5


class TestStageKey:
    def test_deterministic(self):
        a = stage_key("s", {"seed": 1}, {"d": 2.0}, {"up": "k1"})
        assert a == stage_key("s", {"seed": 1}, {"d": 2.0}, {"up": "k1"})

    def test_sensitive_to_every_component(self):
        base = stage_key("s", {"seed": 1}, {"d": 2.0}, {"up": "k1"})
        assert stage_key("t", {"seed": 1}, {"d": 2.0}, {"up": "k1"}) != base
        assert stage_key("s", {"seed": 2}, {"d": 2.0}, {"up": "k1"}) != base
        assert stage_key("s", {"seed": 1}, {"d": 3.0}, {"up": "k1"}) != base
        assert stage_key("s", {"seed": 1}, {"d": 2.0}, {"up": "k2"}) != base


# ----------------------------------------------------------------------
# Runner DAG semantics (dummy stages, no testbed)


class RecordingStage(Stage):
    """A stage that logs executions and round-trips a JSON value."""

    def __init__(self, name, deps=(), requires_state=(), provides_state=(),
                 value=None, param=0, log=None):
        self.name = name
        self.deps = tuple(deps)
        self.requires_state = tuple(requires_state)
        self.provides_state = tuple(provides_state)
        self.value = value if value is not None else {"stage": name}
        self.param = param
        self.log = log if log is not None else []

    def params(self):
        return {"param": self.param}

    def run(self, ctx, inputs):
        self.log.append(self.name)
        for resource in self.provides_state:
            ctx.state[resource] = f"live-{self.name}"
        return self.value

    def save(self, value, directory: Path):
        (directory / "value.json").write_text(json.dumps(value))

    def load(self, directory: Path):
        return json.loads((directory / "value.json").read_text())


def make_chain(log):
    """build -> capture (live) -> pure, mirroring the experiment shape."""
    return [
        RecordingStage("build", provides_state=("res",), log=log),
        RecordingStage("capture", deps=("build",), requires_state=("res",),
                       provides_state=("res",), log=log),
        RecordingStage("pure", deps=("capture",), log=log),
    ]


class TestPipelineRunner:
    def test_rejects_unordered_deps(self):
        with pytest.raises(ValueError, match="depend"):
            PipelineRunner([RecordingStage("a", deps=("b",)), RecordingStage("b")])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            PipelineRunner([RecordingStage("a"), RecordingStage("a")])

    def test_uncached_run_executes_everything(self):
        log = []
        result = PipelineRunner(make_chain(log)).run(Scenario(n_devices=1))
        assert log == ["build", "capture", "pure"]
        assert result.value("pure") == {"stage": "pure"}

    def test_warm_cache_executes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenario = Scenario(n_devices=1)
        log = []
        PipelineRunner(make_chain(log), store=store).run(scenario)
        log2 = []
        result = PipelineRunner(make_chain(log2), store=store).run(scenario)
        assert log2 == []
        assert result.executed == []
        assert set(result.cache_hits) == {"build", "capture", "pure"}
        # Artifacts still load on demand.
        assert result.value("capture") == {"stage": "capture"}

    def test_changed_param_cascades_downstream(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenario = Scenario(n_devices=1)
        PipelineRunner(make_chain([]), store=store).run(scenario)
        log = []
        stages = make_chain(log)
        stages[2].param = 99  # only the pure stage changes
        result = PipelineRunner(stages, store=store).run(scenario)
        # The pure stage misses; it needs no live state, so the testbed
        # chain stays cached and un-executed.
        assert log == ["pure"]
        assert result.outcomes["build"].cache_hit
        assert result.outcomes["capture"].cache_hit
        assert not result.outcomes["pure"].cache_hit

    def test_live_state_chain_reexecutes_for_missing_live_stage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenario = Scenario(n_devices=1)
        PipelineRunner(make_chain([]), store=store).run(scenario)
        log = []
        stages = make_chain(log)
        stages[1].param = 7  # the live capture stage changes
        result = PipelineRunner(stages, store=store).run(scenario)
        # capture misses and needs live state, so build re-executes even
        # though its artifact is a cache hit (and is not rewritten).
        assert log == ["build", "capture", "pure"]
        assert result.outcomes["build"].cache_hit
        assert result.outcomes["build"].executed

    def test_scenario_change_invalidates_all(self, tmp_path):
        store = ArtifactStore(tmp_path)
        PipelineRunner(make_chain([]), store=store).run(Scenario(n_devices=1))
        log = []
        PipelineRunner(make_chain(log), store=store).run(Scenario(n_devices=2))
        assert log == ["build", "capture", "pure"]

    def test_entries_of_an_older_store_version_miss(self, tmp_path, monkeypatch):
        # Stage keys do not cover code, so a bumped version must not be
        # served a train-models or detect artifact from the one before it.
        store = ArtifactStore(tmp_path)
        with monkeypatch.context() as patched:
            patched.setattr(
                store_module, "STORE_VERSION", store_module.STORE_VERSION - 1
            )
            PipelineRunner(make_chain([]), store=store).run(Scenario(n_devices=1))
        assert len(store) == 3
        log = []
        result = PipelineRunner(make_chain(log), store=store).run(Scenario(n_devices=1))
        assert log == ["build", "capture", "pure"]
        assert not result.cache_hits

    def test_finalizers_run_after_success(self):
        calls = []

        class Finalizing(RecordingStage):
            def run(self, ctx, inputs):
                ctx.add_finalizer(lambda: calls.append("finalized"))
                return super().run(ctx, inputs)

        PipelineRunner([Finalizing("only")]).run(Scenario(n_devices=1))
        assert calls == ["finalized"]


# ----------------------------------------------------------------------
# Same-seed equivalence with the pre-refactor monolith


def monolithic_full_experiment(scenario, train_duration, detect_duration):
    """The historical ``run_full_experiment`` body, kept as the reference."""
    testbed = Testbed(scenario).build()
    infection_seconds = testbed.infect_all()
    train_capture = testbed.capture(
        train_duration, scenario.training_schedule(train_duration)
    )
    trained = train_models(
        train_capture, window_seconds=scenario.window_seconds, seed=scenario.seed
    )
    detect_capture = testbed.capture(
        detect_duration, scenario.detection_schedule(detect_duration)
    )
    detection = run_realtime_detection(
        detect_capture, trained, window_seconds=scenario.window_seconds
    )
    testbed.sim.finalize()
    return ExperimentResult(
        scenario=scenario,
        train_summary=train_capture.summary(),
        detect_summary=detect_capture.summary(),
        trained=trained,
        detection=detection,
        infection_seconds=infection_seconds,
    )


class TestStagedEquivalence:
    @pytest.fixture(scope="class")
    def monolith(self):
        return monolithic_full_experiment(SCENARIO, TRAIN, DETECT)

    def test_staged_matches_monolith(self, monolith):
        staged = run_full_experiment(SCENARIO, TRAIN, DETECT)
        assert staged.table1() == monolith.table1()
        assert staged.training_metrics() == monolith.training_metrics()
        assert staged.train_summary == monolith.train_summary
        assert staged.detect_summary == monolith.detect_summary
        assert staged.infection_seconds == monolith.infection_seconds

    def test_cached_rerun_executes_nothing_and_matches(self, monolith, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        first, cold = run_experiment_pipeline(SCENARIO, TRAIN, DETECT, store=store)
        assert set(cold.executed) == {
            "build", "capture-train", "train-models", "capture-detect", "detect"
        }
        second, warm = run_experiment_pipeline(SCENARIO, TRAIN, DETECT, store=store)
        assert warm.executed == []
        assert len(warm.cache_hits) == 5
        assert second.table1() == monolith.table1()
        assert second.training_metrics() == monolith.training_metrics()
        assert second.table2() == first.table2()
        # Even the wall-clock fit time is replayed from the artifact.
        assert [t.fit_seconds for t in second.trained] == [
            t.fit_seconds for t in first.trained
        ]

    def test_fault_flow_roundtrips_through_cache(self, tmp_path):
        from repro.testbed import run_fault_experiment

        store = ArtifactStore(tmp_path / "cache")
        first = run_fault_experiment(SCENARIO, TRAIN, DETECT, store=store)
        second = run_fault_experiment(SCENARIO, TRAIN, DETECT, store=store)
        # The clean-prefix stages are shared with the full experiment;
        # the cached replay reproduces the fault bookkeeping exactly.
        assert second.fault_table() == first.fault_table()
        assert second.events == first.events  # targets and notes included
        assert {e.kind for e in first.events} >= {"fault.partition", "supervisor.restart"}
        assert all(e.targets for e in first.events)
        assert any(e.note for e in first.events)
        assert second.restarts == first.restarts
        assert second.fault_plan == first.fault_plan
        assert second.table1() == first.table1()
