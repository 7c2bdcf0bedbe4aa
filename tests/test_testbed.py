"""Integration tests for the assembled testbed and experiment flows.

These run the full DDoShield-IoT lifecycle at small scale: build the
Figure 1 topology, infect the fleet, capture labelled traffic, train
models, and run real-time detection.
"""

import pytest

from repro.testbed import (
    AttackPhase,
    Scenario,
    Testbed,
    default_model_specs,
    run_realtime_detection,
    train_models,
)
from repro.testbed.builder import TestbedError as BuilderTimeoutError


@pytest.fixture(scope="module")
def infected_testbed():
    """One shared small testbed, infected once (module-scoped for speed)."""
    scenario = Scenario(n_devices=3, seed=11)
    testbed = Testbed(scenario).build()
    seconds = testbed.infect_all()
    return testbed, seconds


class TestScenario:
    def test_defaults_valid(self):
        scenario = Scenario()
        assert scenario.n_devices >= 1

    def test_invalid_devices_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_devices=0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            Scenario(window_seconds=0)

    def test_attack_phase_validation(self):
        with pytest.raises(ValueError):
            AttackPhase(start=-1, kind="syn", duration=5, pps_per_bot=10)
        with pytest.raises(ValueError):
            AttackPhase(start=0, kind="syn", duration=0, pps_per_bot=10)

    def test_training_schedule_covers_three_attacks(self):
        schedule = Scenario().training_schedule(60.0)
        assert [p.kind for p in schedule] == ["syn", "ack", "udp"]
        assert all(p.start + p.duration <= 60.0 for p in schedule)

    def test_detection_schedule_rates_lower_than_training(self):
        scenario = Scenario()
        train = scenario.training_schedule(60.0)
        detect = scenario.detection_schedule(30.0)
        assert max(p.pps_per_bot for p in detect) < min(p.pps_per_bot for p in train)


class TestBuild:
    def test_component_inventory_matches_figure1(self, infected_testbed):
        testbed, _ = infected_testbed
        inventory = testbed.component_inventory()
        assert {"http-server", "ftp-server", "rtmp-server", "dns-server", "ntp-server"} <= set(
            inventory["tserver"]
        )
        assert {"cnc", "mirai-loader", "mirai-scanner"} <= set(inventory["attacker"])
        for i in range(3):
            assert "telnet" in inventory[f"dev-{i}"]
            assert "device-profile" in inventory[f"dev-{i}"]
            assert "udp-chatter" in inventory[f"dev-{i}"]

    def test_build_idempotent(self, infected_testbed):
        testbed, _ = infected_testbed
        containers_before = len(testbed.orchestrator.containers)
        testbed.build()
        assert len(testbed.orchestrator.containers) == containers_before


class TestInfection:
    def test_all_devices_infected(self, infected_testbed):
        testbed, seconds = infected_testbed
        assert testbed.bot_count == 3
        assert all(t.infected for t in testbed.telnets)
        assert seconds > 0
        inventory = testbed.component_inventory()
        for i in range(3):
            assert "mirai-bot" in inventory[f"dev-{i}"]

    def test_infection_timeout_raises(self):
        scenario = Scenario(n_devices=1, seed=3)
        testbed = Testbed(scenario).build()
        # Harden the fleet: stop every telnet daemon so the scanner can
        # never crack a device and infection must time out.
        for telnet in testbed.telnets:
            telnet.stop()
        with pytest.raises(BuilderTimeoutError):
            testbed.infect_all(max_time=10.0)


class TestCapture:
    def test_capture_contains_benign_and_malicious(self, infected_testbed):
        testbed, _ = infected_testbed
        phases = [AttackPhase(start=2.0, kind="udp", duration=3.0, pps_per_bot=50)]
        capture = testbed.capture(10.0, phases)
        summary = capture.summary()
        assert summary.benign > 0
        assert summary.malicious > 0
        assert "udp_flood" in summary.by_attack

    def test_capture_without_attacks_is_benign_plus_c2(self, infected_testbed):
        testbed, _ = infected_testbed
        capture = testbed.capture(5.0)
        attacks = set(capture.summary().by_attack)
        assert attacks <= {"c2"}

    def test_timestamps_continue_across_captures(self, infected_testbed):
        testbed, _ = infected_testbed
        first = testbed.capture(3.0)
        second = testbed.capture(3.0)
        assert second.records[0].timestamp > first.records[-1].timestamp - 3.0
        assert second.records[0].timestamp >= first.records[0].timestamp

    def test_pcap_export(self, infected_testbed, tmp_path):
        from repro.sim.tracing import PcapReader

        testbed, _ = infected_testbed
        path = tmp_path / "phase.pcap"
        capture = testbed.capture(2.0, pcap_path=str(path))
        frames = list(PcapReader(path))
        assert len(frames) == len(capture)


class TestChurn:
    def test_churned_devices_rejoin(self):
        scenario = Scenario(
            n_devices=2, seed=5, churn_interval=3.0, churn_downtime=2.0
        )
        testbed = Testbed(scenario).build()
        testbed.infect_all()
        testbed.capture(20.0)
        # Let any in-flight downtime elapse, then all devices are back.
        testbed.sim.run(until=testbed.sim.now + scenario.churn_downtime + 1.0)
        attached = {d.mac for d in testbed.lan.channel._devices}
        for dev in testbed.devices:
            assert dev.node.interfaces[0].device.mac in attached


class TestExperimentFlows:
    @pytest.fixture(scope="class")
    def small_run(self):
        scenario = Scenario(n_devices=3, seed=21)
        testbed = Testbed(scenario).build()
        testbed.infect_all()
        train = testbed.capture(30.0, scenario.training_schedule(30.0, pps_per_bot=250))
        detect = testbed.capture(15.0, scenario.detection_schedule(15.0, pps_per_bot=60))
        return scenario, train, detect

    def test_train_models_reports_high_metrics(self, small_run):
        scenario, train, _ = small_run
        trained = train_models(train, seed=scenario.seed)
        assert {t.name for t in trained} == {"RF", "K-Means", "CNN"}
        for item in trained:
            assert item.train_report.accuracy > 0.9
            assert item.size_kb > 0
            assert item.fit_seconds > 0

    def test_realtime_reports_have_sustainability(self, small_run):
        scenario, train, detect = small_run
        trained = train_models(train, seed=scenario.seed)
        reports = run_realtime_detection(detect, trained)
        assert len(reports) == 3
        for report in reports:
            assert report.n_windows > 10
            assert report.sustainability is not None
            assert report.sustainability.cpu_percent > 0

    def test_kmeans_model_is_lightest(self, small_run):
        scenario, train, _ = small_run
        trained = {t.name: t for t in train_models(train, seed=scenario.seed)}
        assert trained["K-Means"].size_kb < trained["RF"].size_kb / 5
        assert trained["K-Means"].size_kb < trained["CNN"].size_kb / 5

    def test_single_class_capture_rejected(self, small_run):
        scenario, train, _ = small_run
        benign_only = train.filter(lambda r: r.label == 0)
        with pytest.raises(ValueError):
            train_models(benign_only, seed=scenario.seed)

    def test_specs_have_distinct_feature_views(self):
        specs = {s.name: s for s in default_model_specs()}
        assert specs["RF"].stat_set == "paper"
        assert not specs["RF"].scale
        assert specs["K-Means"].stat_set == "normalized"
        assert specs["K-Means"].scale
        assert specs["CNN"].include_details
