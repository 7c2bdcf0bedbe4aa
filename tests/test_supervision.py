"""Tests for container supervision: crashes and restart policies."""

import pytest

from repro import obs
from repro.containers import (
    ContainerState,
    Image,
    Orchestrator,
    Process,
    RestartPolicy,
)
from repro.containers.container import ContainerError
from repro.sim import CsmaLan, Simulator


class PingProcess(Process):
    """Test process: sends one UDP datagram per second to a fixed peer."""

    name = "ping"

    def __init__(self, peer_address, port=7000):
        super().__init__()
        self.peer_address = peer_address
        self.port = port
        self.sent = 0
        self._timer = None

    def on_start(self):
        self._sock = self.node.udp.bind(0)
        self._tick()

    def _tick(self):
        self._sock.send_to(self.peer_address, self.port, b"ping")
        self.sent += 1
        self._timer = self.sim.schedule(1.0, self._tick)

    def on_stop(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


@pytest.fixture()
def env():
    sim = Simulator()
    lan = CsmaLan(sim)
    return sim, lan, Orchestrator(sim, lan, seed=4)


class TestRestartPolicy:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            RestartPolicy(mode="sometimes")

    def test_backoff_doubles_up_to_cap(self):
        policy = RestartPolicy(backoff_base=1.0, backoff_cap=8.0, jitter=0.0)
        import random
        rng = random.Random(0)
        delays = [policy.backoff(streak, rng) for streak in range(5)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RestartPolicy(backoff_base=2.0, jitter=0.25)
        import random
        a = [policy.backoff(0, random.Random(9)) for _ in range(3)]
        b = [policy.backoff(0, random.Random(9)) for _ in range(3)]
        assert a == b  # same seed, same jitter
        assert all(1.5 <= d <= 2.5 for d in a)


class TestKill:
    def test_kill_fails_container_and_detaches_tap(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        device = container.node.interfaces[0].device
        assert device.attached
        orch.kill("victim")
        assert container.state is ContainerState.FAILED
        assert not device.attached
        assert [e.kind for e in orch.events] == ["supervisor.kill"]
        assert [e.targets for e in orch.events] == [("victim",)]

    def test_kill_requires_running(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        container.stop()
        with pytest.raises(ContainerError):
            container.kill()

    def test_kill_stops_processes(self, env):
        sim, lan, orch = env
        target = orch.run("peer", Image("test/peer"))
        container = orch.run("victim", Image("test/app"))
        proc = container.exec(PingProcess(target.node.address))
        sim.run(until=2.5)
        assert proc.running and proc.sent >= 2
        orch.kill("victim")
        assert not proc.running


class TestRestart:
    def test_on_failure_restart_resumes_traffic(self, env):
        sim, lan, orch = env
        target = orch.run("peer", Image("test/peer"))
        inbox = []
        sock = target.node.udp.bind(7000)
        sock.on_receive = lambda *args: inbox.append(sim.now)
        container = orch.run("victim", Image("test/app"))
        proc = container.exec(PingProcess(target.node.address))
        orch.supervise("victim", RestartPolicy(mode="on-failure", jitter=0.0))
        sim.schedule(5.0, orch.kill, "victim")
        sim.run(until=20.0)
        assert container.state is ContainerState.RUNNING
        assert container.restart_count == 1
        assert container.node.interfaces[0].device.attached
        assert proc.running
        # Traffic flowed before the kill, paused, and resumed after restart.
        assert [t for t in inbox if t < 5.0]
        assert not [t for t in inbox if 5.0 < t < 6.0]  # backoff gap
        assert [t for t in inbox if t > 6.0]
        actions = [e.kind for e in orch.events]
        assert actions == [
            "supervisor.kill", "supervisor.exit", "supervisor.backoff", "supervisor.restart",
        ]
        assert [e.note for e in orch.events] == ["", "failed", "restart in 1.00s", "attempt 1"]

    def test_no_policy_never_restarts(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        orch.supervise("victim", RestartPolicy(mode="no"))
        orch.kill("victim")
        sim.run(until=30.0)
        assert container.state is ContainerState.FAILED
        assert container.restart_count == 0

    def test_on_failure_ignores_clean_stop(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        orch.supervise("victim", RestartPolicy(mode="on-failure"))
        container.stop()
        sim.run(until=30.0)
        assert container.state is ContainerState.STOPPED

    def test_circuit_breaker_gives_up(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        orch.supervise(
            "victim",
            RestartPolicy(
                mode="on-failure", max_restarts=3, jitter=0.0, reset_after=1000.0
            ),
        )

        def crash_again():
            if container.state is ContainerState.RUNNING:
                orch.kill("victim")
            if not orch.events.by_kind("supervisor.giveup"):
                sim.schedule(0.5, crash_again)

        orch.kill("victim")
        sim.schedule(0.5, crash_again)
        sim.run(until=500.0)
        assert container.state is ContainerState.FAILED
        assert container.restart_count == 3
        assert orch.events.by_kind("supervisor.giveup")
        # Backoff delays doubled on each consecutive attempt.
        delays = [
            float(e.note.split("restart in ")[1].rstrip("s"))
            for e in orch.events.by_kind("supervisor.backoff")
        ]
        assert delays == pytest.approx([1.0, 2.0, 4.0])

    def test_healthy_stretch_closes_circuit_breaker(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        orch.supervise(
            "victim",
            RestartPolicy(mode="on-failure", jitter=0.0, reset_after=5.0),
        )
        orch.kill("victim")
        sim.run(until=10.0)  # restart at ~1s, then > 5s healthy uptime
        assert container.state is ContainerState.RUNNING
        orch.kill("victim")
        sim.run(until=20.0)
        # Streak was reset, so the second crash backs off from the base again.
        delays = [
            float(e.note.split("restart in ")[1].rstrip("s"))
            for e in orch.events.by_kind("supervisor.backoff")
        ]
        assert delays == pytest.approx([1.0, 1.0])

    def test_unsupervise_cancels_pending_restart(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        orch.supervise("victim", RestartPolicy(mode="on-failure"))
        orch.kill("victim")
        orch.unsupervise("victim")
        sim.run(until=30.0)
        assert container.state is ContainerState.FAILED

    def test_restarts_metric_counts_each_restart(self):
        with obs.scope() as ctx:
            sim = Simulator()
            orch = Orchestrator(sim, CsmaLan(sim), seed=4)
            container = orch.run("victim", Image("test/app"))
            orch.supervise("victim", RestartPolicy(mode="on-failure", jitter=0.0))
            sim.schedule(1.0, orch.kill, "victim")
            sim.schedule(20.0, orch.kill, "victim")
            sim.run(until=40.0)
        restarts = ctx.registry.value("container.restarts")
        assert container.state is ContainerState.RUNNING
        assert restarts == 2.0
        assert container.restart_count == 2
        assert len(orch.events.by_kind("supervisor.restart")) == 2


class TestRestartMechanics:
    def test_restart_rejected_while_running(self, env):
        sim, lan, orch = env
        container = orch.run("victim", Image("test/app"))
        with pytest.raises(ContainerError):
            container.restart()

    def test_restart_restarts_exec_injected_processes(self, env):
        sim, lan, orch = env
        target = orch.run("peer", Image("test/peer"))
        container = orch.run("victim", Image("test/app"))
        proc = container.exec(PingProcess(target.node.address))
        sim.run(until=1.5)
        container.kill()
        assert not proc.running
        orch.bridge.reconnect(container.node)
        container.restart()
        assert proc.running
        assert container.state is ContainerState.RUNNING
