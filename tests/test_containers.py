"""Tests for the container runtime: images, lifecycle, orchestration."""

import pytest

from repro.containers import (
    Container,
    ContainerState,
    Image,
    Orchestrator,
    Process,
    RestartPolicy,
)
from repro.containers.container import ContainerError
from repro.faults import FaultSpec
from repro.sim import CsmaLan, Simulator
from repro.sim.node import Node


class EchoProcess(Process):
    """Test process: listens on a UDP port and echoes datagrams back."""

    name = "echo"

    def __init__(self, port=7):
        super().__init__()
        self.port = port
        self.echoed = 0

    def on_start(self):
        sock = self.node.udp.bind(self.port)
        sock.on_receive = self._echo

    def _echo(self, sock, payload, length, src, sport):
        self.echoed += 1
        sock.send_to(src, sport, payload)


@pytest.fixture()
def env():
    sim = Simulator()
    lan = CsmaLan(sim)
    return sim, lan, Orchestrator(sim, lan)


class TestImage:
    def test_reference(self):
        assert Image("ddoshield/dev", "1.0").reference == "ddoshield/dev:1.0"


class TestContainerLifecycle:
    def make(self, env):
        sim, lan, _ = env
        node = Node(sim, "n")
        from repro.sim.node import connect_to_lan

        connect_to_lan(node, lan.channel, lan.network, lan.macs.allocate())
        return Container("c1", Image("img"), sim, node)

    def test_initial_state_created(self, env):
        assert self.make(env).state is ContainerState.CREATED

    def test_double_start_rejected(self, env):
        container = self.make(env)
        container.start()
        with pytest.raises(ContainerError):
            container.start()

    def test_exec_requires_running(self, env):
        container = self.make(env)
        with pytest.raises(ContainerError):
            container.exec(EchoProcess())

    def test_stop_stops_processes(self, env):
        container = self.make(env)
        container.start()
        process = container.exec(EchoProcess())
        container.stop()
        assert not process.running
        assert container.state is ContainerState.STOPPED

    def test_stop_requires_running(self, env):
        with pytest.raises(ContainerError):
            self.make(env).stop()

    def test_uptime_tracks_virtual_time(self, env):
        sim, _, _ = env
        container = self.make(env)
        container.start()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert container.uptime == pytest.approx(5.0)
        container.stop()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert container.uptime == pytest.approx(5.0)


class TestRestartModes:
    """A kill fault's restart and the supervisor's policy take the same modes."""

    @pytest.mark.parametrize("mode", ["no", "on-failure"])
    def test_every_mode_accepted_by_both(self, mode):
        assert FaultSpec(kind="kill", start=1.0, targets=("dev-0",), restart=mode).restart == mode
        assert RestartPolicy(mode=mode).mode == mode

    def test_unknown_mode_rejected_by_both(self):
        # "always" is Docker's, but no fault plan stops a container cleanly.
        for mode in ("sometimes", "always"):
            with pytest.raises(ValueError, match="restart"):
                FaultSpec(kind="kill", start=1.0, targets=("dev-0",), restart=mode)
            with pytest.raises(ValueError, match="restart"):
                RestartPolicy(mode=mode)


class TestOrchestrator:
    def test_containers_communicate_over_lan(self, env):
        sim, lan, orch = env
        server = orch.run("server", Image("echo"))
        echo = server.exec(EchoProcess(port=7))
        client = orch.run("client", Image("client"))
        replies = []
        sock = client.node.udp.bind(0)
        sock.on_receive = lambda s, p, n, src, sp: replies.append(p)
        sock.send_to(server.node.address, 7, b"ping")
        sim.run(until=1.0)
        assert replies == [b"ping"]
        assert echo.echoed == 1

    def test_duplicate_name_rejected(self, env):
        _, _, orch = env
        orch.run("x", Image("img"))
        with pytest.raises(ValueError):
            orch.run("x", Image("img"))

    def test_get_missing_raises(self, env):
        _, _, orch = env
        with pytest.raises(KeyError):
            orch.get("ghost")
