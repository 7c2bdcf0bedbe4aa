"""Assembles the Figure 1 topology and drives testbed phases.

One :class:`Testbed` owns the simulator, the CSMA LAN, and the four
container roles:

* **tserver** — Apache-analogue HTTP, Nginx-RTMP-analogue streaming, and
  the customised FTP server;
* **dev-i** — a vulnerable telnet daemon (weak Mirai-dictionary login)
  plus a benign client profile mixing HTTP/FTP/RTMP sessions;
* **attacker** — CNC server, Mirai scanner, and loader;
* **ids** — a promiscuous tap on the LAN (captures feed the IDS unit).

Phases mirror the paper: :meth:`Testbed.infect_all` runs the
scan→crack→load lifecycle until the botnet is assembled, then
:meth:`Testbed.capture` records a labelled
:class:`~repro.capture.dataset.TrafficDataset` while benign traffic and
scheduled flood phases run concurrently.  Fault, supervisor and
mitigation events all land in one run log, :attr:`Testbed.events`.
"""

from __future__ import annotations

import random

from repro import obs
from repro.apps import (
    DeviceProfile,
    DnsServer,
    FtpServer,
    HttpServer,
    NtpServer,
    RtmpServer,
    TrafficMix,
    UdpChatter,
)
from repro.botnet import CncServer, Loader, MiraiBot, MiraiScanner
from repro.botnet.credentials import random_credential
from repro.botnet.telnet import VulnerableTelnet
from repro.capture import TrafficDataset
from repro.containers import Container, Image, Orchestrator, RestartPolicy
from repro.faults import FaultInjector, FaultPlan
from repro.features.columnar import RecordBatch
from repro.ids import RealTimeIds
from repro.ids.defense import (
    BlocklistFilter,
    MitigationController,
    MitigationPlan,
    UpstreamFilter,
)
from repro.sim import CsmaLan, Event, PacketProbe, SegmentedLan, Simulator
from repro.sim.tracing import PcapWriter
from repro.testbed.scenario import AttackPhase, Scenario


class TestbedError(RuntimeError):
    """Raised when a phase cannot complete (e.g. infection stalls)."""


class _LiveTapRx:
    """RX callback feeding the live IDS each frame at its delivery instant."""

    __slots__ = ("ids", "sim")

    def __init__(self, ids: RealTimeIds, sim: Simulator) -> None:
        self.ids = ids
        self.sim = sim

    def __call__(self, frame) -> None:
        self.ids(frame, self.sim.now)


class Testbed:
    """The assembled DDoShield-IoT instance."""

    __test__ = False  # "Test" prefix is the product name, not a pytest class

    def __init__(self, scenario: Scenario | None = None) -> None:
        self.scenario = scenario or Scenario()
        # REPRO_SANITIZE arms the runtime sanitizers and REPRO_SHUFFLE
        # the bucket-shuffle race detector.
        self.sim = Simulator()
        if self.scenario.devices_per_segment > 0:
            # Hierarchical mode: dev containers go to leaf segments
            # behind gateways; tserver/attacker/ids stay on the backbone.
            self.lan: CsmaLan | SegmentedLan = SegmentedLan(
                self.sim,
                subnet=self.scenario.subnet,
                data_rate=self.scenario.data_rate,
                delay=self.scenario.channel_delay,
                devices_per_segment=self.scenario.devices_per_segment,
            )
        else:
            self.lan = CsmaLan(
                self.sim,
                subnet=self.scenario.subnet,
                data_rate=self.scenario.data_rate,
                delay=self.scenario.channel_delay,
            )
        #: The run log: fault, supervisor and mitigation events.
        self.events = obs.run_log()
        self.orchestrator = Orchestrator(
            self.sim, self.lan, seed=self.scenario.seed + 9000, events=self.events
        )
        self.fault_injector: FaultInjector | None = None
        self._kill_edges: list[Event] = []
        self.tserver: Container | None = None
        self.attacker: Container | None = None
        self.devices: list[Container] = []
        self.http: HttpServer | None = None
        self.ftp: FtpServer | None = None
        self.rtmp: RtmpServer | None = None
        self.cnc: CncServer | None = None
        self.loader: Loader | None = None
        self.scanner: MiraiScanner | None = None
        self.telnets: list[VulnerableTelnet] = []
        self.profiles: list[DeviceProfile] = []
        self.bots: list[MiraiBot] = []
        self._rng = random.Random(self.scenario.seed)
        self._built = False
        self._churn_offline: set[int] = set()
        self.mitigation: MitigationController | None = None
        self._mitigation_teardown: tuple | None = None

    # ------------------------------------------------------------------
    # Assembly

    def build(self) -> "Testbed":
        """Create and start every container of Figure 1."""
        if self._built:
            return self
        scenario = self.scenario
        self.tserver = self.orchestrator.run("tserver", Image("ddoshield/tserver"))
        self.http = self.tserver.exec(HttpServer(seed=scenario.seed + 100))
        self.ftp = self.tserver.exec(
            FtpServer(
                seed=scenario.seed + 200,
                min_file_bytes=scenario.ftp_min_file_bytes,
                max_file_bytes=scenario.ftp_max_file_bytes,
            )
        )
        self.rtmp = self.tserver.exec(
            RtmpServer(
                bitrate_bps=scenario.rtmp_bitrate_bps,
                chunk_interval=scenario.rtmp_chunk_interval,
            )
        )
        self.dns = self.tserver.exec(DnsServer())
        self.ntp = self.tserver.exec(NtpServer())
        self.tserver.node.tcp.seed(scenario.seed + 1)

        self.attacker = self.orchestrator.run("attacker", Image("ddoshield/attacker"))
        self.attacker.node.tcp.seed(scenario.seed + 2)
        self.cnc = self.attacker.exec(CncServer(port=scenario.cnc_port))
        self.loader = Loader(on_loaded=None)
        self.attacker.exec(self.loader)
        self.scanner = self.attacker.exec(
            MiraiScanner(
                on_credentials_found=self._on_credentials_found,
                seed=scenario.seed + 3,
            )
        )
        self.scanner.exclude(self.tserver.node.address)

        mix = TrafficMix(
            http_weight=scenario.http_weight,
            ftp_weight=scenario.ftp_weight,
            rtmp_weight=scenario.rtmp_weight,
            mean_session_interval=scenario.mean_session_interval,
        )
        for i in range(scenario.n_devices):
            dev = self.orchestrator.run(f"dev-{i}", Image("ddoshield/dev"))
            dev.node.tcp.seed(scenario.seed + 10 + i)
            user, password = random_credential(scenario.seed * 1000 + i)
            telnet = VulnerableTelnet(
                user, password, on_infected=self._make_infection_hook(dev, i)
            )
            dev.exec(telnet)
            profile = DeviceProfile(
                self.tserver.node.address,
                self.http.page_names(),
                self.ftp.file_names(),
                mix=mix,
                seed=scenario.seed * 100 + i,
                start_delay=self._rng.uniform(0.0, scenario.mean_session_interval),
                rtmp_duration=(scenario.rtmp_min_duration, scenario.rtmp_max_duration),
            )
            dev.exec(profile)
            dev.exec(
                UdpChatter(
                    self.tserver.node.address,
                    mean_dns_interval=scenario.mean_dns_interval,
                    seed=scenario.seed * 77 + i,
                    start_delay=self._rng.uniform(0.0, 1.0),
                    # The tick only bounds how far ahead arrivals are
                    # booked: each datagram leaves at its own arrival
                    # instant, whatever the tick.
                    tick=4.0 * scenario.mean_dns_interval,
                )
            )
            self.devices.append(dev)
            self.telnets.append(telnet)
            self.profiles.append(profile)
        self._built = True
        return self

    def _on_credentials_found(self, target, username, password) -> None:
        assert self.loader is not None
        self.loader.infect(target, username, password)

    def _make_infection_hook(self, dev: Container, index: int):
        def on_infected(telnet: VulnerableTelnet) -> None:
            assert self.attacker is not None
            bot = MiraiBot(
                self.attacker.node.address,
                cnc_port=self.scenario.cnc_port,
                seed=self.scenario.seed * 10 + index,
                self_propagate=self.scenario.self_propagate,
                propagation_targets=[d.node.address for d in self.devices],
                report_credentials=self._on_credentials_found
                if self.scenario.self_propagate
                else None,
            )
            dev.exec(bot)
            self.bots.append(bot)

        return on_infected

    # ------------------------------------------------------------------
    # Phases

    def infect_all(self, max_time: float = 600.0) -> float:
        """Run the scan→load lifecycle until every Dev hosts a bot.

        Returns the virtual time the infection took.
        """
        if not self._built:
            self.build()
        assert self.scanner is not None and self.cnc is not None
        start = self.sim.now
        self.scanner.scan([d.node.address for d in self.devices])
        deadline = start + max_time
        step = 5.0
        while self.sim.now < deadline:
            self.sim.run(until=min(self.sim.now + step, deadline))
            if self.cnc.bot_count >= self.scenario.n_devices:
                return self.sim.now - start
        raise TestbedError(
            f"infection incomplete after {max_time}s: "
            f"{self.cnc.bot_count}/{self.scenario.n_devices} bots registered"
        )

    def capture(
        self,
        duration: float,
        attack_phases: list[AttackPhase] | None = None,
        pcap_path: str | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> TrafficDataset:
        """Record a labelled capture while attacks fire per the schedule.

        Timestamps are the testbed's continuing virtual clock, exactly as
        in the paper where the real-time detection run happens *after*
        the dataset-generation run on the same testbed — so live
        timestamps lie beyond the training capture's range.

        ``fault_plan`` (falling back to ``scenario.fault_plan``) schedules
        impairments, partitions, and container crashes relative to the
        capture's start.  The plan ends with the capture: its pending
        edges are cancelled and faults still in force end at the
        capture's end, while a restart the supervisor already scheduled
        still happens.
        """
        if not self._built:
            self.build()
        assert self.cnc is not None and self.tserver is not None
        octx = obs.current()
        pcap = PcapWriter(pcap_path) if pcap_path else None
        probe = PacketProbe(pcap=pcap)
        self.lan.add_probe(probe)
        base = self.sim.now
        span = octx.tracer.span(
            "testbed.capture", duration=duration, phases=len(attack_phases or [])
        )
        # The probe and pcap must be torn down even when the run raises:
        # an un-removed probe corrupts later captures on the same testbed,
        # and an unclosed pcap silently loses its buffered tail.
        try:
            with span:
                plan = fault_plan if fault_plan is not None else self.scenario.fault_plan
                if plan is not None:
                    self.apply_faults(plan, base=base)
                for phase in attack_phases or []:
                    self.sim.schedule(
                        phase.start,
                        self.cnc.launch_attack,
                        phase.kind,
                        self.tserver.node.address,
                        phase.target_port,
                        phase.duration,
                        phase.pps_per_bot,
                    )
                    # Attack edges are recorded declaratively from the static
                    # schedule — never via extra simulator events, so telemetry
                    # on/off cannot perturb the run.
                    octx.events.record(
                        base + phase.start, "attack.start", detail=phase.kind
                    )
                    octx.events.record(
                        base + phase.start + phase.duration,
                        "attack.stop",
                        detail=phase.kind,
                    )
                if self.scenario.churn_interval > 0:
                    self._schedule_churn(base + duration)
                self.sim.run(until=base + duration)
                if plan is not None:
                    self._end_faults()
                span.set("packets", probe.count)
        finally:
            self.lan.channel.remove_probe(probe)
            if pcap is not None:
                pcap.close()
        return TrafficDataset(RecordBatch.from_columns(probe.drain_columns()))

    # ------------------------------------------------------------------
    # Fault injection

    def apply_faults(self, plan: FaultPlan, base: float | None = None) -> FaultInjector:
        """Arm a :class:`FaultPlan` against the running testbed.

        Wire faults and partitions go to a :class:`FaultInjector` on the
        LAN channel; ``kill`` specs register supervision on the
        orchestrator (per the spec's restart policy) and schedule the
        crash.  All spec times are relative to ``base`` (default: now).
        Both record into :attr:`events`.  Returns the injector.
        """
        if not self._built:
            self.build()
        if base is None:
            base = self.sim.now
        injector = FaultInjector(
            self.sim, self.lan.channel, seed=plan.seed + self.scenario.seed, events=self.events
        )
        injector.schedule_plan(plan, resolve_device=self._resolve_device, base=base)
        for spec in plan.kill_specs():
            for target in spec.targets:
                if target not in self.orchestrator.containers:
                    raise TestbedError(f"kill fault targets unknown container {target!r}")
                if spec.restart != "no":
                    self.orchestrator.supervise(
                        target, RestartPolicy(mode=spec.restart)
                    )
                self._kill_edges.append(
                    self.sim.schedule_abs(base + spec.start, self.orchestrator.kill, target)
                )
        self.fault_injector = injector
        return injector

    def _end_faults(self) -> None:
        """End the armed plan now: cancel its pending wire, partition and
        kill edges, end every fault still in force (its
        ``fault.deactivate``/``fault.heal`` logged at this instant) and
        detach the injector, which keeps its counters."""
        for event in self._kill_edges:
            event.cancel()
        self._kill_edges.clear()
        if self.fault_injector is not None:
            self.fault_injector.detach()

    def _resolve_device(self, name: str):
        container = self.orchestrator.containers.get(name)
        if container is None or not container.node.interfaces:
            raise TestbedError(f"fault plan targets unknown container {name!r}")
        return container.node.interfaces[0].device

    # ------------------------------------------------------------------
    # Mitigation (the detect → mitigate → recover loop)

    def ensure_ids_container(self) -> Container:
        """Create the promiscuous IDS tap container on first use.

        Lazy so undefended runs stay byte-identical to builds that
        predate the mitigation subsystem: the extra node only joins the
        LAN when a :class:`MitigationPlan` asks for it.
        """
        existing = self.orchestrator.containers.get("ids")
        if existing is not None:
            return existing
        ids = self.orchestrator.run("ids", Image("ddoshield/ids"))
        ids.node.interfaces[0].device.set_promiscuous(True)
        return ids

    def install_mitigation(self, plan: MitigationPlan, trained) -> MitigationController:
        """Deploy the fault-tolerant detect→mitigate loop on this testbed.

        ``trained`` is any object exposing ``model`` / ``name`` /
        ``extractor`` / ``scaler`` (e.g. a
        :class:`~repro.testbed.experiment.TrainedModel`).  In
        ``mode="monitor"`` only the live IDS tap is deployed — the
        measured undefended baseline.  Call :meth:`uninstall_mitigation`
        when the defended phase ends.
        """
        if self.mitigation is not None:
            raise TestbedError("mitigation already installed")
        if not self._built:
            self.build()
        assert self.tserver is not None
        ids_container = self.ensure_ids_container()
        victim = self.tserver.node
        live = RealTimeIds(
            trained.model,
            trained.name,
            extractor=trained.extractor,
            scaler=trained.scaler,
            window_seconds=self.scenario.window_seconds,
        )
        filter_: BlocklistFilter | None = None
        upstream: UpstreamFilter | None = None
        cookie_ports: list[int] = []
        if plan.mode == "mitigate":
            filter_ = BlocklistFilter(
                victim,
                syn_rate_limit=plan.syn_rate_limit,
                syn_burst=plan.syn_burst,
            ).install()
            if plan.syn_cookies:
                for port in sorted(victim.tcp.listeners):
                    victim.tcp.listeners[port].enable_syn_cookies(
                        threshold=plan.syn_cookie_threshold,
                        secret=self.scenario.seed * 7919 + port,
                    )
                    cookie_ports.append(port)
            if plan.upstream_filter:
                upstream = UpstreamFilter(victim_ip=victim.address.value)
                self.lan.channel.set_traffic_filter(upstream)
        controller = MitigationController(
            plan=plan,
            sim=self.sim,
            victim=victim,
            ids=live,
            filter_=filter_,
            upstream=upstream,
            ids_container="ids",
            events=self.events,
        )
        # The live tap: the IDS container's promiscuous device feeds the
        # IDS its frames.  Kill/partition of the container
        # detaches the device and blinds the tap — exactly the failure
        # the fallback state machine covers.
        device = ids_container.node.interfaces[0].device
        tap_rx = _LiveTapRx(live, self.sim)
        device.add_rx_callback(tap_rx)
        self.events.subscribers.append(controller.on_event)
        self.mitigation = controller
        self._mitigation_teardown = (device, tap_rx, cookie_ports, live)
        return controller

    def uninstall_mitigation(self) -> MitigationController | None:
        """Tear the loop down, restoring the undefended configuration."""
        controller = self.mitigation
        if controller is None or self._mitigation_teardown is None:
            return None
        device, tap_rx, cookie_ports, live = self._mitigation_teardown
        live.finish(until=self.sim.now)  # flush the final partial window
        controller.finish()
        if controller.filter is not None:
            controller.filter.uninstall()
        if (
            controller.upstream is not None
            and self.lan.channel.traffic_filter is controller.upstream
        ):
            self.lan.channel.set_traffic_filter(None)
        assert self.tserver is not None
        for port in cookie_ports:
            listener = self.tserver.node.tcp.listeners.get(port)
            if listener is not None:
                listener.disable_syn_cookies()
        device.remove_rx_callback(tap_rx)
        self.events.subscribers.remove(controller.on_event)
        self.mitigation = None
        self._mitigation_teardown = None
        return controller

    # ------------------------------------------------------------------
    # Churn

    def _schedule_churn(self, until: float) -> None:
        delay = self._rng.expovariate(1.0 / self.scenario.churn_interval)
        if self.sim.now + delay >= until:
            return
        self.sim.schedule(delay, self._churn_once, until)

    def _churn_once(self, until: float) -> None:
        candidates = [
            i for i in range(len(self.devices)) if i not in self._churn_offline
        ]
        if candidates:
            index = self._rng.choice(candidates)
            device = self.devices[index].node.interfaces[0].device
            device.detach()
            self._churn_offline.add(index)
            self.sim.schedule(
                self.scenario.churn_downtime, self._churn_rejoin, index
            )
        self._schedule_churn(until)

    def _churn_rejoin(self, index: int) -> None:
        device = self.devices[index].node.interfaces[0].device
        # The device remembers its own channel, which on a hierarchical
        # topology is a leaf segment rather than self.lan.channel.
        device.channel.attach(device)
        self._churn_offline.discard(index)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def bot_count(self) -> int:
        return self.cnc.bot_count if self.cnc is not None else 0

    def component_inventory(self) -> dict[str, list[str]]:
        """Names of the live processes per container (Figure 1 check)."""
        inventory: dict[str, list[str]] = {}
        for name, container in self.orchestrator.containers.items():
            inventory[name] = [p.name for p in container.processes if p.running]
        return inventory

