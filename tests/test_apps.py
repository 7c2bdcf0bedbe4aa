"""Tests for the benign traffic applications: HTTP, FTP, RTMP, devices."""

import pytest

from repro.apps import (
    DeviceProfile,
    FtpClient,
    FtpServer,
    HttpClient,
    HttpServer,
    RtmpClient,
    RtmpServer,
    TrafficMix,
)
from repro.containers import Image, Orchestrator
from repro.sim import CsmaLan, PacketProbe, Simulator


@pytest.fixture()
def env():
    sim = Simulator()
    lan = CsmaLan(sim)
    orch = Orchestrator(sim, lan)
    tserver = orch.run("tserver", Image("tserver"))
    dev = orch.run("dev", Image("dev"))
    return sim, lan, orch, tserver, dev


class TestHttp:
    def test_single_fetch_roundtrip(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(HttpServer(seed=1))
        client = HttpClient(tserver.node.address, server.page_names())
        page = server.page_names()[0]
        client.fetch_once(dev.node, page)
        sim.run(until=10.0)
        assert client.completed == 1
        assert server.requests_served == 1
        # header + body bytes arrive
        assert client.bytes_fetched > server.pages[page]

    def test_page_sizes_deterministic_by_seed(self):
        assert HttpServer(seed=5).pages == HttpServer(seed=5).pages
        assert HttpServer(seed=5).pages != HttpServer(seed=6).pages

    def test_unknown_page_404(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(HttpServer())
        client = HttpClient(tserver.node.address, ["/missing.html"])
        client.fetch_once(dev.node, "/missing.html")
        sim.run(until=10.0)
        assert server.not_found == 1
        assert client.completed == 1  # the 404 response still completes

    def test_server_refused_after_stop(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(HttpServer())
        server.stop()
        client = HttpClient(tserver.node.address, ["/page0.html"])
        client.fetch_once(dev.node)
        sim.run(until=10.0)
        assert client.completed == 0
        assert client.failed == 1  # RST from closed port


class TestFtp:
    def test_full_session_transfers_file(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(FtpServer(seed=2))
        client = FtpClient(tserver.node.address, server.file_names())
        filename = server.file_names()[0]
        client.download_once(dev.node, filename)
        sim.run(until=60.0)
        assert client.downloads_completed == 1
        assert server.transfers_completed == 1
        assert client.bytes_downloaded == server.files[filename]

    def test_bad_password_rejected(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(FtpServer())
        client = FtpClient(tserver.node.address, server.file_names(), password="wrong")
        client.download_once(dev.node)
        sim.run(until=30.0)
        assert client.downloads_completed == 0
        assert client.failed == 1
        assert server.auth_failures == 1

    def test_missing_file_550(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(FtpServer())
        client = FtpClient(tserver.node.address, ["no-such-file.bin"])
        client.download_once(dev.node)
        sim.run(until=30.0)
        assert client.failed == 1

    def test_retr_requires_login(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(FtpServer())
        # Drive the control channel manually, skipping auth.
        responses = []
        sock = dev.node.tcp.socket()

        def on_data(s, payload, length, app_data):
            responses.append(payload.decode()[:3])
            if payload.startswith(b"220"):
                s.send(b"RETR firmware-0.bin\r\n")

        sock.on_data = on_data
        sock.connect(tserver.node.address, 21)
        sim.run(until=10.0)
        assert "530" in responses

    def test_unknown_command_502(self, env):
        sim, _, _, tserver, dev = env
        tserver.exec(FtpServer())
        responses = []
        sock = dev.node.tcp.socket()

        def on_data(s, payload, length, app_data):
            responses.append(payload.decode()[:3])
            if payload.startswith(b"220"):
                s.send(b"NOOP\r\n")

        sock.on_data = on_data
        sock.connect(tserver.node.address, 21)
        sim.run(until=10.0)
        assert "502" in responses


class TestRtmp:
    def test_stream_delivers_bitrate(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(RtmpServer(bitrate_bps=400_000, chunk_interval=0.1))
        client = RtmpClient(tserver.node.address)
        client.play_once(dev.node, duration=5.0)
        sim.run(until=30.0)
        assert client.sessions_completed == 1
        assert server.sessions_started == 1
        expected = 400_000 / 8 * 5.0
        assert client.bytes_streamed == pytest.approx(expected, rel=0.1)

    def test_chunk_bytes(self):
        server = RtmpServer(bitrate_bps=800_000, chunk_interval=0.1)
        assert server.chunk_bytes == 10_000

    def test_bad_command_closed(self, env):
        sim, _, _, tserver, dev = env
        tserver.exec(RtmpServer())
        closed = []
        sock = dev.node.tcp.socket()
        sock.on_close = lambda s: closed.append(1)
        sock.connect(tserver.node.address, 1935, lambda s: s.send(b"publish x\r\n"))
        sim.run(until=10.0)
        assert closed

    def test_server_stop_ends_sessions(self, env):
        sim, _, _, tserver, dev = env
        server = tserver.exec(RtmpServer(chunk_interval=0.1))
        client = RtmpClient(tserver.node.address)
        client.play_once(dev.node, duration=60.0)
        sim.run(until=2.0)
        streamed_before = client.bytes_streamed
        assert streamed_before > 0
        server.stop()
        sim.run(until=10.0)
        # no further chunks after server stop (allow one in-flight chunk)
        assert client.bytes_streamed <= streamed_before + server.chunk_bytes


class TestDeviceProfile:
    def test_mixes_all_protocols(self, env):
        sim, _, _, tserver, dev = env
        http = tserver.exec(HttpServer())
        ftp = tserver.exec(FtpServer())
        tserver.exec(RtmpServer(bitrate_bps=100_000))
        profile = dev.exec(
            DeviceProfile(
                tserver.node.address,
                http.page_names(),
                ftp.file_names(),
                mix=TrafficMix(mean_session_interval=1.0),
                seed=42,
            )
        )
        sim.run(until=120.0)
        assert profile.sessions_started >= 50
        assert profile.http.completed > 0
        assert profile.ftp.downloads_completed > 0
        assert profile.rtmp.sessions_completed > 0

    def test_all_profile_traffic_labeled_benign(self, env):
        sim, lan, _, tserver, dev = env
        probe = lan.add_probe(PacketProbe())
        http = tserver.exec(HttpServer())
        ftp = tserver.exec(FtpServer())
        tserver.exec(RtmpServer())
        dev.exec(
            DeviceProfile(
                tserver.node.address,
                http.page_names(),
                ftp.file_names(),
                mix=TrafficMix(mean_session_interval=2.0),
                seed=1,
            )
        )
        sim.run(until=60.0)
        assert probe.count > 100
        assert all(r.label == 0 for r in probe.records)

    def test_stop_halts_sessions(self, env):
        sim, _, _, tserver, dev = env
        http = tserver.exec(HttpServer())
        ftp = tserver.exec(FtpServer())
        profile = dev.exec(
            DeviceProfile(
                tserver.node.address,
                http.page_names(),
                ftp.file_names(),
                mix=TrafficMix(mean_session_interval=0.5),
            )
        )
        sim.run(until=5.0)
        count = profile.sessions_started
        profile.stop()
        sim.run(until=30.0)
        assert profile.sessions_started == count

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            TrafficMix(http_weight=0, ftp_weight=0, rtmp_weight=0)

    def test_seeded_profiles_differ(self, env):
        sim, _, _, tserver, dev = env
        http = tserver.exec(HttpServer())
        ftp = tserver.exec(FtpServer())
        p1 = DeviceProfile(tserver.node.address, http.page_names(), ftp.file_names(), seed=1)
        p2 = DeviceProfile(tserver.node.address, http.page_names(), ftp.file_names(), seed=2)
        assert p1.rng.random() != p2.rng.random()


class _RecordingProfile(DeviceProfile):
    """DeviceProfile that logs each launch as (time, kind)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.launches = []

    def _launch_session(self, kind):
        self.launches.append((self.sim.now, kind))
        super()._launch_session(kind)


class TestDeviceProfileLookahead:
    def _run(self, tick, until=60.0):
        sim = Simulator()
        lan = CsmaLan(sim)
        orch = Orchestrator(sim, lan)
        tserver = orch.run("tserver", Image("tserver"))
        dev = orch.run("dev", Image("dev"))
        http = tserver.exec(HttpServer(seed=9))
        ftp = tserver.exec(FtpServer(seed=9))
        tserver.exec(RtmpServer(bitrate_bps=100_000))
        profile = dev.exec(
            _RecordingProfile(
                tserver.node.address,
                http.page_names(),
                ftp.file_names(),
                mix=TrafficMix(mean_session_interval=1.0),
                seed=13,
                start_delay=0.4,
                tick=tick,
            )
        )
        sim.run(until=until)
        return profile

    def test_launch_instants_invariant_to_tick_choice(self):
        """Sessions launch at exact Poisson arrival instants regardless of
        how far ahead the anchored ticker books them — the tick is purely
        a look-ahead bound, never a quantizer."""
        narrow = self._run(tick=0.25)
        wide = self._run(tick=4.0)
        assert narrow.launches == wide.launches
        assert narrow.sessions_started == wide.sessions_started
        assert narrow.rng.getstate() == wide.rng.getstate()

    def test_anchored_ticker_stays_drift_free(self):
        """Tick k of the profile's ticker fires at exactly t0 + k*tick
        (anchored multiples, no accumulated float drift)."""
        profile = self._run(tick=0.5, until=30.0)
        ticker = profile._ticker
        base = 0.4  # start_delay; on_start ran at t=0
        assert ticker.t0 == base
        # the anchored schedule has consumed exactly the ticks that fit:
        # tick k fires at t0 + (k+1)*interval, so 59 fit in 29.6s of 0.5s
        assert ticker.ticks == int((30.0 - base) / 0.5)
