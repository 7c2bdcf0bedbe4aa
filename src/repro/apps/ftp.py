"""FTP server and client (the TServer's customized FTP-Server analogue).

Implements the classic two-channel FTP shape: a control connection on
port 21 carrying USER/PASS/PORT/RETR/226 exchanges, and a separate
active-mode data connection from the server's port 20 to a client-chosen
data port for the file bytes.  The multi-connection structure matters to
the IDS features (short-lived control dialogs next to bulk data flows).
"""

from __future__ import annotations

import random

from repro.containers.container import Process
from repro.sim.address import Ipv4Address
from repro.sim.node import Node
from repro.sim.tcp import TcpSocket

FTP_CONTROL_PORT = 21
FTP_DATA_PORT = 20


class FtpServer(Process):
    """An authenticating FTP server with a seeded catalogue of files."""

    name = "ftp-server"

    def __init__(
        self,
        port: int = FTP_CONTROL_PORT,
        n_files: int = 12,
        min_file_bytes: int = 50_000,
        max_file_bytes: int = 400_000,
        users: dict[str, str] | None = None,
        seed: int = 3,
    ) -> None:
        super().__init__()
        self.port = port
        rng = random.Random(seed)
        self.files = {
            f"firmware-{i}.bin": rng.randint(min_file_bytes, max_file_bytes)
            for i in range(n_files)
        }
        self.users = users or {"iot": "iot123", "anonymous": ""}
        self.transfers_completed = 0
        self.auth_failures = 0
        self._listener = None

    def on_start(self) -> None:
        self._listener = self.node.tcp.listen(self.port, self._on_accept)

    def on_stop(self) -> None:
        if self._listener is not None:
            self._listener.close()

    def file_names(self) -> list[str]:
        return sorted(self.files)

    def _on_accept(self, sock: TcpSocket) -> None:
        session = {"user": None, "authed": False, "data_port": None}
        sock.on_data = lambda s, p, n, a: self._on_command(s, p, session)
        sock.send(b"220 ddoshield-ftp ready\r\n")

    def _on_command(self, sock: TcpSocket, payload: bytes, session: dict) -> None:
        line = payload.decode("ascii", errors="replace").strip()
        verb, _, argument = line.partition(" ")
        verb = verb.upper()
        if verb == "USER":
            session["user"] = argument
            sock.send(b"331 password required\r\n")
        elif verb == "PASS":
            expected = self.users.get(session["user"] or "")
            if expected is not None and argument == expected:
                session["authed"] = True
                sock.send(b"230 login ok\r\n")
            else:
                self.auth_failures += 1
                sock.send(b"530 login incorrect\r\n")
        elif verb == "PORT":
            session["data_port"] = int(argument)
            sock.send(b"200 port accepted\r\n")
        elif verb == "RETR":
            self._retrieve(sock, argument, session)
        elif verb == "QUIT":
            sock.send(b"221 goodbye\r\n")
            sock.close()
        else:
            sock.send(b"502 command not implemented\r\n")

    def _retrieve(self, control: TcpSocket, filename: str, session: dict) -> None:
        if not session["authed"]:
            control.send(b"530 not logged in\r\n")
            return
        size = self.files.get(filename)
        if size is None:
            control.send(b"550 no such file\r\n")
            return
        if session["data_port"] is None:
            control.send(b"425 use PORT first\r\n")
            return
        control.send(b"150 opening data connection\r\n")
        assert control.remote_address is not None
        data_sock = self.node.tcp.socket()

        def on_established(s: TcpSocket) -> None:
            # Queue the whole file and close; TCP flushes before the FIN,
            # so the client's data-channel EOF marks transfer completion.
            s.send(length=size, app_data=("ftp-data", filename))
            s.close()
            self.transfers_completed += 1
            control.send(b"226 transfer complete\r\n")

        data_sock.connect(control.remote_address, session["data_port"], on_established)


class FtpClient:
    """Logs in and downloads a random file, one FTP session per call.

    Driven by a :class:`~repro.apps.device.DeviceProfile`, like
    :class:`~repro.apps.http.HttpClient`.
    """

    def __init__(
        self,
        server: Ipv4Address,
        files: list[str],
        port: int = FTP_CONTROL_PORT,
        user: str = "iot",
        password: str = "iot123",
        seed: int = 4,
    ) -> None:
        self.server = server
        self.port = port
        self.files = files
        self.user = user
        self.password = password
        self.rng = random.Random(seed)
        self.downloads_completed = 0
        self.bytes_downloaded = 0
        self.failed = 0

    def download_once(self, node: Node, filename: str | None = None) -> None:
        """Run one full control+data FTP session from ``node`` immediately."""
        chosen = filename if filename is not None else self.rng.choice(self.files)
        data_listener_port = node.tcp.allocate_port()
        received = {"bytes": 0, "eof": False}
        control = node.tcp.socket()

        def on_data_conn(data_sock: TcpSocket) -> None:
            def on_data(s: TcpSocket, payload: bytes, length: int, app_data: object) -> None:
                received["bytes"] += length
                self.bytes_downloaded += length

            def on_data_eof(s: TcpSocket) -> None:
                # Server FIN after in-order delivery = complete file.
                if not received["eof"]:
                    received["eof"] = True
                    self.downloads_completed += 1
                    control.send(b"QUIT\r\n")

            data_sock.on_data = on_data
            data_sock.on_close = on_data_eof

        data_listener = node.tcp.listen(data_listener_port, on_data_conn)

        def on_control_data(sock: TcpSocket, payload: bytes, length: int, app_data: object) -> None:
            message = payload.decode("ascii", errors="replace")
            code = message[:3]
            if code == "220":
                sock.send(f"USER {self.user}\r\n".encode())
            elif code == "331":
                sock.send(f"PASS {self.password}\r\n".encode())
            elif code == "230":
                sock.send(f"PORT {data_listener_port}\r\n".encode())
            elif code == "200":
                sock.send(f"RETR {chosen}\r\n".encode())
            elif code == "221":
                sock.close()
                data_listener.close()
            elif code in ("530", "550", "425", "502"):
                self.failed += 1
                sock.close()
                data_listener.close()

        control.on_data = on_control_data
        control.on_reset = lambda s: (data_listener.close(), self._count_failure())
        control.connect(self.server, self.port)

    def _count_failure(self) -> None:
        self.failed += 1
