"""Benign traffic applications (the TServer's Apache / Nginx-RTMP / FTP).

The paper's TServer hosts three real servers that generate the benign
side of the dataset: HTTP traffic (Apache), video streaming (Nginx RTMP),
and file transfer (custom FTP server).  Each device container runs a
:class:`DeviceProfile` that opens the matching clients' sessions.  The
servers and the profile are
:class:`~repro.containers.container.Process` instances; every app speaks
through the simulated TCP stack, so benign flows have genuine
handshakes, segment sizes, and teardowns for the IDS to learn from.
"""

from repro.apps.device import DeviceProfile, TrafficMix
from repro.apps.dns import DnsServer, NtpServer, UdpChatter
from repro.apps.ftp import FtpClient, FtpServer
from repro.apps.http import HttpClient, HttpServer
from repro.apps.rtmp import RtmpClient, RtmpServer

__all__ = [
    "DeviceProfile",
    "DnsServer",
    "FtpClient",
    "FtpServer",
    "HttpClient",
    "HttpServer",
    "NtpServer",
    "RtmpClient",
    "RtmpServer",
    "TrafficMix",
    "UdpChatter",
]
