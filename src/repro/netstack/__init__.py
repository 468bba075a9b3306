"""Networking stacks: packets, links, UDP, TCP, DPDK."""

from .link import DuplexChannel, GilbertElliottLoss, Link
from .packet import Flow, Packet, format_ip, ip
from .udp import UdpEndpoint, UdpSocket, run_echo_server
from .tcp import TcpConnection, TcpEndpoint, TcpListener, TcpState
from .dpdk import PollModePort, RxRing, run_poll_loop

__all__ = [
    "DuplexChannel",
    "GilbertElliottLoss",
    "Link",
    "Flow",
    "Packet",
    "format_ip",
    "ip",
    "UdpEndpoint",
    "UdpSocket",
    "run_echo_server",
    "TcpConnection",
    "TcpEndpoint",
    "TcpListener",
    "TcpState",
    "PollModePort",
    "RxRing",
    "run_poll_loop",
]
