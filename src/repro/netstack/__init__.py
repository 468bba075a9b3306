"""Networking stacks: packets, links, TCP."""

from .link import GilbertElliottLoss, Link
from .packet import Flow, Packet, format_ip, ip
from .tcp import TcpConnection, TcpEndpoint, TcpListener, TcpState

__all__ = [
    "GilbertElliottLoss",
    "Link",
    "Flow",
    "Packet",
    "format_ip",
    "ip",
    "TcpConnection",
    "TcpEndpoint",
    "TcpListener",
    "TcpState",
]
