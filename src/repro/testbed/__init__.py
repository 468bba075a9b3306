"""Packet-accurate testbed: Fig. 3's system on the event kernel."""

from .eswitch import Destination, ESwitch, OperationMode
from .pcie import PcieLink
from .server import (
    CONSUME,
    REPLY,
    TO_HOST,
    EchoMeasurement,
    ProcessorComplex,
    SnicServer,
    consume_all,
    forward_all,
    reply_all,
    run_udp_echo_measurement,
)

__all__ = [
    "Destination",
    "ESwitch",
    "OperationMode",
    "PcieLink",
    "CONSUME",
    "REPLY",
    "TO_HOST",
    "EchoMeasurement",
    "ProcessorComplex",
    "SnicServer",
    "consume_all",
    "forward_all",
    "reply_all",
    "run_udp_echo_measurement",
]
