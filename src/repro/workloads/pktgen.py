"""DPDK-Pktgen-style packet generation (§3.4).

Open-loop generators producing packet arrival times and sizes: fixed-size
streams at a target rate (the Fig. 5 rate sweeps use MTU packets) and
the mixed-size PCAP distribution standing in for the CTU-Mixed-Capture-5
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..core.units import MTU, gbps_to_bytes_per_second


@dataclass(frozen=True)
class PacketSample:
    """Arrival schedule + sizes for one generation window."""

    arrivals: np.ndarray  # seconds
    sizes: np.ndarray  # payload bytes

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        return float(self.arrivals[-1]) if len(self.arrivals) else 0.0

    def offered_gbps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return float(self.sizes.sum()) * 8 / self.duration / 1e9


# CTU-Mixed-Capture-5-like mix: bimodal with small control packets and
# large data segments — the canonical datacenter shape (Benson et al.).
PCAP_MIX_SIZES = np.array([64, 128, 256, 512, 1024, 1500])
PCAP_MIX_WEIGHTS = np.array([0.30, 0.10, 0.08, 0.10, 0.12, 0.30])


def constant_size_stream(
    rate_pps: float,
    packet_bytes: int,
    count: int,
    rng: np.random.Generator,
    poisson: bool = True,
) -> PacketSample:
    """Fixed-size packets at ``rate_pps`` (Poisson or paced arrivals)."""
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    if packet_bytes < 1:
        raise ValueError("packet size must be >= 1 byte")
    mean_gap = 1.0 / rate_pps
    gaps = (
        rng.exponential(mean_gap, size=count)
        if poisson
        else np.full(count, mean_gap)
    )
    return PacketSample(
        arrivals=np.cumsum(gaps), sizes=np.full(count, packet_bytes, dtype=np.int64)
    )


def gbps_stream(
    gbps: float,
    packet_bytes: int,
    count: int,
    rng: np.random.Generator,
    poisson: bool = True,
) -> PacketSample:
    """Fixed-size packets at a target data rate in Gb/s."""
    rate_pps = gbps_to_bytes_per_second(gbps) / packet_bytes
    return constant_size_stream(rate_pps, packet_bytes, count, rng, poisson)


def pcap_mix_stream(
    gbps: float,
    count: int,
    rng: np.random.Generator,
) -> PacketSample:
    """Mixed-size packets at a target data rate (the Fig. 4 REM input)."""
    sizes = rng.choice(PCAP_MIX_SIZES, size=count, p=PCAP_MIX_WEIGHTS / PCAP_MIX_WEIGHTS.sum())
    mean_size = float((PCAP_MIX_SIZES * PCAP_MIX_WEIGHTS).sum() / PCAP_MIX_WEIGHTS.sum())
    rate_pps = gbps_to_bytes_per_second(gbps) / mean_size
    gaps = rng.exponential(1.0 / rate_pps, size=count)
    return PacketSample(arrivals=np.cumsum(gaps), sizes=sizes.astype(np.int64))


def payload_stream(
    sample: PacketSample,
    rng: np.random.Generator,
    text_fraction: float = 0.6,
    seed_fragments: Sequence[bytes] = (),
    seed_probability: float = 0.0,
) -> Iterator[bytes]:
    """Materialize payload bytes for a packet sample.

    Mixed text/binary content (matching the PCAP-mix character) with an
    optional probability of embedding an IDS seed fragment — used to give
    REM/Snort scans real matches at a controlled rate.
    """
    text = (
        b"GET /v2/object HTTP/1.1\r\nhost: svc.internal\r\n"
        b"x-request-id: 00000000\r\naccept: application/json\r\n\r\n"
    )
    for size in sample.sizes:
        size = int(size)
        if rng.random() < text_fraction:
            repeats = size // len(text) + 1
            payload = (text * repeats)[:size]
        else:
            payload = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        if seed_fragments and rng.random() < seed_probability:
            fragment = seed_fragments[int(rng.integers(0, len(seed_fragments)))]
            if len(fragment) < size:
                position = int(rng.integers(0, size - len(fragment)))
                payload = (
                    payload[:position] + fragment + payload[position + len(fragment):]
                )
        yield payload
