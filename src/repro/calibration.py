"""Calibration: the measured anchors that price work on each platform.

A simulator cannot re-derive silicon performance from first principles, so
this module is the single place where *measured* quantities from the paper
(and, where the paper is silent, from public datasheets and common
microbenchmark lore) become model coefficients:

* per-packet / per-byte cycle costs of each networking stack on each CPU
  (Key Observation 1 lives here: the SNIC's Arm cores pay several times
  the host's cycles to run the kernel TCP/UDP stack),
* cycles per *work unit* for every operation kind the function
  implementations count (ISA-extension effects — AES-NI, AVX-512/ISA-L,
  SSE4.2 CRC — appear as per-kind host discounts, per Key Observation 2),
* accelerator engine rates (the ~50 Gbps REM/compression caps of Key
  Observation 3), and
* fixed round-trip latency floors per stack (interrupt coalescing,
  scheduling, wire and switch time) that dominate tail latency at low
  load.

Everything downstream — queueing knees, saturation throughputs, p99
hockey-sticks, energy-efficiency ratios — is computed, not asserted.
EXPERIMENTS.md records which side of each reported number is anchored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np


@dataclass(frozen=True)
class StackCost:
    """CPU cost and latency floor of one networking stack on one platform."""

    per_packet_cycles: float
    per_byte_cycles: float
    # Fixed round-trip components (client, wire, NIC, interrupts) that do
    # not scale with load; modeled lognormal with the given mean and p99.
    base_rtt_mean_s: float
    base_rtt_p99_s: float
    # Backlog bound of the stack's ingress buffering (socket buffers for
    # kernel stacks, descriptor rings / QP depth for DPDK and RDMA), in
    # seconds of unfinished work.  Overload beyond this becomes packet
    # loss rather than unbounded delay — which is why measured p99 at the
    # saturation knee stays within a few hundred microseconds on both
    # platforms (Fig. 4) while throughputs differ by up to 9x.  The
    # effective limit is max(queue_limit_s, QUEUE_LIMIT_SERVICES x mean
    # service) since buffers always hold at least tens of requests.
    queue_limit_s: float = 2e-3
    # Fraction of nominal multi-core capacity the stack can actually use.
    # Kernel stacks on the SNIC's A72 cores serialize in softirq/memory
    # paths well before the cores saturate — this, not per-packet latency,
    # is the main source of the paper's 4-7x UDP throughput gap (§4 KO1).
    # The serialized share is folded into per-request service time.
    parallel_efficiency: float = 1.0


@dataclass(frozen=True)
class PlatformCalibration:
    """Everything needed to turn WorkUnits + packets into seconds."""

    name: str
    frequency_hz: float
    cores: int
    stacks: Mapping[str, StackCost]
    work_cycles: Mapping[str, float]

    def seconds_per_cycle(self) -> float:
        return 1.0 / self.frequency_hz

    def work_seconds(self, units) -> float:
        """Price a WorkUnits tally in seconds on this platform."""
        total_cycles = 0.0
        for kind, count in units.items():
            try:
                total_cycles += self.work_cycles[kind] * count
            except KeyError:
                raise KeyError(
                    f"platform {self.name!r} has no cycle cost for work kind {kind!r}"
                ) from None
        return total_cycles / self.frequency_hz

    def stack_seconds(self, stack: str, packet_bytes: int) -> float:
        """Effective per-packet stack time, including the serialized
        (softirq / memory-path) share expressed by parallel_efficiency."""
        cost = self.stacks[stack]
        cycles = cost.per_packet_cycles + cost.per_byte_cycles * packet_bytes
        return cycles / self.frequency_hz / cost.parallel_efficiency


def lognormal_params(mean: float, p99: float):
    """(mu, sigma) of a lognormal with the given mean and 99th percentile."""
    if p99 <= mean:
        raise ValueError("p99 must exceed the mean")
    # mean = exp(mu + s^2/2); p99 = exp(mu + 2.326*s)
    # => ln(p99) - ln(mean) = 2.326*s - s^2/2 ; solve the quadratic in s.
    gap = np.log(p99) - np.log(mean)
    z = 2.326347874
    disc = z * z - 2.0 * gap
    if disc <= 0:
        sigma = z  # extremely skewed; clamp
    else:
        sigma = z - np.sqrt(disc)
    mu = np.log(mean) - sigma * sigma / 2.0
    return float(mu), float(sigma)


def base_rtt_sampler(cost: StackCost):
    """Sampler of the fixed RTT floor for a stack."""
    mu, sigma = lognormal_params(cost.base_rtt_mean_s, cost.base_rtt_p99_s)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(mu, sigma, size=n)

    return sample


# ---------------------------------------------------------------------------
# Host: Intel Xeon Gold 6140, pinned at 2.1 GHz, 8 cores used (§3.1, §3.4)
# ---------------------------------------------------------------------------

HOST = PlatformCalibration(
    name="host",
    frequency_hz=2.1e9,
    cores=8,
    stacks={
        # Kernel stacks: syscall + skb + copy + interrupt amortization.
        "udp": StackCost(11_000, 2.5, base_rtt_mean_s=48e-6, base_rtt_p99_s=140e-6,
                         queue_limit_s=450e-6),
        "tcp": StackCost(15_000, 3.0, base_rtt_mean_s=60e-6, base_rtt_p99_s=180e-6,
                         queue_limit_s=500e-6),
        # Poll-mode userspace driver: no syscalls, no interrupts.
        "dpdk": StackCost(100, 0.04, base_rtt_mean_s=2.6e-6, base_rtt_p99_s=4.4e-6,
                          queue_limit_s=40e-6),
        # NIC-offloaded transport; host path crosses PCIe twice per RTT.
        "rdma": StackCost(800, 0.06, base_rtt_mean_s=3.6e-6, base_rtt_p99_s=6.0e-6,
                          queue_limit_s=20e-6),
    },
    work_cycles={
        "instr": 1.0,
        "mem_stream_byte": 0.06,
        "mem_random_access": 20.0,
        "hash_probe": 45.0,
        "kv_op": 1_200.0,
        "kv_value_byte": 0.08,
        "kv_value_byte_cold": 0.10,  # big working sets still fit the LLC
        "log_byte": 0.35,
        "dfa_byte": 1.6,  # Hyperscan-class SIMD scanning
        "dfa_deep_byte": 19.0,  # bytes spent in verification states
        "regex_report": 120.0,
        "lz_byte": 7.4,  # ISA-L-class vectorized DEFLATE level 9
        "lz_match_search": 0.52,
        "huffman_symbol": 0.5,
        "crc_byte": 0.15,  # SSE4.2 CRC32
        "aes_block": 42.0,  # AES-NI incl. OpenSSL per-call overhead
        "sha1_block": 520.0,  # no SHA-NI on Skylake-SP
        "rsa_limb_mul": 2.35,
        "bm25_posting": 36.0,
        "bm25_query_term": 260.0,
        "nat_lookup": 60.0,
        "nat_lookup_cold": 185.0,  # 1 M-entry table spills to DRAM
        "nat_rewrite": 35.0,
        "flow_lookup": 90.0,
        "flow_upcall": 12_000.0,
        "io_request": 28_000.0,  # block layer + initiator + IRQ per I/O
        "io_block_byte": 0.02,
        "pkt_touch_byte": 0.05,
    },
)

# ---------------------------------------------------------------------------
# SNIC CPU: 8x Arm Cortex-A72 @ 2.0 GHz on the BlueField-2 (Table 1)
# ---------------------------------------------------------------------------
#
# The per-kind ratios against the host encode three effects: scalar CPI gap
# (~2x), the missing ISA extensions (AES-NI, AVX-512, SSE4.2), and the much
# weaker memory subsystem (single DDR4-3200 channel vs six DDR4-2666).

SNIC_CPU = PlatformCalibration(
    name="snic-cpu",
    frequency_hz=2.0e9,
    cores=8,
    stacks={
        # Kernel stacks dominate the A72s (Key Observation 1): ~2x the
        # host's per-packet cycles AND a softirq/memory-path parallel
        # efficiency of ~0.30, which together reproduce the paper's UDP
        # microbenchmark (76.5-85.7 % lower throughput).
        "udp": StackCost(19_000, 5.0, base_rtt_mean_s=55e-6, base_rtt_p99_s=160e-6,
                         queue_limit_s=450e-6, parallel_efficiency=0.33),
        "tcp": StackCost(30_000, 6.0, base_rtt_mean_s=68e-6, base_rtt_p99_s=200e-6,
                         queue_limit_s=500e-6, parallel_efficiency=0.30),
        # DPDK is lean on both ISAs; the A72 still reaches 100 Gbps with
        # 1 KB packets on one core (§3.3).
        "dpdk": StackCost(112, 0.042, base_rtt_mean_s=3.0e-6, base_rtt_p99_s=5.2e-6,
                          queue_limit_s=40e-6),
        # The SNIC CPU sits next to the NIC: shorter path than the host
        # (the paper: up to 1.4x host throughput, 14.6-24.3 % lower p99).
        "rdma": StackCost(565, 0.05, base_rtt_mean_s=2.85e-6, base_rtt_p99_s=4.7e-6,
                          queue_limit_s=20e-6),
    },
    work_cycles={
        "instr": 2.0,
        "mem_stream_byte": 0.16,
        "mem_random_access": 46.0,
        "hash_probe": 105.0,
        "kv_op": 1_500.0,  # request dispatch leans on the nearby NIC
        "kv_value_byte": 0.20,
        "kv_value_byte_cold": 0.42,  # large working sets thrash the A72 caches
        "log_byte": 0.95,
        "dfa_byte": 4.4,  # scalar table-driven scanning
        "dfa_deep_byte": 42.0,
        "regex_report": 300.0,
        "lz_byte": 21.0,
        "lz_match_search": 70.0,
        "huffman_symbol": 3.0,
        "crc_byte": 1.1,
        "aes_block": 95.0,  # ARMv8 CE helps, still far from AES-NI
        "sha1_block": 1_150.0,
        "rsa_limb_mul": 6.0,
        "bm25_posting": 50.0,  # simple float math: the A72's best case
        "bm25_query_term": 400.0,
        "nat_lookup": 140.0,
        "nat_lookup_cold": 560.0,
        "nat_rewrite": 80.0,
        "flow_lookup": 210.0,
        "flow_upcall": 27_000.0,
        "io_request": 36_000.0,  # block layer + initiator per I/O
        "io_block_byte": 0.05,
        "pkt_touch_byte": 0.13,
    },
)

PLATFORMS: Dict[str, PlatformCalibration] = {
    "host": HOST,
    "snic-cpu": SNIC_CPU,
}


# ---------------------------------------------------------------------------
# Accelerator engine rates (§2.2 and Key Observations 2-3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcceleratorCalibration:
    """Measured engine rates for one BlueField-2 accelerator."""

    # Sustained payload bytes/second per algorithm or mode.
    bytes_per_s: Mapping[str, float] = field(default_factory=dict)
    # Sustained operations/second for op-rate modes (public-key crypto).
    ops_per_s: Mapping[str, float] = field(default_factory=dict)
    setup_latency_s: float = 10e-6
    max_batch: int = 32
    # SNIC CPU cores needed to stage buffers and submit tasks (§3.4).
    staging_cores: int = 2


ACCELERATORS: Dict[str, AcceleratorCalibration] = {
    # ~50 Gbps regardless of rule set (Key Observation 3 / Fig. 5).
    "rem": AcceleratorCalibration(
        bytes_per_s={"default": 7.2e9},
        setup_latency_s=2.5e-6,
        max_batch=64,
        staging_cores=2,
    ),
    # Deflate engine, also capped near 50 Gbps.
    "compression": AcceleratorCalibration(
        bytes_per_s={"deflate": 7.8e9},
        setup_latency_s=6e-6,
        max_batch=32,
        staging_cores=2,
    ),
    # PKA block: bulk rates chosen so the host's ISA-assisted OpenSSL wins
    # AES (+38.5 %) and RSA (+91.2 %) while the engine wins SHA-1 (host is
    # 47.2 % lower) — Key Observation 2.
    "crypto": AcceleratorCalibration(
        bytes_per_s={"aes": 5.05e9, "sha1": 4.12e9},
        ops_per_s={"rsa2048": 4_400.0},
        setup_latency_s=6e-6,
        max_batch=32,
        staging_cores=1,
    ),
}


# ---------------------------------------------------------------------------
# Cluster node profiles: which platform plays which role on each node kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeProfile:
    """Calibrated behaviour of one :data:`repro.hardware.NODE_SPECS` entry.

    The descriptive spec says which parts make up the node; this record
    says how they are *used*: which measured platform serves application
    requests (and with how many cores), which platform and stack carry the
    cluster transport, whether ingress crosses PCIe before reaching the
    serving complex, and which fixed-function engines are available for
    tax offload.  The asymmetry is the paper's tax story at rack scale —
    an on-path SNIC runs the transport on its Arm cores and gives the
    host its cores back, a plain NIC spends host cores on the same work.
    """

    key: str
    spec_key: str
    serve_platform: str       # PLATFORMS key executing application work
    serve_cores: int
    transport_platform: str   # PLATFORMS key running the fabric transport
    transport_stack: str      # StackCost key pricing per-packet ingest
    transport_cores: int
    pcie_hop: bool            # ingress crosses PCIe after the transport
    accelerators: Tuple[str, ...] = ()
    # Wall power: floor when idle, additional span at full utilization.
    idle_w: float = 0.0
    active_span_w: float = 0.0

    @property
    def platform(self) -> PlatformCalibration:
        return PLATFORMS[self.serve_platform]

    def transport_packet_seconds(self, wire_bytes: int) -> float:
        """One-core per-packet ingest cost of the cluster transport."""
        platform = PLATFORMS[self.transport_platform]
        return platform.stack_seconds(self.transport_stack, wire_bytes)

    def power_w(self, utilization: float) -> float:
        u = min(max(utilization, 0.0), 1.0)
        return self.idle_w + u * self.active_span_w


NODE_PROFILES: Dict[str, NodeProfile] = {
    # Paper testbed at rack scale: on-path BlueField-2 runs the transport
    # on its Arm cores; all eight host cores serve requests.  Ingress pays
    # the PCIe hop (§2.3 on-path).  Idle wall power already includes the
    # installed SNIC (§4).
    "host+bf2": NodeProfile(
        key="host+bf2", spec_key="host+bf2",
        serve_platform="host", serve_cores=8,
        transport_platform="snic-cpu", transport_stack="dpdk",
        transport_cores=2, pcie_hop=True,
        accelerators=("rem", "compression", "crypto"),
        idle_w=252.0,
        active_span_w=8 * 10.5 + 28.0 + 8 * 0.50,
    ),
    # TCO baseline: a plain ConnectX-6 Dx; the transport competes with
    # the application for host cores (the datacenter tax, unpaid-for).
    "host-only": NodeProfile(
        key="host-only", spec_key="host-only",
        serve_platform="host", serve_cores=6,
        transport_platform="host", transport_stack="dpdk",
        transport_cores=2, pcie_hop=False,
        accelerators=(),
        idle_w=252.0 - 29.0 + 16.0,
        active_span_w=8 * 10.5 + 28.0,
    ),
    # Headless SNIC node (Lovelock direction): the Arm complex both
    # transports and serves; tiny power span, tiny capacity.
    "all-snic": NodeProfile(
        key="all-snic", spec_key="all-snic",
        serve_platform="snic-cpu", serve_cores=6,
        transport_platform="snic-cpu", transport_stack="dpdk",
        transport_cores=2, pcie_hop=False,
        accelerators=("rem", "compression", "crypto"),
        idle_w=29.0,
        active_span_w=8 * 0.50 + sum((1.3, 1.2, 0.9)),
    ),
}


# ---------------------------------------------------------------------------
# Power model anchors (§3.2, §4 Fig. 6)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerCalibration:
    # Whole-server wall power with the SNIC installed, everything idle.
    server_idle_w: float = 252.0
    # The SNIC alone, idle (custom riser measurement).
    snic_idle_w: float = 29.0
    # A comparable standard NIC (ConnectX-6 Dx), idle.
    nic_idle_w: float = 16.0
    # Host package active power per fully-busy core (incl. uncore share).
    host_core_active_w: float = 10.5
    # DRAM + fans + VRs scale mildly with host activity.
    host_platform_active_w: float = 28.0
    # SNIC Arm core active power (8 cores ~= 4 W, §4: SNIC active <= 5.4 W)
    snic_core_active_w: float = 0.50
    # Accelerator engines at full tilt.
    snic_accel_active_w: Mapping[str, float] = field(
        default_factory=lambda: {"rem": 1.3, "compression": 1.2, "crypto": 0.9}
    )
    # Host idle-power reduction when the ondemand governor parks it while
    # the SNIC serves traffic (§3.1).
    host_ondemand_savings_w: float = 6.0
    # A programmed accelerator engine draws static power even between
    # tasks (rules loaded, engine clocked) — visible in Table 4's 254.5 W
    # SNIC-processing figure at only 0.76 Gb/s of load.
    snic_accel_engaged_w: Mapping[str, float] = field(
        default_factory=lambda: {"rem": 2.2, "compression": 2.0, "crypto": 1.2}
    )
    # Poll-mode cores spin even when idle; empty polls hit cache and draw
    # a fraction of full-load core power (Table 4: host REM at ~1 % load
    # draws 26 W, not the ~110 W of 8 saturated cores).
    dpdk_spin_fraction: float = 0.25


POWER = PowerCalibration()


# ---------------------------------------------------------------------------
# Misc anchors
# ---------------------------------------------------------------------------

# Representative datacenter packet sizes (§3.3, citing Benson et al.).
PACKET_SIZES = {"small": 64, "large": 1024}

# The paper's line rate.
LINE_RATE_GBPS = 100.0
