"""Energy-efficiency computation (Fig. 6).

The paper defines energy efficiency as throughput divided by system-wide
energy consumption; for a fixed measurement window this reduces to
throughput per watt, and the comparison between platforms reduces to the
ratio of those quotients.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyReport:
    """One platform's power/efficiency summary at an operating point."""

    label: str
    throughput: float  # requests/s or Gb/s, caller-consistent
    total_power_w: float
    device_power_w: float = 0.0  # the (S)NIC alone
    idle_power_w: float = 0.0

    @property
    def active_power_w(self) -> float:
        return self.total_power_w - self.idle_power_w

    @property
    def efficiency(self) -> float:
        """Throughput per watt (throughput / energy per second)."""
        if self.total_power_w <= 0:
            return 0.0
        return self.throughput / self.total_power_w


def efficiency_ratio(snic: EnergyReport, host: EnergyReport) -> float:
    """SNIC-processing efficiency normalized to host-processing (Fig. 6)."""
    if host.efficiency == 0:
        return float("inf")
    return snic.efficiency / host.efficiency

