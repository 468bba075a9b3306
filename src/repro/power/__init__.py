"""Power models and energy-efficiency accounting."""

from .energy import EnergyReport, efficiency_ratio, energy_per_request
from .models import IDLE, ComponentLoad, ServerPowerModel, SnicPowerModel

__all__ = [
    "EnergyReport",
    "efficiency_ratio",
    "energy_per_request",
    "IDLE",
    "ComponentLoad",
    "ServerPowerModel",
    "SnicPowerModel",
]
