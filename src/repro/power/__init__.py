"""Power models and energy-efficiency accounting."""

from .energy import EnergyReport, efficiency_ratio
from .models import IDLE, ComponentLoad, ServerPowerModel, SnicPowerModel

__all__ = [
    "EnergyReport",
    "efficiency_ratio",
    "IDLE",
    "ComponentLoad",
    "ServerPowerModel",
    "SnicPowerModel",
]
