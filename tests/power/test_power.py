"""Tests for power models and energy accounting."""

import numpy as np
import pytest

from repro.calibration import POWER
from repro.power import (
    IDLE,
    ComponentLoad,
    EnergyReport,
    ServerPowerModel,
    SnicPowerModel,
    efficiency_ratio,
)


class TestComponentLoad:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentLoad(host_busy_cores=-1)
        with pytest.raises(ValueError):
            ComponentLoad(accel_utilization={"rem": 1.5})

    def test_idle_constant(self):
        assert IDLE.host_busy_cores == 0.0


class TestServerPowerModel:
    def test_idle_is_252(self):
        assert ServerPowerModel().power(IDLE) == pytest.approx(252.0)

    def test_nic_server_idle_lower(self):
        """Swapping the SNIC (29 W) for a plain NIC (16 W) drops idle."""
        nic_model = ServerPowerModel(has_snic=False)
        assert nic_model.power(IDLE) == pytest.approx(252.0 - 29.0 + 16.0)

    def test_host_cores_add_power(self):
        model = ServerPowerModel()
        full = model.power(ComponentLoad(host_busy_cores=8))
        assert 330 <= full <= 252 + 151  # within the paper's active ceiling

    def test_power_monotone_in_cores(self):
        model = ServerPowerModel()
        powers = [model.power(ComponentLoad(host_busy_cores=c)) for c in range(9)]
        assert powers == sorted(powers)

    def test_ondemand_parking_saves(self):
        model = ServerPowerModel()
        parked = model.power(ComponentLoad(host_parked=True))
        assert parked == pytest.approx(252.0 - POWER.host_ondemand_savings_w)

    def test_snic_activity_visible_in_server_power(self):
        model = ServerPowerModel()
        busy = model.power(ComponentLoad(snic_busy_cores=8))
        assert busy == pytest.approx(252.0 + 8 * POWER.snic_core_active_w)


class TestSnicPowerModel:
    def test_idle_is_29(self):
        assert SnicPowerModel().power(IDLE) == pytest.approx(29.0)

    def test_active_ceiling_respects_paper(self):
        """§4: the SNIC consumes at most ~5.4 W above idle."""
        load = ComponentLoad(
            snic_busy_cores=8,
            accel_utilization={"rem": 1.0},
            accel_engaged=frozenset({"rem"}),
        )
        active = SnicPowerModel().active_power(load)
        assert 5.0 <= active <= 8.0

    def test_engaged_engine_draws_static_power(self):
        model = SnicPowerModel()
        engaged = model.power(ComponentLoad(accel_engaged=frozenset({"rem"})))
        assert engaged > 29.0


class TestEnergy:
    def test_efficiency(self):
        report = EnergyReport("x", throughput=50.0, total_power_w=250.0)
        assert report.efficiency == pytest.approx(0.2)

    def test_efficiency_ratio(self):
        host = EnergyReport("h", 10.0, 360.0)
        snic = EnergyReport("s", 35.0, 255.0)
        assert efficiency_ratio(snic, host) == pytest.approx((35 / 255) / (10 / 360))
