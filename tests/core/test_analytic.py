"""Tests for the closed-form queueing estimators behind the rate ladders."""

import numpy as np
import pytest

from repro.core.analytic import (
    batch_capacity,
    erlang_c,
    mg1_sojourn_p99,
    mg1_wait_mean,
    mmc_wait_mean,
    sharded_capacity,
)
from repro.core.queueing import simulate_gg1


class TestErlangC:
    def test_single_server_equals_utilization(self):
        # M/M/1: P(wait) = rho exactly.
        assert erlang_c(1, 0.3) == pytest.approx(0.3)
        assert erlang_c(1, 0.95) == pytest.approx(0.95)

    def test_saturated_always_waits(self):
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 9.0) == 1.0

    def test_idle_never_waits(self):
        assert erlang_c(8, 0.0) == 0.0

    def test_more_servers_wait_less(self):
        # Same per-server utilization, more servers -> less waiting
        # (economy of scale, a classic Erlang C property).
        assert erlang_c(16, 12.8) < erlang_c(4, 3.2) < erlang_c(1, 0.8)

    def test_known_value(self):
        # c=2, a=1 (rho=0.5): C = 1/3 by hand.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -0.5)


class TestMMc:
    def test_mm1_closed_form(self):
        # M/M/1: Wq = rho * S / (1 - rho).
        rate, service = 900.0, 1e-3
        rho = rate * service
        expected = rho * service / (1.0 - rho)
        assert mmc_wait_mean(rate, service, 1) == pytest.approx(expected)

    def test_unstable_is_infinite(self):
        assert mmc_wait_mean(2000.0, 1e-3, 1) == float("inf")

    def test_zero_rate_no_wait(self):
        assert mmc_wait_mean(0.0, 1e-3, 4) == 0.0


class TestMG1:
    def test_exponential_service_matches_mm1(self):
        # scv=1 reduces P-K to the M/M/1 mean wait.
        assert mg1_wait_mean(500.0, 1e-3, 1.0) == pytest.approx(
            mmc_wait_mean(500.0, 1e-3, 1))

    def test_deterministic_service_halves_wait(self):
        # scv=0 gives exactly half the exponential wait (P-K).
        assert mg1_wait_mean(500.0, 1e-3, 0.0) == pytest.approx(
            0.5 * mg1_wait_mean(500.0, 1e-3, 1.0))

    def test_unstable_is_infinite(self):
        assert mg1_wait_mean(1500.0, 1e-3, 1.0) == float("inf")
        assert mg1_sojourn_p99(1500.0, 1e-3, 1.0) == float("inf")

    def test_idle_p99_is_service(self):
        assert mg1_sojourn_p99(0.0, 1e-3, 1.0) == pytest.approx(1e-3)

    def test_p99_estimate_tracks_simulation(self):
        # The tail approximation should land within ~35% of a simulated
        # M/M/1 p99 at moderate load — the hybrid engine's p99_tolerance.
        rate, service = 700.0, 1e-3
        outcome = simulate_gg1(
            rate, lambda r, n: r.exponential(service, size=n),
            200_000, np.random.default_rng(3))
        simulated = float(np.percentile(outcome.sojourns, 99.0))
        analytic = mg1_sojourn_p99(rate, service, 1.0)
        assert abs(analytic - simulated) / simulated < 0.35


class TestCapacities:
    def test_sharded_capacity_scales_with_cores(self):
        assert sharded_capacity(1e-3, 8) == pytest.approx(8_000.0)

    def test_batch_capacity_amortizes_setup(self):
        # Full batches amortize setup: capacity approaches 1/per_item.
        small = batch_capacity(1e-3, 1e-5, 4)
        large = batch_capacity(1e-3, 1e-5, 128)
        assert small < large < 1.0 / 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            sharded_capacity(0.0, 4)
        with pytest.raises(ValueError):
            sharded_capacity(1e-3, 0)
        with pytest.raises(ValueError):
            batch_capacity(1e-3, 1e-5, 0)
        with pytest.raises(ValueError):
            batch_capacity(0.0, 0.0, 8)
