"""Tests for the offload advisor and the load balancer (§5.3)."""

import numpy as np
import pytest

from repro.experiments.measurement import measure_operating_point
from repro.experiments.profiles import get_profile
from repro.core.rng import RandomStreams
from repro.offload import (
    BalancerConfig,
    hardware_balancer,
    predict_platform,
    recommend,
    simulate_balancer,
    snic_cpu_balancer,
)


class TestAdvisor:
    def test_prediction_tracks_measurement(self):
        """Strategy 2: the analytic predictor must agree with the measured
        knee within ~35 % — that is what makes it usable for placement."""
        streams = RandomStreams(9)
        for key, platform in [("redis:a", "host"), ("udp:64", "snic-cpu"),
                              ("nat:10k", "host")]:
            profile = get_profile(key, samples=60)
            predicted = predict_platform(profile, platform).capacity_rps
            measured = measure_operating_point(profile, platform, streams, 6000)
            assert predicted == pytest.approx(measured.capacity_rps, rel=0.35), key

    def test_rem_placement_depends_on_ruleset(self):
        """KO4 via the advisor: image -> accelerator; with a tight SLO the
        executable rule set stays on the host (the accel batching latency
        violates it)."""
        image = recommend(get_profile("rem:file_image", samples=60))
        assert image.platform == "snic-accel"
        exe_tight = recommend(
            get_profile("rem:file_executable", samples=60),
            required_rps=5e6, slo_p99=10e-6,
        )
        assert exe_tight.platform == "host"

    def test_rate_requirement_forces_host(self):
        """The accelerator caps near 50 Gb/s; demanding more forces host
        processing for the cheap rule sets."""
        profile = get_profile("rem:file_executable", samples=60)
        decision = recommend(profile, required_rps=10e6)  # ~66 Gb/s of pcap mix
        assert decision.platform == "host"

    def test_infeasible_falls_back_to_fastest(self):
        profile = get_profile("udp:64", samples=20)
        decision = recommend(profile, required_rps=1e9)
        assert decision.platform == "host"
        assert "nothing meets" in decision.reason

    def test_prefer_offload_flag(self):
        profile = get_profile("fio:read", samples=40)
        offloaded = recommend(profile, prefer_offload=True)
        assert offloaded.platform == "snic-cpu"


class TestLoadBalancer:
    SNIC_SERVICE = 1.2e-6
    HOST_SERVICE = 0.7e-6

    def _run(self, config, rate=9e6, n=40_000, seed=0):
        return simulate_balancer(config, rate, n, np.random.default_rng(seed))

    def test_underload_stays_on_snic(self):
        config = hardware_balancer(self.SNIC_SERVICE, self.HOST_SERVICE)
        outcome = self._run(config, rate=1e6)
        assert outcome.host_fraction < 0.02
        assert outcome.loss_fraction == 0.0

    def test_overload_spills_to_host(self):
        config = hardware_balancer(self.SNIC_SERVICE, self.HOST_SERVICE)
        outcome = self._run(config, rate=9e6)
        assert outcome.host_fraction > 0.1

    def test_snic_cpu_balancer_monitoring_tax(self):
        """§5.3: monitoring at high rates consumes a large share of the
        SNIC CPU."""
        config = snic_cpu_balancer(self.SNIC_SERVICE, self.HOST_SERVICE)
        outcome = self._run(config, rate=9e6)
        assert outcome.snic_monitor_utilization > 0.25

    def test_hardware_balancer_beats_snic_cpu_on_p99(self):
        """§5.3: the CPU implementation cannot redirect fast enough."""
        cpu = self._run(snic_cpu_balancer(self.SNIC_SERVICE, self.HOST_SERVICE))
        hw = self._run(hardware_balancer(self.SNIC_SERVICE, self.HOST_SERVICE))
        assert hw.p99_latency_s < 0.7 * cpu.p99_latency_s

    def test_reaction_delay_hurts_tail(self):
        slow = BalancerConfig(
            self.SNIC_SERVICE, self.HOST_SERVICE, reaction_delay_s=200e-6
        )
        fast = BalancerConfig(
            self.SNIC_SERVICE, self.HOST_SERVICE, reaction_delay_s=0.0
        )
        assert (
            self._run(slow, rate=8e6).p99_latency_s
            > self._run(fast, rate=8e6).p99_latency_s
        )

    def test_drops_only_when_both_paths_full(self):
        config = hardware_balancer(
            self.SNIC_SERVICE, self.HOST_SERVICE,
            snic_queue_limit_s=20e-6, host_queue_limit_s=20e-6,
        )
        outcome = self._run(config, rate=2.5e7)
        assert outcome.loss_fraction > 0.0

    def test_conservation(self):
        config = hardware_balancer(self.SNIC_SERVICE, self.HOST_SERVICE)
        outcome = self._run(config, rate=9e6, n=10_000)
        assert outcome.sent_to_snic + outcome.sent_to_host + outcome.dropped == 10_000
