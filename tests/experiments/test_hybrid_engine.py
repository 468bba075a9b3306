"""Property tests for the hybrid analytic/simulation probe engine.

Two guarantees the report pipeline leans on:

* the validated analytic fast path only engages when the spot-check
  simulations agree with the model within tolerance — a disagreeing
  model must degrade the whole ladder back to batched simulation;
* engine selection never changes a headline number: the operating-point
  knee and the metrics measured there are identical with the hybrid
  engine on or off at tier-1 fidelity;
* a cached trust record saves simulated probes on a later measurement of
  the same model, and one the window simulations contradict is dropped.
"""

import dataclasses

import pytest

from repro.core import hybrid, instrument
from repro.core.cache import ResultCache, configure, get_cache
from repro.core.rng import RandomStreams
from repro.experiments import measurement
from repro.experiments.measurement import (
    estimate_capacity_rps,
    measure_operating_point,
    predict_fixed_rate,
    run_ladder,
    run_validated_ladder,
)
from repro.experiments.profiles import get_profile

N_REQUESTS = 4000
SAMPLES = 40


@pytest.fixture
def profile():
    return get_profile("udp:64", samples=SAMPLES)


def _ladder_rates(profile, platform="host"):
    """A grid straddling the knee window: below, inside, and above."""
    anchor = min(estimate_capacity_rps(profile, platform),
                 measurement._nic_cap_rps(profile))
    return [anchor * f for f in (0.2, 0.4, 0.6, 0.8, 0.95, 1.05, 1.3, 1.6)]


class TestValidatedLadder:
    def test_fast_path_engages_inside_tolerance(self, profile):
        rates = _ladder_rates(profile)
        before = instrument.value(instrument.ANALYTIC_HITS)
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        analytic = [m for m in results if m.extra.get("probe.analytic")]
        # udp:64 is a well-behaved M/G/1 curve: the spot checks agree,
        # so the out-of-window rungs are answered analytically.
        assert analytic
        assert (instrument.value(instrument.ANALYTIC_HITS) - before
                == len(analytic))

    def test_window_rungs_always_simulated(self, profile):
        rates = _ladder_rates(profile)
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        anchor = min(estimate_capacity_rps(profile, "host"),
                     measurement._nic_cap_rps(profile))
        for rate, metrics in zip(rates, results):
            factor = rate / anchor
            if hybrid.SIM_WINDOW_LO <= factor <= hybrid.SIM_WINDOW_HI:
                assert not metrics.extra.get("probe.analytic"), (
                    f"knee-window rung at factor {factor:.2f} was not "
                    f"simulated")

    def test_simulated_rungs_match_plain_ladder(self, profile):
        rates = _ladder_rates(profile)
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        reference = run_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        for got, want in zip(results, reference):
            if not got.extra.get("probe.analytic"):
                assert got.latency_p99 == want.latency_p99
                assert got.completed_rate == want.completed_rate

    def test_disagreeing_model_degrades_to_full_simulation(
            self, profile, monkeypatch):
        def utopian_prediction(profile_, platform, rate, n_requests=20_000):
            # A model claiming every rate is served perfectly at zero
            # latency: the low spot check fails the p99 tolerance and
            # the high spot check disagrees on overload acceptability.
            real = predict_fixed_rate(profile_, platform, rate, n_requests)
            return dataclasses.replace(
                real, completed_rate=rate, completed=n_requests, dropped=0,
                latency_p50=1e-9, latency_p99=1e-9, latency_mean=1e-9)

        monkeypatch.setattr(
            measurement, "predict_fixed_rate", utopian_prediction)
        rates = _ladder_rates(profile)
        before = instrument.value(instrument.ANALYTIC_HITS)
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(5), N_REQUESTS)
        # No rung trusted the analytic model ...
        assert instrument.value(instrument.ANALYTIC_HITS) == before
        assert not any(m.extra.get("probe.analytic") for m in results)
        # ... and the degraded ladder is exactly the plain simulation.
        reference = run_ladder(
            profile, "host", rates, RandomStreams(5), N_REQUESTS)
        assert ([m.latency_p99 for m in results]
                == [m.latency_p99 for m in reference])
        assert ([m.completed_rate for m in results]
                == [m.completed_rate for m in reference])


class TestEngineEquivalence:
    @pytest.mark.parametrize("key", ["udp:64", "redis:a"])
    def test_operating_point_identical_hybrid_on_off(self, key):
        profile = get_profile(key, samples=SAMPLES)
        points = {}
        for engine in ("sim", "hybrid"):
            points[engine] = measure_operating_point(
                profile, "host", RandomStreams(9), N_REQUESTS, engine=engine)
        assert points["hybrid"].capacity_rps == points["sim"].capacity_rps
        assert (points["hybrid"].metrics.latency_p99
                == points["sim"].metrics.latency_p99)
        assert (points["hybrid"].metrics.completed_rate
                == points["sim"].metrics.completed_rate)


class TestTrustRecordReuse:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        previous = get_cache()
        configure(ResultCache())
        yield
        configure(previous)

    @staticmethod
    def _measure(profile, engine="hybrid"):
        before = instrument.value(instrument.PROBES_SIMULATED)
        point = measure_operating_point(
            profile, "host", RandomStreams(13), N_REQUESTS, engine=engine)
        return point, instrument.value(instrument.PROBES_SIMULATED) - before

    @staticmethod
    def _trust_key(profile):
        anchor = min(estimate_capacity_rps(profile, "host"),
                     measurement._nic_cap_rps(profile))
        key = measurement._trust_key(profile, "host", N_REQUESTS,
                                     RandomStreams(13).root_seed, anchor)
        return key, anchor

    def test_warm_measurement_reuses_the_record(self, profile):
        cold, cold_simulated = self._measure(profile)
        found, record = get_cache().get(self._trust_key(profile)[0],
                                        count=False)
        assert found and isinstance(record, hybrid.TrustRecord)
        warm, warm_simulated = self._measure(profile)
        assert warm == cold
        assert warm_simulated < cold_simulated

    def test_contradicted_record_is_invalidated(self, profile, monkeypatch):
        sim_point, _ = self._measure(profile, engine="sim")

        def utopian_prediction(profile_, platform, rate, n_requests=20_000):
            # Serves every rate perfectly, so any simulated overloaded
            # rung contradicts it.
            real = predict_fixed_rate(profile_, platform, rate, n_requests)
            return dataclasses.replace(
                real, completed_rate=rate, completed=n_requests, dropped=0)

        monkeypatch.setattr(
            measurement, "predict_fixed_rate", utopian_prediction)
        key, anchor = self._trust_key(profile)
        # Promises analytic answers everywhere outside the two overloaded
        # rungs at load factors 1.09 and 1.26; trusting it would put the
        # knee on the top rung, which the model wrongly accepts.
        planted = hybrid.TrustRecord(anchor_rps=anchor, low_factor=1.0,
                                     high_factor=1.3)
        get_cache().put(key, planted)
        point, _ = self._measure(profile)
        assert point.capacity_rps == sim_point.capacity_rps
        found, record = get_cache().get(key, count=False)
        assert found and record != planted
