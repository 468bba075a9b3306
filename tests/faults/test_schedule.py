"""Tests for fault specs, materialization, and the timeline."""

import numpy as np
import pytest

from repro.core.rng import RandomStreams
from repro.faults import (
    KIND_CORE_LOSS,
    KIND_DEGRADE,
    KIND_OUTAGE,
    FaultSpec,
    FaultTimeline,
    materialize,
)


class TestSpecs:
    def test_one_shot_episode(self):
        spec = FaultSpec.one_shot("f", "accel", start_s=1.0, duration_s=0.5)
        assert materialize(spec, 10.0) == [(1.0, 1.5)]

    def test_one_shot_clipped_to_horizon(self):
        spec = FaultSpec.one_shot("f", "accel", start_s=9.0, duration_s=5.0)
        assert materialize(spec, 10.0) == [(9.0, 10.0)]

    def test_one_shot_outside_horizon_is_empty(self):
        spec = FaultSpec.one_shot("f", "accel", start_s=20.0, duration_s=1.0)
        assert materialize(spec, 10.0) == []

    def test_periodic_episodes(self):
        spec = FaultSpec.periodic("f", "link", start_s=0.0, period_s=2.0,
                                  duration_s=0.5)
        episodes = materialize(spec, 6.0)
        assert episodes == [(0.0, 0.5), (2.0, 2.5), (4.0, 4.5)]

    def test_periodic_requires_period(self):
        with pytest.raises(ValueError):
            FaultSpec(name="f", target="x", mode="periodic", period_s=0.0)

    def test_periodic_rejects_overlapping_episodes(self):
        with pytest.raises(ValueError, match="duration_s <= period_s"):
            FaultSpec.periodic("f", "x", start_s=0.0, period_s=1.0,
                               duration_s=1.5)
        # Back-to-back episodes ([0, 1), [1, 2), ...) do not overlap.
        spec = FaultSpec.periodic("f", "x", start_s=0.0, period_s=1.0,
                                  duration_s=1.0)
        assert materialize(spec, 3.0) == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_stochastic_requires_mtbf_mttr(self):
        with pytest.raises(ValueError):
            FaultSpec.stochastic("f", "x", mtbf_s=0.0, mttr_s=1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(name="f", target="x", mode="sometimes")

    def test_stochastic_is_deterministic_per_seed(self):
        spec = FaultSpec.stochastic("flaky", "link", mtbf_s=1.0, mttr_s=0.2)
        a = materialize(spec, 100.0, RandomStreams(7))
        b = materialize(spec, 100.0, RandomStreams(7))
        assert a == b
        c = materialize(spec, 100.0, RandomStreams(8))
        assert a != c

    def test_stochastic_independent_streams_per_fault(self):
        """Adding a second fault must not perturb the first one's draws."""
        streams = RandomStreams(7)
        spec = FaultSpec.stochastic("flaky", "link", mtbf_s=1.0, mttr_s=0.2)
        other = FaultSpec.stochastic("other", "accel", mtbf_s=2.0, mttr_s=0.1)
        alone = materialize(spec, 50.0, RandomStreams(7))
        materialize(other, 50.0, streams)
        together = materialize(spec, 50.0, streams)
        assert alone == together

    def test_stochastic_mean_downtime_tracks_mttr(self):
        spec = FaultSpec.stochastic("flaky", "link", mtbf_s=10.0, mttr_s=1.0)
        episodes = materialize(spec, 10_000.0, RandomStreams(3))
        down = sum(end - start for start, end in episodes)
        # Expected down fraction = MTTR / (MTBF + MTTR) ~ 9 %.
        assert 0.04 < down / 10_000.0 < 0.16


class TestTimeline:
    def _timeline(self):
        specs = [
            FaultSpec.one_shot("out", "accel", 1.0, 1.0, kind=KIND_OUTAGE),
            FaultSpec.one_shot("slow", "accel", 1.5, 2.0, kind=KIND_DEGRADE,
                              severity=2.5),
            FaultSpec.one_shot("cores", "snic-cpu", 0.5, 3.0,
                              kind=KIND_CORE_LOSS, severity=0.5),
        ]
        return FaultTimeline(specs, horizon_s=10.0)

    def test_active_filters_by_target_and_kind(self):
        tl = self._timeline()
        assert len(tl.active(1.6)) == 3
        assert len(tl.active(1.6, target="accel")) == 2
        assert len(tl.active(1.6, target="accel", kind=KIND_OUTAGE)) == 1
        assert tl.active(9.0) == []

    def test_severity_default_and_max(self):
        tl = self._timeline()
        assert tl.severity(1.6, "accel", KIND_DEGRADE, default=1.0) == 2.5
        assert tl.severity(0.1, "accel", KIND_DEGRADE, default=1.0) == 1.0

    def test_active_mask_vectorized(self):
        tl = self._timeline()
        times = np.array([0.0, 1.2, 1.9, 2.5, 4.0])
        mask = tl.active_mask(times, "accel", KIND_OUTAGE)
        assert mask.tolist() == [False, True, True, False, False]
