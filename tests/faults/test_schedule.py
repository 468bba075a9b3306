"""Tests for fault specs, materialization, and the timeline."""

import numpy as np

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
