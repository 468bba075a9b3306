"""Tests for the SNIC health model, including its vectorized fast path."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec, FaultTimeline, SnicHealth

HORIZON_S = 10.0
KINDS = ("outage", "degrade", "core-loss")


class TestSnicHealth:
    def test_timestamp_queries(self):
        specs = [
            FaultSpec.one_shot("out", "snic", 1.0, 1.0, kind="outage"),
            FaultSpec.one_shot("hot", "snic", 3.0, 1.0, kind="degrade",
                              severity=3.0),
        ]
        health = SnicHealth(FaultTimeline(specs, horizon_s=10.0), target="snic")
        assert health.available(0.5)
        assert not health.available(1.5)
        assert health.unavailable_until(1.5) == 2.0
        assert health.unavailable_until(0.5) == 0.5
        assert health.service_factor(1.5) == float("inf")
        assert health.service_factor(3.5) == 3.0
        assert health.service_factor(5.0) == 1.0
        assert health.outage_windows() == [(1.0, 2.0)]


@st.composite
def fault_specs(draw, index):
    """One random one-shot spec: any window, kind, severity and target."""
    name = f"f{index}"
    target = draw(st.sampled_from(("snic", "snic", "other")))
    kind = draw(st.sampled_from(KINDS))
    if kind == "degrade":
        severity = draw(st.floats(min_value=0.5, max_value=4.0))
    else:
        severity = draw(st.floats(min_value=0.0, max_value=1.0))
    start = draw(st.floats(min_value=0.0, max_value=HORIZON_S))
    duration = draw(st.floats(min_value=0.0, max_value=HORIZON_S))
    return FaultSpec.one_shot(name, target, start, duration, kind=kind,
                              severity=severity)


@st.composite
def timelines(draw):
    count = draw(st.integers(min_value=0, max_value=5))
    specs = [draw(fault_specs(index)) for index in range(count)]
    return FaultTimeline(specs, HORIZON_S)


class TestServiceProfileOracle:
    """``service_profile`` must equal the scalar methods element-wise."""

    @given(timelines())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_methods(self, timeline):
        health = SnicHealth(timeline, target="snic")
        # A regular grid plus every episode boundary, where the
        # half-open [start, end) comparisons are easiest to get wrong.
        edges = [edge for spec in timeline.specs
                 for episode in timeline.episodes(spec.name)
                 for edge in episode]
        times = np.concatenate([np.linspace(0.0, HORIZON_S, 257),
                                np.asarray(edges, dtype=float)])
        available, factor, until = health.service_profile(times)
        for i, t in enumerate(times.tolist()):
            assert available[i] == health.available(t), t
            assert until[i] == health.unavailable_until(t), t
            if available[i]:
                assert factor[i] == health.service_factor(t), t
