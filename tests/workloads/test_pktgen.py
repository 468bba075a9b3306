"""Tests for the packet generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import pktgen


class TestConstantSizeStream:
    def test_offered_rate_matches(self):
        rng = np.random.default_rng(0)
        sample = pktgen.constant_size_stream(1e6, 512, 20_000, rng)
        measured = len(sample) / sample.duration
        assert measured == pytest.approx(1e6, rel=0.05)

    def test_paced_arrivals_are_uniform(self):
        rng = np.random.default_rng(0)
        sample = pktgen.constant_size_stream(100.0, 64, 10, rng, poisson=False)
        gaps = np.diff(sample.arrivals)
        assert gaps == pytest.approx(np.full(9, 0.01))

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            pktgen.constant_size_stream(0, 64, 10, rng)
        with pytest.raises(ValueError):
            pktgen.constant_size_stream(10, 0, 10, rng)

    def test_gbps_stream_hits_target(self):
        rng = np.random.default_rng(1)
        sample = pktgen.gbps_stream(10.0, 1024, 20_000, rng)
        assert sample.offered_gbps() == pytest.approx(10.0, rel=0.05)


class TestPcapMix:
    def test_size_distribution(self):
        rng = np.random.default_rng(2)
        sample = pktgen.pcap_mix_stream(10.0, 50_000, rng)
        sizes, counts = np.unique(sample.sizes, return_counts=True)
        assert set(sizes) <= set(pktgen.PCAP_MIX_SIZES)
        # the two dominant classes: 64 B and MTU
        fractions = dict(zip(sizes, counts / counts.sum()))
        assert fractions[64] == pytest.approx(0.30, abs=0.02)
        assert fractions[1500] == pytest.approx(0.30, abs=0.02)

    def test_target_rate(self):
        rng = np.random.default_rng(3)
        sample = pktgen.pcap_mix_stream(20.0, 50_000, rng)
        assert sample.offered_gbps() == pytest.approx(20.0, rel=0.08)


class TestPayloadStream:
    def test_sizes_respected(self):
        rng = np.random.default_rng(8)
        sample = pktgen.pcap_mix_stream(10.0, 200, rng)
        payloads = list(pktgen.payload_stream(sample, rng))
        assert [len(p) for p in payloads] == [int(s) for s in sample.sizes]

    def test_seeding_injects_fragments(self):
        rng = np.random.default_rng(9)
        sample = pktgen.gbps_stream(10.0, 1024, 400, rng)
        fragment = b"\xde\xad\xbe\xef\xf0\x0d"
        payloads = list(
            pktgen.payload_stream(
                sample, rng, seed_fragments=[fragment], seed_probability=0.5
            )
        )
        hits = sum(1 for p in payloads if fragment in p)
        assert 100 < hits < 300

    def test_no_seeding_by_default(self):
        rng = np.random.default_rng(10)
        sample = pktgen.gbps_stream(10.0, 256, 100, rng)
        fragment = b"\xde\xad\xbe\xef\xf0\x0d"
        payloads = list(pktgen.payload_stream(sample, rng))
        assert not any(fragment in p for p in payloads)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_text_fraction_bounds(self, text_fraction):
        rng = np.random.default_rng(11)
        sample = pktgen.gbps_stream(10.0, 128, 50, rng)
        payloads = list(pktgen.payload_stream(sample, rng, text_fraction=text_fraction))
        assert len(payloads) == 50
