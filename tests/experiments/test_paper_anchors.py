"""Paper-anchor tests: every quantitative claim of §3-§5 checked against
the measured reproduction.

The bands live in the anchor ledger (``repro.analysis.anchors``): the
paper's numbers with a tolerance wide enough for simulation noise but
tight enough that a broken model fails.  Known deviations (kernel-stack
p99 amplification; SHA-1 efficiency) sit at their *documented* bands and
are cross-referenced in EXPERIMENTS.md.  ``test_band`` asserts every
ledger band, with the band id as the test id.  The named tests keep one
test per paper statement: each asserts that statement's bands, and the
checks that are not a number band (orderings, the O1-O5 verdicts) stay
plain code.
"""

import pytest

from repro.analysis import anchors

BANDS = [band for _, band in anchors.bands()]


@pytest.mark.parametrize("band", BANDS, ids=[band.id for band in BANDS])
def test_band(band, assert_bands):
    assert_bands(band.id)


def test_band_ids_are_unique():
    ids = [band.id for band in BANDS]
    assert len(ids) == len(set(ids))


class TestHeadlineRanges:
    def test_throughput_ratio_span(self, assert_bands):
        """§4: SNIC gives 0.1x-3.5x the host's maximum throughput."""
        assert_bands("throughput_ratio_min", "throughput_ratio_max")

    def test_p99_ratio_span(self, assert_bands):
        """§4: SNIC gives 0.1x-13.8x the host's p99 latency."""
        assert_bands("p99_ratio_min", "p99_ratio_max")

    def test_efficiency_ratio_span(self, assert_bands):
        """§4: SNIC gives 0.2x-3.8x the host's energy efficiency."""
        assert_bands("efficiency_ratio_min", "efficiency_ratio_max")


class TestObservation1Anchors:
    def test_udp_micro_throughput_band(self, assert_bands):
        """§4 KO1: SNIC UDP throughput 76.5-85.7 % lower than host."""
        assert_bands("udp_64_throughput_ratio", "udp_1024_throughput_ratio")

    def test_udp_micro_p99_direction(self, assert_bands):
        """§4 KO1: SNIC UDP p99 is higher (paper: 1.1-1.4x; our queueing
        model amplifies to ~2-3x — documented deviation)."""
        assert_bands("udp_64_p99_ratio", "udp_1024_p99_ratio")

    def test_rdma_micro_throughput(self, assert_bands):
        """§4 KO1: SNIC RDMA up to 1.4x host throughput."""
        assert_bands("rdma_1024_throughput_ratio")

    def test_rdma_micro_p99_lower_on_snic(self, assert_bands):
        """§4 KO1: SNIC RDMA p99 14.6-24.3 % lower (we allow a wider band:
        knee-detection noise)."""
        assert_bands("rdma_1024_p99_ratio")

    def test_dpdk_line_rate_at_1kb(self, assert_bands):
        """§3.3: one core reaches ~100 Gb/s with 1 KB packets on both."""
        assert_bands("dpdk_1024_host_goodput_gbps",
                     "dpdk_1024_snic_goodput_gbps")

    def test_tcp_udp_functions_within_paper_band(self, assert_bands):
        """§4 KO1: SNIC 20.6-89.5 % lower throughput for TCP/UDP functions."""
        assert_bands(*(f"{key}_throughput_ratio" for key in (
            "redis_a redis_b redis_c snort_file_image snort_file_flash "
            "snort_file_executable nat_10k nat_1m bm25_100 bm25_1k").split()))

    def test_tcp_udp_p99_band(self, assert_bands):
        """§4 KO1: 1.1-3.2x higher p99 for TCP/UDP functions (we allow
        more for knee noise)."""
        assert_bands(*(f"{key}_p99_ratio" for key in (
            "redis_a redis_b redis_c nat_10k nat_1m bm25_100 bm25_1k "
            "snort_file_image").split()))

    def test_mica_band(self, assert_bands):
        """§4 KO1: MICA 19.5-54.5 % lower throughput, 6.7-26.2 % higher p99."""
        assert_bands("mica_32_throughput_ratio",
                     "mica_4_throughput_ratio", "mica_4_p99_ratio",
                     "mica_32_p99_ratio")

    def test_fio_throughput_parity(self, assert_bands):
        """§4 KO1: SNIC matches host throughput for fio."""
        assert_bands("fio_read_throughput_ratio", "fio_write_throughput_ratio")


class TestObservation2Anchors:
    def test_aes_host_wins(self, assert_bands):
        """§4 KO2: host 38.5 % higher max throughput for AES (ratio ~0.72)."""
        assert_bands("crypto_aes_throughput_ratio")

    def test_rsa_host_wins(self, assert_bands):
        """§4 KO2: host 91.2 % higher for RSA (ratio ~0.52)."""
        assert_bands("crypto_rsa_throughput_ratio")

    def test_sha1_accelerator_wins(self, assert_bands):
        """§4 KO2: host 47.2 % lower for SHA-1 (accel ~1.9x host)."""
        assert_bands("crypto_sha1_throughput_ratio")

    def test_rem_image_accelerator_wins(self, assert_bands):
        """§4 KO2/KO4: accel 1.8x host for REM with file_image."""
        assert_bands("rem_file_image_throughput_ratio")

    def test_rem_other_rulesets_host_wins(self, assert_bands):
        """§4 KO4: accel only 0.6x host for file_flash / file_executable."""
        assert_bands("rem_file_flash_throughput_ratio",
                     "rem_file_executable_throughput_ratio")

    def test_compression_accelerator_wins_big(self, assert_bands):
        """§4 KO2: accel up to 3.5x host for Compression."""
        assert_bands("compression_app_throughput_ratio",
                     "compression_txt_throughput_ratio",
                     "compression_throughput_ratio_max")


class TestObservation3Anchors:
    def test_accelerator_capped_near_50g(self, fig5_curves, assert_bands):
        """§4 KO3 / Fig. 5: REM accelerator caps at ~50 Gb/s."""
        assert set(fig5_curves) == {"file_image", "file_executable"}
        assert_bands("file_image_snic_accel_max_gbps",
                     "file_executable_snic_accel_max_gbps")

    def test_host_exe_reaches_78g_with_8_cores(self, assert_bands):
        """Fig. 5: host file_executable scales to ~78 Gb/s on 8 cores."""
        assert_bands("file_executable_host_8c_max_gbps")

    def test_host_image_walls_near_40g(self, assert_bands):
        """Fig. 5 / §4 KO4: host file_image p99 explodes past ~40 Gb/s."""
        assert_bands("file_image_host_8c_max_gbps")

    def test_host_cores_scale(self, fig5_curves):
        """Fig. 5: host throughput grows with core count."""
        for ruleset in fig5_curves:
            curves = {c.label: c.max_achieved_gbps() for c in fig5_curves[ruleset]}
            assert curves["host-1c"] < curves["host-4c"] < curves["host-8c"]

    def test_accel_p99_at_capacity_near_25us(self, assert_bands):
        """§4 KO4: the accelerator serves REM at ~25.1 us p99 (host: 5.1)."""
        assert_bands("file_executable_snic_accel_p99_floor_us",
                     "file_executable_host_8c_p99_floor_us")


class TestObservation4And5:
    def test_fio_p99_flips_by_operation(self, assert_bands):
        """§4 KO4: host 36 % lower p99 for reads, 18.2 % higher for writes."""
        assert_bands("fio_read_p99_ratio", "fio_write_p99_ratio")

    def test_efficiency_winners(self, assert_bands):
        """§4 KO5: fio / REM(image) / SHA-1 / Compression gain efficiency."""
        assert_bands("fio_read_efficiency_ratio",
                     "rem_file_image_efficiency_ratio",
                     "crypto_sha1_efficiency_ratio",
                     "compression_txt_efficiency_ratio")

    def test_efficiency_losers(self, assert_bands):
        """§4 KO5: offload does NOT pay off for kernel-stack functions."""
        assert_bands("redis_a_efficiency_ratio",
                     "nat_10k_efficiency_ratio",
                     "snort_file_executable_efficiency_ratio",
                     "udp_64_efficiency_ratio")

    def test_idle_power_dominates(self, assert_bands):
        """§4 KO5: the server idle floor (252 W) dominates every run."""
        assert_bands("snic_power_w_max", "host_power_w_max")

    def test_snic_device_power_bounded(self, assert_bands):
        """§4: the SNIC never draws more than ~5.4 W above its 29 W idle."""
        assert_bands("snic_device_w_min", "snic_device_w_max")


class TestObservationVerdicts:
    def test_all_five_observations_hold(self, fig4_rows, fig5_curves, fig6_rows):
        from repro.experiments.observations import (
            observation_1,
            observation_2,
            observation_3,
            observation_4,
            observation_5,
        )

        verdicts = [
            observation_1(fig4_rows),
            observation_2(fig4_rows),
            observation_3(fig5_curves),
            observation_4(fig4_rows),
            observation_5(fig6_rows),
        ]
        failing = [v.observation for v in verdicts if not v.holds]
        assert not failing, f"observations failing: {failing}"
