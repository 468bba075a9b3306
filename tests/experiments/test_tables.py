"""Anchor tests for Table 4 (trace replay) and Table 5 (TCO).

The numeric bands live in the anchor ledger (``repro.analysis.anchors``);
``assert_bands`` and the ``table4``/``table5`` results are the session
fixtures the ledger test in ``test_paper_anchors`` shares.
"""

from repro.experiments import format_table4


class TestTable4:
    def test_throughputs_match_trace_average(self, assert_bands):
        """Table 4: both platforms sustain the 0.76 Gb/s trace."""
        assert_bands("host_throughput_gbps", "snic_host_throughput_ratio")

    def test_host_p99_near_5us(self, assert_bands):
        """Table 4: host p99 5.07 us."""
        assert_bands("host_p99_us")

    def test_snic_p99_about_3x_host(self, assert_bands):
        """Table 4: SNIC p99 17.43 us (~3.4x the host's)."""
        assert_bands("snic_p99_us", "snic_host_p99_ratio")

    def test_power_anchors(self, assert_bands):
        """Table 4: 278.3 W host-processing vs 254.5 W SNIC-processing."""
        assert_bands("host_power_w", "snic_power_w")

    def test_power_saving_is_modest(self, assert_bands):
        """§5.1: even with relaxed latency, the saving is only ~9 %."""
        assert_bands("power_saving_fraction")

    def test_formatting(self, table4):
        text = format_table4(table4)
        assert "Throughput" in text and "SNIC" in text


class TestTable5:
    def test_applications_present(self, table5):
        assert set(table5.by_application()) == {"fio", "OVS", "REM", "Compress"}

    def test_fio_savings(self, assert_bands):
        """Table 5: fio saves 2.7 % with the SNIC."""
        assert_bands("fio_savings_fraction")

    def test_ovs_savings(self, assert_bands):
        """Table 5: OvS saves 1.7 %."""
        assert_bands("ovs_savings_fraction")

    def test_rem_costs_more(self, assert_bands):
        """Table 5: REM loses 2.5 % — the SNIC premium isn't recovered."""
        assert_bands("rem_savings_fraction")

    def test_compress_dominant_savings(self, assert_bands):
        """Table 5: Compress saves 70.7 % (fleet shrinks ~3.5x)."""
        assert_bands("compress_savings_fraction", "compress_nic_fleet_servers")

    def test_equal_fleets_when_throughput_comparable(self, table5):
        for app in ("fio", "OVS", "REM"):
            comparison = table5.by_application()[app]
            assert comparison.nic_fleet.servers == comparison.snic_fleet.servers

    def test_tco_magnitude(self, assert_bands):
        """Sanity: a 10-server SNIC fleet costs ~$99k over 5 years."""
        assert_bands("fio_snic_fleet_tco_usd")
