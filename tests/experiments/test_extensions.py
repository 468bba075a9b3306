"""Tests for the extension experiments: Strategy 1 what-ifs and the
configuration-table renderers."""

import pytest

from repro.analysis.tables import (
    format_all_tables,
    format_table1,
    format_table2,
    format_table3,
)
from repro.core.rng import RandomStreams
from repro.experiments.strategy1 import (
    AGGRESSIVE,
    BASELINE,
    PARTIAL,
    OffloadScenario,
    format_strategy1,
    rows_by_scenario,
    run_strategy1,
)


class TestStrategy1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_strategy1(
            keys=("udp:64", "redis:a"), samples=100, n_requests=6000,
            streams=RandomStreams(13),
        )

    def test_offload_monotonically_improves_snic(self, rows):
        """More stack offload -> higher SNIC/host ratio, every function."""
        by_scenario = rows_by_scenario(rows)
        for key in ("udp:64", "redis:a"):
            today = by_scenario["today"][key]
            partial = by_scenario["partial-offload"][key]
            aggressive = by_scenario["datapath-offload"][key]
            assert today < partial < aggressive, key

    def test_baseline_matches_fig4(self, rows):
        """Scenario 'today' must reproduce the kernel-stack deficit."""
        by_scenario = rows_by_scenario(rows)
        assert by_scenario["today"]["udp:64"] < 0.25

    def test_partial_offload_recovers_half(self, rows):
        """AccelTCP-style offload recovers a large share of the gap."""
        by_scenario = rows_by_scenario(rows)
        assert by_scenario["partial-offload"]["redis:a"] > 0.35

    def test_calibration_restored_after_run(self, rows):
        from repro import calibration

        assert calibration.PLATFORMS["snic-cpu"] is calibration.SNIC_CPU

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            OffloadScenario("bad", 1.0, 0.5)
        with pytest.raises(ValueError):
            OffloadScenario("bad", 0.5, 0.0)

    def test_formatting(self, rows):
        text = format_strategy1(rows)
        assert "udp:64" in text and "datapath-offload" in text


class TestConfigurationTables:
    def test_table1_contents(self):
        text = format_table1()
        assert "ARMv8 A72" in text
        assert "16 GB" in text
        assert "Gen 4.0" in text

    def test_table2_contents(self):
        text = format_table2()
        assert "E5-2640" in text and "6140" in text
        assert "BlueField-2" in text

    def test_table3_matrix(self):
        text = format_table3()
        assert "Redis" in text
        assert "tcp" in text
        # crypto runs on all three platforms
        crypto_line = next(l for l in text.splitlines() if "Crypto" in l)
        assert crypto_line.count("x") == 3

    def test_all_tables_concatenate(self):
        text = format_all_tables()
        assert "Table 1" in text and "Table 2" in text and "Table 3" in text
