"""Shared measured results for the experiment test suite.

Running the full Fig. 4 sweep takes ~15 s; the anchor tests share one
session-scoped run of each experiment (profiles are cached inside the
library, so the other experiment fixtures reuse them too).
"""

import pytest

from repro.analysis import anchors
from repro.core.rng import RandomStreams
from repro.experiments import (
    rows_from_fig4,
    run_fig4,
    run_fig5,
    run_table4,
    run_table5,
)

SAMPLES = 150
N_REQUESTS = 10_000


@pytest.fixture(scope="session")
def fig4_rows():
    return run_fig4(samples=SAMPLES, n_requests=N_REQUESTS,
                    streams=RandomStreams(7))


@pytest.fixture(scope="session")
def fig4_by_key(fig4_rows):
    return {row.key: row for row in fig4_rows}


@pytest.fixture(scope="session")
def fig6_rows(fig4_rows):
    return rows_from_fig4(fig4_rows)


@pytest.fixture(scope="session")
def fig5_curves():
    return run_fig5(samples=120, n_requests=6000, streams=RandomStreams(7))


@pytest.fixture(scope="session")
def table4():
    return run_table4(samples=120, n_requests=6000, streams=RandomStreams(3))


@pytest.fixture(scope="session")
def table5(table4):
    return run_table5(samples=120, n_requests=6000, streams=RandomStreams(3),
                      table4=table4)


@pytest.fixture(scope="session")
def assert_bands(fig4_rows, fig5_curves, fig6_rows, table4, table5):
    """``assert_bands(*band_ids)`` asserts each ledger band on the results."""
    results = {"fig4": fig4_rows, "fig5": fig5_curves, "fig6": fig6_rows,
               "table4": table4, "table5": table5}

    def check(*band_ids):
        for band_id in band_ids:
            band = anchors.band(band_id)
            value = band.extract(results[band.experiment])
            assert band.holds(value), (
                f"{band_id} = {value!r} outside [{band.lo}, {band.hi}] "
                f"({band.section})")
    return check
