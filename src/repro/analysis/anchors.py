"""The anchor ledger: the numbers the paper reports, in one table.

Each :class:`Anchor` is one row of EXPERIMENTS.md's paper-vs-measured
table (paper text, status, and a ``measured`` formatter) with the
numeric :class:`Band` s behind it: a scalar read from one experiment's
result and the inclusive ``[lo, hi]`` it must fall in (either edge may
be open).  The report renders the rows, ``obs.slo`` evaluates each
experiment's bands as it completes, and the tier-1 anchor tests assert
every band.  Results come as a mapping from registry experiment name
to result; extractors read attributes directly, so this module imports
nothing from ``repro.experiments``.  A missing key raises: the SLO
monitor skips that band, the report renders "n/a", a test fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

Results = Mapping[str, Any]


@dataclass(frozen=True)
class Band:
    """One numeric check: ``extract(result)`` must lie in ``[lo, hi]``."""

    id: str
    section: str  # the paper section that states the number
    experiment: str  # registry name of the result ``extract`` reads
    extract: Callable[[Any], float]
    lo: Optional[float] = None
    hi: Optional[float] = None

    def holds(self, value: float) -> bool:
        return ((self.lo is None or value >= self.lo)
                and (self.hi is None or value <= self.hi))


@dataclass(frozen=True)
class Anchor:
    """One EXPERIMENTS.md anchor row and the bands that check it."""

    artifact: str
    quantity: str
    paper: str
    status: str  # "anchored" (calibrated input) | "emergent" | "deviation"
    measured: Callable[[Results], str]
    bands: Tuple[Band, ...] = ()


# -- result accessors ---------------------------------------------------------


def _keyed(rows: Sequence[Any]) -> Dict[str, Any]:
    """Fig. 4 / Fig. 6 rows by function key."""
    return {row.key: row for row in rows}


def _fig4(r: Results) -> Dict[str, Any]:
    return _keyed(r["fig4"])


def _tr(r: Results, key: str) -> float:
    return _fig4(r)[key].throughput_ratio


def _eff(r: Results, key: str) -> float:
    return _keyed(r["fig6"])[key].efficiency_ratio


def _curves(figure: Mapping[str, Any], ruleset: str) -> Dict[str, Any]:
    """Fig. 5 curves of one rule set by label (``host-8c``, ``snic-accel``)."""
    return {curve.label: curve for curve in figure[ruleset]}


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


# -- band builders --------------------------------------------------------------


def _keys(experiment: str, section: str, attr: str, lo: Optional[float],
          hi: Optional[float], *keys: str) -> Tuple[Band, ...]:
    """One band ``<key>_<attr>`` per keyed Fig. 4/6 row."""
    def extractor(key: str) -> Callable[[Any], float]:
        return lambda rows: float(getattr(_keyed(rows)[key], attr))
    return tuple(Band(f"{key.replace(':', '_')}_{attr}", section, experiment,
                      extractor(key), lo, hi) for key in keys)


def _over_rows(experiment: str, section: str, attr: str,
               pick: Callable[..., float], lo: Optional[float] = None,
               hi: Optional[float] = None) -> Band:
    """A band on ``pick`` (``min`` or ``max``) of ``attr`` over all rows."""
    return Band(f"{attr}_{pick.__name__}", section, experiment,
                lambda rows: float(pick(getattr(row, attr) for row in rows)),
                lo, hi)


def _max_gbps(ruleset: str, label: str, section: str, lo: float,
              hi: float) -> Band:
    """A band on one Fig. 5 curve's highest achieved throughput."""
    return Band(f"{ruleset}_{label.replace('-', '_')}_max_gbps", section,
                "fig5", lambda figure: float(
                    _curves(figure, ruleset)[label].max_achieved_gbps()),
                lo, hi)


def _p99_floor_us(label: str, max_offered_gbps: float, lo: float,
                  hi: float) -> Band:
    """A band on the lowest file_executable p99 (us) at or below a rate."""
    def extract(figure: Any) -> float:
        curve = _curves(figure, "file_executable")[label]
        return min(p.p99_latency_s for p in curve.points
                   if p.offered_gbps <= max_offered_gbps) * 1e6
    return Band(f"file_executable_{label.replace('-', '_')}_p99_floor_us",
                "§4 KO4", "fig5", extract, lo, hi)


def _table4(band_id: str, extract: Callable[[Any], float],
            lo: Optional[float], hi: Optional[float] = None,
            section: str = "§5.1 Table 4") -> Band:
    return Band(band_id, section, "table4", extract, lo, hi)


def _tco(app: str, paper: str, lo: float, hi: float,
         *extra: Band) -> Anchor:
    """A Table 5 savings row and its band (plus ``extra`` bands)."""
    def savings(table5: Any) -> float:
        return float(table5.by_application()[app].savings_fraction)
    return Anchor(
        "Table5", f"{app} TCO savings", paper,
        "emergent (prices anchored; power measured)",
        lambda r: f"{r['table5'].by_application()[app].savings_fraction:.1%}",
        (Band(f"{app.lower()}_savings_fraction", "§5.2 Table 5", "table5",
              savings, lo, hi),) + extra)


_TCP_UDP_KEYS = ("redis:a", "redis:b", "redis:c", "snort:file_image",
                 "snort:file_flash", "snort:file_executable", "nat:10k",
                 "nat:1m", "bm25:100", "bm25:1k")
_TCP_UDP_P99_KEYS = ("redis:a", "redis:b", "redis:c", "nat:10k", "nat:1m",
                     "bm25:100", "bm25:1k", "snort:file_image")

# The paper's idle server floor (§4 KO5) and the SNIC's idle draw (Fig. 6).
_IDLE_SERVER_W = 252.0
_IDLE_SNIC_W = 29.0

# -- the ledger -------------------------------------------------------------------

LEDGER: Tuple[Anchor, ...] = (
    Anchor("Fig4", "throughput ratio range", "0.1x - 3.5x", "emergent",
           lambda r: f"{_fmt(min(x.throughput_ratio for x in r['fig4']))}x - "
                     f"{_fmt(max(x.throughput_ratio for x in r['fig4']))}x",
           (_over_rows("fig4", "§4", "throughput_ratio", min, 0.08, 0.25),
            _over_rows("fig4", "§4", "throughput_ratio", max, 2.3, 3.8))
           + tuple(Band(f"dpdk_1024_{side}_goodput_gbps", "§3.3", "fig4",
                        lambda rows, side=side: float(getattr(
                            _keyed(rows)["dpdk:1024"], side).goodput_gbps),
                        lo=85.0)
                   for side in ("host", "snic"))),
    Anchor("Fig4", "p99 ratio range", "0.1x - 13.8x",
           "emergent (narrower: our worst p99 case is milder)",
           lambda r: f"{_fmt(min(x.p99_ratio for x in r['fig4']))}x - "
                     f"{_fmt(max(x.p99_ratio for x in r['fig4']))}x",
           (_over_rows("fig4", "§4", "p99_ratio", min, hi=0.6),
            _over_rows("fig4", "§4", "p99_ratio", max, 1.5, 14.0))),
    Anchor("Fig4/KO1", "UDP micro throughput", "76.5-85.7% lower",
           "anchored (stack cycle costs calibrated)",
           lambda r: f"{(1-_tr(r, 'udp:64'))*100:.1f}% / "
                     f"{(1-_tr(r, 'udp:1024'))*100:.1f}% lower",
           _keys("fig4", "§4 KO1", "throughput_ratio", 0.125, 0.25,
                 "udp:64", "udp:1024")),
    Anchor("Fig4/KO1", "UDP micro p99", "1.1-1.4x higher",
           "deviation (queueing model amplifies kernel-stack tails)",
           lambda r: f"{_fmt(_fig4(r)['udp:64'].p99_ratio)}x / "
                     f"{_fmt(_fig4(r)['udp:1024'].p99_ratio)}x",
           _keys("fig4", "§4 KO1", "p99_ratio", 1.1, 4.0, "udp:64", "udp:1024")),
    Anchor("Fig4/KO1", "RDMA micro throughput", "up to 1.4x", "anchored",
           lambda r: f"{_fmt(_tr(r, 'rdma:1024'))}x",
           _keys("fig4", "§4 KO1", "throughput_ratio", 1.1, 1.45, "rdma:1024")),
    Anchor("Fig4/KO1", "RDMA micro p99", "14.6-24.3% lower",
           "emergent (slightly smaller gap; knee-detection noise)",
           lambda r: f"{(1-_fig4(r)['rdma:1024'].p99_ratio)*100:.0f}% lower",
           _keys("fig4", "§4 KO1", "p99_ratio", 0.4, 0.95, "rdma:1024")),
    Anchor("Fig4/KO1", "TCP/UDP functions", "20.6-89.5% lower",
           "emergent (narrower band: see notes)",
           lambda r: f"{(1-max(_tr(r, k) for k in ('redis:a','bm25:1k','nat:10k','snort:file_image')))*100:.0f}%"
                     f" - {(1-min(_tr(r, k) for k in ('redis:a','redis:b','nat:10k','nat:1m')))*100:.0f}% lower",
           _keys("fig4", "§4 KO1", "throughput_ratio", 0.10, 0.80, *_TCP_UDP_KEYS)
           + _keys("fig4", "§4 KO1", "p99_ratio", 1.1, 3.6, *_TCP_UDP_P99_KEYS)),
    Anchor("Fig4/KO1", "MICA throughput", "19.5-54.5% lower",
           "anchored endpoints",
           lambda r: f"{(1-_tr(r, 'mica:4'))*100:.0f}% / "
                     f"{(1-_tr(r, 'mica:32'))*100:.0f}% lower",
           _keys("fig4", "§4 KO1", "throughput_ratio", 0.42, 0.60, "mica:32")
           + _keys("fig4", "§4 KO1", "throughput_ratio", 0.65, 0.85, "mica:4")
           + _keys("fig4", "§4 KO1", "p99_ratio", 0.95, 1.6,
                   "mica:4", "mica:32")),
    Anchor("Fig4/KO1", "fio throughput", "parity", "emergent",
           lambda r: f"{_fmt(_tr(r, 'fio:read'))}x / {_fmt(_tr(r, 'fio:write'))}x",
           _keys("fig4", "§4 KO1", "throughput_ratio", 0.9, 1.12,
                 "fio:read", "fio:write")
           + _keys("fig4", "§4 KO4", "p99_ratio", 1.2, 1.75, "fio:read")
           + _keys("fig4", "§4 KO4", "p99_ratio", 0.70, 1.0, "fio:write")),
    Anchor("Fig4/KO2", "AES", "host 1.385x accel", "anchored",
           lambda r: f"host {_fmt(1/_tr(r, 'crypto:aes'))}x",
           _keys("fig4", "§4 KO2", "throughput_ratio", 0.62, 0.82, "crypto:aes")),
    Anchor("Fig4/KO2", "RSA", "host 1.912x accel", "anchored",
           lambda r: f"host {_fmt(1/_tr(r, 'crypto:rsa'))}x",
           _keys("fig4", "§4 KO2", "throughput_ratio", 0.42, 0.63, "crypto:rsa")),
    Anchor("Fig4/KO2", "SHA-1", "accel 1.89x host", "anchored",
           lambda r: f"accel {_fmt(_tr(r, 'crypto:sha1'))}x",
           _keys("fig4", "§4 KO2", "throughput_ratio", 1.6, 2.2, "crypto:sha1")),
    Anchor("Fig4/KO4", "REM file_image", "accel 1.8x host",
           "emergent (rule-set density x calibrated scan costs)",
           lambda r: f"accel {_fmt(_tr(r, 'rem:file_image'))}x",
           _keys("fig4", "§4 KO2/KO4", "throughput_ratio", 1.5, 2.1,
                 "rem:file_image")),
    Anchor("Fig4/KO4", "REM flash/exe", "accel 0.6x host", "emergent",
           lambda r: f"{_fmt(_tr(r, 'rem:file_flash'))}x / "
                     f"{_fmt(_tr(r, 'rem:file_executable'))}x",
           _keys("fig4", "§4 KO4", "throughput_ratio", 0.45, 0.72,
                 "rem:file_flash", "rem:file_executable")),
    Anchor("Fig4/KO2", "Compression", "accel up to 3.5x", "anchored",
           lambda r: f"{_fmt(_tr(r, 'compression:app'))}x / "
                     f"{_fmt(_tr(r, 'compression:txt'))}x",
           _keys("fig4", "§4 KO2", "throughput_ratio", 2.3, 3.8,
                 "compression:app", "compression:txt")
           + (Band("compression_throughput_ratio_max", "§4 KO2", "fig4",
                   lambda rows: float(max(_keyed(rows)[k].throughput_ratio for k in
                                          ("compression:app", "compression:txt"))),
                   lo=2.8),)),

    Anchor("Fig5/KO3", "accel max throughput", "~50 Gb/s cap",
           "anchored (engine rate calibrated)",
           lambda r: f"{_fmt(_curves(r['fig5'], 'file_executable')['snic-accel'].max_achieved_gbps(), 1)} / "
                     f"{_fmt(_curves(r['fig5'], 'file_image')['snic-accel'].max_achieved_gbps(), 1)} Gb/s",
           (_max_gbps("file_image", "snic-accel", "§4 KO3", 40.0, 56.0),
            _max_gbps("file_executable", "snic-accel", "§4 KO3", 40.0, 56.0))),
    Anchor("Fig5", "host exe 8-core max", "~78 Gb/s", "emergent",
           lambda r: f"{_fmt(_curves(r['fig5'], 'file_executable')['host-8c'].max_achieved_gbps(), 1)} Gb/s",
           (_max_gbps("file_executable", "host-8c", "§4 Fig. 5", 68.0, 90.0),)),
    Anchor("Fig5/KO4", "host image p99 wall", "~40 Gb/s", "emergent",
           lambda r: f"{_fmt(_curves(r['fig5'], 'file_image')['host-8c'].max_achieved_gbps(), 1)} Gb/s",
           (_max_gbps("file_image", "host-8c", "§4 KO4", 30.0, 48.0),)),
    Anchor("Fig5", "host p99 below knee", "~5.1 us", "emergent",
           lambda r: f"{min(p.p99_latency_s for p in _curves(r['fig5'], 'file_executable')['host-8c'].points)*1e6:.1f} us",
           (_p99_floor_us("host-8c", 40.0, 4.0, 12.0),)),
    Anchor("Fig5", "accel p99 at capacity", "~25.1 us",
           "emergent (batching latency)",
           lambda r: f"{min(p.p99_latency_s for p in _curves(r['fig5'], 'file_executable')['snic-accel'].points)*1e6:.1f} us",
           (_p99_floor_us("snic-accel", 45.0, 18.0, 40.0),)),

    Anchor("Fig6/KO5", "efficiency ratio range", "0.2x - 3.8x",
           "emergent (idle-power arithmetic)",
           lambda r: f"{_fmt(min(x.efficiency_ratio for x in r['fig6']))}x - "
                     f"{_fmt(max(x.efficiency_ratio for x in r['fig6']))}x",
           (_over_rows("fig6", "§4", "efficiency_ratio", min, 0.15, 0.3),
            _over_rows("fig6", "§4", "efficiency_ratio", max, 2.8, 4.2))
           + _keys("fig6", "§4 KO5", "efficiency_ratio", None, 0.5, "redis:a",
                   "nat:10k", "snort:file_executable", "udp:64")),
    Anchor("Fig6", "fio efficiency", "1.1-1.3x", "emergent",
           lambda r: f"{_fmt(_eff(r, 'fio:read'))}x",
           _keys("fig6", "§4 KO5", "efficiency_ratio", 1.05, 1.45, "fio:read")),
    Anchor("Fig6", "REM(image) efficiency", "~2.5x", "emergent",
           lambda r: f"{_fmt(_eff(r, 'rem:file_image'))}x",
           _keys("fig6", "§4 KO5", "efficiency_ratio", 2.1, 2.9,
                 "rem:file_image")),
    Anchor("Fig6", "SHA-1 efficiency", "~1.9x",
           "deviation (ours higher: host crypto power modeled at full burn)",
           lambda r: f"{_fmt(_eff(r, 'crypto:sha1'))}x",
           _keys("fig6", "§4 KO5", "efficiency_ratio", 1.5, None, "crypto:sha1")),
    Anchor("Fig6", "Compression efficiency", "3.4-3.8x", "emergent",
           lambda r: f"{_fmt(_eff(r, 'compression:txt'))}x",
           _keys("fig6", "§4 KO5", "efficiency_ratio", 2.9, 3.9,
                 "compression:txt")),
    Anchor("Fig6", "idle server / SNIC", "252 W / 29 W", "anchored",
           lambda r: "252 W / 29 W",
           (_over_rows("fig6", "§4 KO5", "snic_power_w", max,
                       hi=1.25 * _IDLE_SERVER_W),
            _over_rows("fig6", "§4 KO5", "host_power_w", max,
                       hi=1.75 * _IDLE_SERVER_W),
            _over_rows("fig6", "§4", "snic_device_w", min, lo=_IDLE_SNIC_W),
            _over_rows("fig6", "§4", "snic_device_w", max,
                       hi=_IDLE_SNIC_W + 6.5))),

    Anchor("Table4", "throughput", "0.76 / 0.76 Gb/s", "emergent",
           lambda r: f"{_fmt(r['table4'].host.throughput_gbps)} / "
                     f"{_fmt(r['table4'].snic.throughput_gbps)} Gb/s",
           (_table4("host_throughput_gbps", lambda t: t.host.throughput_gbps,
                    0.76 * 0.85, 0.76 * 1.15),
            _table4("snic_host_throughput_ratio",
                    lambda t: t.snic.throughput_gbps / t.host.throughput_gbps,
                    0.95, 1.05))),
    Anchor("Table4", "p99", "5.07 / 17.43 us", "emergent (shape: ~3-4x penalty)",
           lambda r: f"{_fmt(r['table4'].host.p99_latency_us)} / "
                     f"{_fmt(r['table4'].snic.p99_latency_us)} us",
           (_table4("host_p99_us", lambda t: t.host.p99_latency_us, 4.0, 8.0),
            _table4("snic_p99_us", lambda t: t.snic.p99_latency_us, 14.0, 28.0),
            _table4("snic_host_p99_ratio",
                    lambda t: t.snic.p99_latency_us / t.host.p99_latency_us,
                    2.5))),
    Anchor("Table4", "power", "278.3 / 254.5 W",
           "emergent (spin + engaged-engine model)",
           lambda r: f"{_fmt(r['table4'].host.average_power_w, 1)} / "
                     f"{_fmt(r['table4'].snic.average_power_w, 1)} W",
           (_table4("host_power_w", lambda t: t.host.average_power_w,
                    278.3 - 6.0, 278.3 + 6.0),
            _table4("snic_power_w", lambda t: t.snic.average_power_w,
                    254.5 - 3.0, 254.5 + 3.0),
            _table4("power_saving_fraction",
                    lambda t: 1 - t.snic.average_power_w / t.host.average_power_w,
                    0.03, 0.15, section="§5.1"))),

    _tco("fio", "2.7%", 0.015, 0.045,
         Band("fio_snic_fleet_tco_usd", "§5.2 Table 5", "table5",
              lambda t: float(t.by_application()["fio"].snic_fleet.tco_usd),
              90_000.0, 110_000.0)),
    _tco("OVS", "1.7%", 0.008, 0.035),
    _tco("REM", "-2.5%", -0.04, -0.005),
    _tco("Compress", "70.7%", 0.60, 0.75,
         Band("compress_nic_fleet_servers", "§5.2 Table 5", "table5",
              lambda t: float(t.by_application()["Compress"].nic_fleet.servers),
              lo=25.0)),
)


def bands(experiment: Optional[str] = None) -> Iterator[Tuple[Anchor, Band]]:
    """Every ledger band (of ``experiment``, if given) with its anchor row."""
    for anchor in LEDGER:
        for band in anchor.bands:
            if experiment is None or band.experiment == experiment:
                yield anchor, band


def band(band_id: str) -> Band:
    """The ledger band named ``band_id``."""
    for _, candidate in bands():
        if candidate.id == band_id:
            return candidate
    raise KeyError(band_id)
