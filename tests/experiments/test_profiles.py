"""Tests for the function-profile catalog."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

import repro
from repro.core import instrument
from repro.core.cache import CODE_VERSION, ResultCache, configure, get_cache
from repro.core.work import WorkUnits
from repro.experiments import profiles
from repro.experiments.measurement import CPU_PLATFORMS, cpu_service_seconds
from repro.experiments.profiles import ALL_PROFILE_KEYS, get_profile
from repro.functions.storage import RamDisk, StorageError

SRC = os.path.dirname(os.path.dirname(repro.__file__))


class TestRegistry:
    def test_all_13_functions_covered(self):
        """Table 3 lists 10 benchmarks + 3 microbenchmarks; every one has
        at least one profile config."""
        families = {key.split(":")[0] for key in ALL_PROFILE_KEYS}
        assert families == {
            "udp", "dpdk", "rdma",  # microbenchmarks
            "redis", "snort", "nat", "bm25",  # TCP/UDP
            "mica", "fio",  # RDMA
            "crypto", "rem", "compression", "ovs",  # DPDK / accelerated
        }

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            get_profile("nginx:tls")

    def test_caching(self):
        assert get_profile("udp:64", samples=10) is get_profile("udp:64", samples=10)

    @pytest.mark.parametrize("key", sorted(ALL_PROFILE_KEYS))
    def test_profile_wellformed(self, key):
        profile = get_profile(key, samples=30)
        assert profile.key == key
        assert profile.wire_bytes > 0
        assert profile.payload_bytes > 0
        assert profile.work_samples
        assert profile.platforms
        assert profile.category in ("micro", "software", "hardware")
        if profile.accel_engine is not None:
            assert "snic-accel" in profile.platforms
        if profile.stack is not None:
            assert profile.stack in ("udp", "tcp", "dpdk", "rdma")


class TestExecutionPlatforms:
    """Table 3's execution-platform matrix (HC / SC / SA columns)."""

    def test_accelerated_functions(self):
        for key in ("crypto:aes", "rem:file_image", "compression:app"):
            assert "snic-accel" in get_profile(key, samples=30).platforms

    def test_software_only_functions(self):
        for key in ("redis:a", "nat:10k", "mica:4", "fio:read", "ovs:10"):
            profile = get_profile(key, samples=30)
            assert "snic-accel" not in profile.platforms
            assert {"host", "snic-cpu"} <= set(profile.platforms)

    def test_crypto_runs_on_all_three(self):
        profile = get_profile("crypto:sha1", samples=30)
        assert set(profile.platforms) == {"host", "snic-cpu", "snic-accel"}


class TestProfileContent:
    def test_redis_workloads_differ_in_mix(self):
        a = get_profile("redis:a", samples=200)
        c = get_profile("redis:c", samples=200)
        # A = 50 % updates (SETs move 1 KB in); C = 100 % reads
        a_sets = sum(1 for w in a.work_samples if w.get("kv_value_byte") > 0)
        assert a_sets  # both GET-hits and SETs move value bytes
        assert a.notes != "" and c.notes != ""

    def test_snort_image_is_heaviest(self):
        image = get_profile("snort:file_image", samples=100).mean_work()
        exe = get_profile("snort:file_executable", samples=100).mean_work()
        assert image.get("dfa_deep_byte") > 20 * exe.get("dfa_deep_byte")

    def test_nat_table_size_changes_kind(self):
        small = get_profile("nat:10k", samples=50).mean_work()
        large = get_profile("nat:1m", samples=50).mean_work()
        assert small.get("nat_lookup") > 0 and small.get("nat_lookup_cold") == 0
        assert large.get("nat_lookup_cold") > 0 and large.get("nat_lookup") == 0

    def test_bm25_1k_walks_more_postings(self):
        small = get_profile("bm25:100", samples=60).mean_work()
        large = get_profile("bm25:1k", samples=60).mean_work()
        assert large.get("bm25_posting") > 3 * small.get("bm25_posting")

    def test_mica_batch_scales_work(self):
        b4 = get_profile("mica:4", samples=60).mean_work()
        b32 = get_profile("mica:32", samples=60).mean_work()
        assert b32.get("hash_probe") > 5 * b4.get("hash_probe")
        # batch-32 working set is priced cache-cold
        assert b32.get("kv_value_byte_cold") > 0
        assert b4.get("kv_value_byte_cold") == 0

    def test_rem_pcap_vs_mtu_density(self):
        pcap = get_profile("rem:file_image", samples=80)
        mtu = get_profile("rem:file_image@mtu", samples=80)
        pcap_density = pcap.mean_work().get("dfa_deep_byte") / pcap.payload_bytes
        mtu_density = mtu.mean_work().get("dfa_deep_byte") / mtu.payload_bytes
        assert pcap_density > 1.4 * mtu_density

    def test_compression_work_from_real_deflate(self):
        profile = get_profile("compression:txt", samples=8)
        work = profile.mean_work()
        assert work.get("lz_byte") == pytest.approx(4096)
        assert work.get("lz_match_search") > 0
        assert work.get("huffman_symbol") > 0

    def test_ovs_mostly_hardware_forwarded(self):
        profile = get_profile("ovs:100", samples=400)
        upcalls = sum(1 for w in profile.work_samples if w.get("flow_upcall") > 0)
        assert upcalls / len(profile.work_samples) < 0.05

    def test_fio_read_write_latency_asymmetry(self):
        read = get_profile("fio:read", samples=60)
        write = get_profile("fio:write", samples=60)
        assert read.latency_extra["snic-cpu"] > read.latency_extra["host"]
        assert write.latency_extra["snic-cpu"] < write.latency_extra["host"]

    def test_crypto_rsa_is_op_based(self):
        profile = get_profile("crypto:rsa", samples=10)
        assert profile.accel_op_based
        assert profile.mean_work().get("rsa_limb_mul") > 1e5


class TestProfileCache:
    """Profiles are content-addressed in the result cache, so a second
    process over the same ``--cache-dir`` reads them instead of
    re-running the function implementations."""

    KEY = "crypto:sha1"
    SAMPLES = 30

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        # A private in-process layer and global cache for each test; both
        # are put back afterwards, so profiles other tests built survive.
        monkeypatch.setattr(profiles, "_build_profile", self._fresh_lru())
        previous = get_cache()
        yield
        configure(previous)

    @staticmethod
    def _fresh_lru():
        return lru_cache(maxsize=None)(profiles._build_profile.__wrapped__)

    def _new_process(self, monkeypatch, cache_dir):
        """What a later invocation sees: an empty ``lru_cache`` and a
        fresh cache over the same directory."""
        monkeypatch.setattr(profiles, "_build_profile", self._fresh_lru())
        configure(ResultCache(cache_dir=str(cache_dir)))

    @staticmethod
    def _forbid_building(monkeypatch, key):
        def builder(samples):
            raise AssertionError(f"{key} was rebuilt instead of read")
        monkeypatch.setitem(profiles._BUILDERS, key, builder)

    def test_round_trip_through_disk(self, monkeypatch, tmp_path):
        configure(ResultCache(cache_dir=str(tmp_path)))
        original = get_profile(self.KEY, self.SAMPLES)
        self._forbid_building(monkeypatch, self.KEY)

        self._new_process(monkeypatch, tmp_path)
        before = get_profile(self.KEY, self.SAMPLES)
        assert before is not original
        assert before == original
        prices = {p: cpu_service_seconds(before, p).tobytes()
                  for p in original.platforms if p in CPU_PLATFORMS}
        assert set(prices) == set(CPU_PLATFORMS)
        for platform, priced in prices.items():
            assert cpu_service_seconds(original, platform).tobytes() == priced

        # Pricing the original must not leak its memo into the entry.
        self._new_process(monkeypatch, tmp_path)
        after = get_profile(self.KEY, self.SAMPLES)
        assert after == original
        assert not hasattr(after, "_service_seconds_cache")
        for platform, priced in prices.items():
            assert cpu_service_seconds(after, platform).tobytes() == priced

    def test_lookups_leave_footer_counters_alone(self, monkeypatch, tmp_path):
        configure(ResultCache(cache_dir=str(tmp_path)))
        hits = instrument.value(instrument.CACHE_HITS)
        misses = instrument.value(instrument.CACHE_MISSES)
        get_profile(self.KEY, self.SAMPLES)  # miss, then put
        self._new_process(monkeypatch, tmp_path)
        get_profile(self.KEY, self.SAMPLES)  # disk hit
        assert instrument.value(instrument.CACHE_HITS) == hits
        assert instrument.value(instrument.CACHE_MISSES) == misses
        assert get_cache().stats.lookups == 0


class TestBuilderFailures:
    def test_fio_builder_raises_when_commands_fail(self, monkeypatch):
        def failing_read(self, lba, blocks):
            raise StorageError("injected media error")

        monkeypatch.setattr(RamDisk, "read", failing_read)
        with pytest.raises(StorageError, match="commands failed"):
            profiles._BUILDERS["fio:read"](20)


class TestBuilderMemory:
    """The device buffers are lazily zeroed, so building a profile costs
    the memory its job touches, not the buffers' full size (a 64 MiB
    RAMDisk and 8 x 4 MiB MICA logs).

    Each build runs in a fresh interpreter and reads that process's own
    peak RSS, ``VmHWM``.  ``ru_maxrss`` would not do: a spawned process
    inherits its parent's high-water mark, so under a large test runner
    the build's rise would hide beneath it.  A first interpreter writes
    the bytecode, so compiling the package on import does not raise the
    peak before the build starts."""

    LIMIT_MB = 32
    SETUP = "from repro.experiments import registry\nregistry.load_all()\n"

    @pytest.fixture(scope="class")
    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        warm = subprocess.run([sys.executable, "-c", self.SETUP],
                              capture_output=True, text=True, env=env)
        assert warm.returncode == 0, warm.stderr[-2000:]
        return env

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("key", ["fio:read", "mica:32"])
    def test_build_raises_peak_rss_little(self, env, key):
        script = self.SETUP + (
            "from repro.experiments.profiles import _BUILDERS\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as status:\n"
            "        for line in status:\n"
            "            if line.startswith('VmHWM:'):\n"
            "                return int(line.split()[1])\n"
            "before = peak_kib()\n"
            f"_BUILDERS[{key!r}](200)\n"
            "print((peak_kib() - before) / 1024)\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr[-2000:]
        rise_mb = float(result.stdout)
        assert rise_mb < self.LIMIT_MB, f"{key} raised peak RSS by {rise_mb:.1f} MB"


def _canonical(value):
    """A hashable, repr-stable form of one profile field.

    A ``WorkUnits`` tally keeps its insertion order: ``Platform.work_seconds``
    sums per-kind costs in that order, so reordering kinds can move a
    priced service time in its last bits.
    """
    if isinstance(value, WorkUnits):
        return tuple(value.items())
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class TestPinnedProfiles:
    """Every builder's output, pinned.

    The result cache keys profiles by ``(key, samples)`` and
    ``CODE_VERSION`` only, so a change to a builder, to ``functions/`` or
    to ``workloads/`` that moves any profile would let a warm
    ``--cache-dir`` serve stale ones.  This digest catches such a move.
    """

    SAMPLES = 200  # the CLI's default --samples
    DIGEST = "4633861cd38e3e17373487f7d37f3f64fee58d5c8e4d98e776ece3ef7d0d7f70"

    def test_every_profile_matches_the_pinned_digest(self):
        digest = hashlib.sha256()
        for key in sorted(profiles._BUILDERS):
            profile = profiles._BUILDERS[key](self.SAMPLES)
            record = tuple(
                (f.name, _canonical(getattr(profile, f.name)))
                for f in dataclasses.fields(profile)
            )
            digest.update(repr((key, record)).encode())
        assert digest.hexdigest() == self.DIGEST, (
            "a function profile changed; if that is intended, bump "
            f"CODE_VERSION (now {CODE_VERSION}) in repro/core/cache.py so "
            "stale --cache-dir profiles are not reused, and re-pin DIGEST"
        )

    def test_digest_sees_the_order_of_work_kinds(self):
        reordered = WorkUnits({"b": 2.0, "a": 1.0})
        assert _canonical(WorkUnits({"a": 1.0, "b": 2.0})) != _canonical(reordered)
