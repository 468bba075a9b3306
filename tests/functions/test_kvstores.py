"""Tests for the Redis-like store and the MICA-style store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.kvstore import (
    KeyValueStore,
    ProtocolError,
    decode_command,
    encode_command,
)
from repro.functions.mica import BUCKET_SLOTS, MicaStore


class TestResp:
    def test_roundtrip(self):
        cmd = encode_command(b"SET", b"key", b"value")
        assert decode_command(cmd) == [b"SET", b"key", b"value"]

    def test_binary_safe(self):
        cmd = encode_command(b"SET", b"k\r\n", b"\x00\xff")
        assert decode_command(cmd) == [b"SET", b"k\r\n", b"\x00\xff"]

    @pytest.mark.parametrize("bad", [b"", b"GET x", b"*1\r\n$5\r\nab\r\n", b"*zz\r\n"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode_command(bad)


class TestKeyValueStore:
    def test_set_get(self):
        store = KeyValueStore()
        store.set(b"k", b"v")
        value, _ = store.get(b"k")
        assert value == b"v"

    def test_get_missing(self):
        store = KeyValueStore()
        value, _ = store.get(b"nope")
        assert value is None
        assert store.stats.misses == 1

    def test_delete(self):
        store = KeyValueStore()
        store.set(b"k", b"v")
        removed, _ = store.delete(b"k")
        assert removed
        assert len(store) == 0

    def test_ttl_expiry(self):
        store = KeyValueStore()
        store.set(b"k", b"v", now=0.0, ttl=10.0)
        value, _ = store.get(b"k", now=5.0)
        assert value == b"v"
        value, _ = store.get(b"k", now=11.0)
        assert value is None
        assert store.stats.expired == 1

    def test_work_scales_with_value(self):
        store = KeyValueStore()
        small = store.set(b"a", b"x")
        large = store.set(b"b", b"x" * 1000)
        assert large.get("kv_value_byte") == 1000.0
        assert small.get("kv_value_byte") == 1.0

    def test_execute_get_set(self):
        store = KeyValueStore()
        response, _ = store.execute(encode_command(b"SET", b"k", b"hello"))
        assert response == b"+OK\r\n"
        response, _ = store.execute(encode_command(b"GET", b"k"))
        assert response == b"$5\r\nhello\r\n"

    def test_execute_get_missing(self):
        store = KeyValueStore()
        response, _ = store.execute(encode_command(b"GET", b"k"))
        assert response == b"$-1\r\n"

    def test_execute_set_with_ttl(self):
        store = KeyValueStore()
        store.execute(encode_command(b"SET", b"k", b"v", b"EX", b"5"), now=0.0)
        value, _ = store.get(b"k", now=10.0)
        assert value is None

    def test_execute_del(self):
        store = KeyValueStore()
        store.set(b"k", b"v")
        response, _ = store.execute(encode_command(b"DEL", b"k"))
        assert response == b":1\r\n"

    def test_execute_unknown_verb(self):
        store = KeyValueStore()
        with pytest.raises(ProtocolError):
            store.execute(encode_command(b"FLUSHALL"))

    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=8), st.binary(max_size=32)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_semantics(self, operations):
        store = KeyValueStore()
        reference = {}
        for key, value in operations:
            store.set(key, value)
            reference[key] = value
        for key, expected in reference.items():
            got, _ = store.get(key)
            assert got == expected

    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=8), st.binary(max_size=32)),
            max_size=50,
        ),
        st.sampled_from([None, 200]),
    )
    @settings(max_examples=40, deadline=None)
    def test_load_leaves_the_store_as_set_does(self, records, max_memory):
        loaded = KeyValueStore(max_memory_bytes=max_memory)
        loaded.load(records)
        reference = KeyValueStore(max_memory_bytes=max_memory)
        for key, value in records:
            reference.set(key, value)
        assert list(loaded._data.items()) == list(reference._data.items())
        assert loaded.memory_used == reference.memory_used
        assert loaded.stats == reference.stats


class TestMica:
    def test_put_get(self):
        store = MicaStore(partitions=4)
        store.put(b"key", b"value")
        value, _ = store.get(b"key")
        assert value == b"value"

    def test_get_missing(self):
        store = MicaStore(partitions=2)
        value, work = store.get(b"missing")
        assert value is None
        assert work.get("hash_probe") == 1.0

    def test_overwrite(self):
        store = MicaStore()
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        value, _ = store.get(b"k")
        assert value == b"v2"

    def test_partition_count_validated(self):
        with pytest.raises(ValueError):
            MicaStore(partitions=0)

    def test_batch_get(self):
        store = MicaStore()
        for i in range(10):
            store.put(b"key%d" % i, b"val%d" % i)
        keys = [b"key3", b"key7", b"keyX"]
        values, work = store.get_batch(keys)
        assert values == [b"val3", b"val7", None]
        assert work.get("hash_probe") == 3.0

    def test_lossy_eviction_under_pressure(self):
        """Tiny index: inserting many keys must evict, not error (MICA's
        lossy mode)."""
        store = MicaStore(partitions=1, buckets_per_partition=2,
                          log_bytes_per_partition=1 << 16)
        count = 2 * BUCKET_SLOTS * 4
        for i in range(count):
            store.put(b"key-%04d" % i, b"v")
        assert store.evictions > 0
        found = sum(
            1 for i in range(count) if store.get(b"key-%04d" % i)[0] is not None
        )
        assert 0 < found < count

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=6),
                              st.binary(min_size=1, max_size=24)), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_load_leaves_the_store_as_put_does(self, records):
        # A tiny index and log, so evictions and log wraps both happen.
        def store():
            return MicaStore(partitions=2, buckets_per_partition=2,
                             log_bytes_per_partition=512)

        loaded, reference = store(), store()
        loaded.load(records)
        for key, value in records:
            reference.put(key, value)
        assert loaded.evictions == reference.evictions
        for mine, theirs in zip(loaded.partitions, reference.partitions):
            assert mine.buckets == theirs.buckets
            assert (mine.head, mine.wrapped) == (theirs.head, theirs.wrapped)
            assert mine.log[:] == theirs.log[:]

    def test_lossy_bucket_evicts_oldest_slot(self):
        """One bucket: the ninth key evicts the first, and overwriting a
        key updates its slot in place without making it younger."""
        store = MicaStore(partitions=1, buckets_per_partition=1)
        keys = [b"key-%d" % i for i in range(BUCKET_SLOTS + 2)]
        for key in keys[: BUCKET_SLOTS + 1]:
            store.put(key, key.upper())
        assert store.evictions == 1
        assert store.get(keys[0])[0] is None
        store.put(keys[1], b"fresh")
        store.put(keys[-1], b"last")
        assert store.evictions == 2
        assert store.get(keys[1])[0] is None
        assert store.get(keys[2])[0] == keys[2].upper()
        assert store.get(keys[-1])[0] == b"last"

    def test_log_wrap_invalidates_old_entries(self):
        store = MicaStore(partitions=1, buckets_per_partition=64,
                          log_bytes_per_partition=1024)
        store.put(b"old", b"x" * 100)
        for i in range(30):
            store.put(b"new%d" % i, b"y" * 100)
        value, _ = store.get(b"old")
        assert value is None  # overwritten by the ring

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            MicaStore(log_bytes_per_partition=0)

    def test_log_read_after_write_and_unwritten_zeros(self):
        """The lazily zeroed partition log: appended records read back
        exactly, and the space past the head reads as zeros."""
        store = MicaStore(partitions=1)
        partition = store.partitions[0]
        offsets = {}
        for i in range(200):
            key, value = b"key-%03d" % i, bytes([i]) * (i + 1)
            offsets[key] = (partition._append(key, value), value)
        for key, (offset, value) in offsets.items():
            assert partition._read(offset, key) == value
        head, size = partition.head, len(partition.log)
        assert size == 1 << 22
        assert partition.log[head : head + 4096] == bytes(4096)
        assert partition.log[size - 4096 :] == bytes(4096)

    def test_record_too_large(self):
        store = MicaStore(partitions=1, log_bytes_per_partition=1 << 12)
        with pytest.raises(ValueError):
            store.put(b"k", b"v" * (1 << 13))

    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=12),
            st.binary(min_size=1, max_size=40),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_big_store_behaves_like_dict(self, mapping):
        store = MicaStore(partitions=4)
        for key, value in mapping.items():
            store.put(key, value)
        for key, expected in mapping.items():
            got, _ = store.get(key)
            assert got == expected
