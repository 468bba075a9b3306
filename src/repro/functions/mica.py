"""MICA-style partitioned key-value store (Lim et al., NSDI'14; §3.4).

The defining features reproduced here:

* **partitioned design** — keys hash to partitions, each owned by one
  core (no cross-core locking);
* **lossy bucket index** — fixed-size buckets of (tag, offset) slots with
  eviction on overflow, exactly MICA's lossy mode;
* **circular append log** — values live in a per-partition ring; old
  entries are overwritten and their index slots invalidated lazily.  The
  ring is a lazily zeroed anonymous mapping, so only the bytes appended
  so far are resident;
* **request batching** — clients submit GETs in batches (the paper runs
  batch sizes 4 and 32), which amortizes the per-message RDMA cost.

Work units per op: one hash probe for the bucket, one random access for
the log read, value-byte movement.  The per-batch transport cost is added
by the experiment layer (one RDMA message per batch).
"""

from __future__ import annotations

import mmap
import struct
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.work import WorkUnits

BUCKET_SLOTS = 8
# Log record: key length, value length, then the key and value bytes.
_RECORD_HEADER = struct.Struct("<HI")


def _hash64(key: bytes) -> int:
    value = 0xCBF29CE484222325
    for byte in key:
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    # murmur-style finalizer: FNV alone leaves the high bits poorly mixed
    # for short, similar keys, which would collapse tags into collisions.
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    return value


class _Partition:
    def __init__(self, buckets: int, log_bytes: int):
        # Each bucket maps tag -> log offset; tags are unique within a
        # bucket, and insertion order is age order for lossy eviction.
        self.buckets: List[Dict[int, int]] = [{} for _ in range(buckets)]
        self.log = mmap.mmap(-1, log_bytes)
        self.head = 0
        self.wrapped = False

    def _append(self, key: bytes, value: bytes) -> int:
        size = _RECORD_HEADER.size + len(key) + len(value)
        log = self.log
        if size > len(log):
            raise ValueError("record larger than partition log")
        if self.head + size > len(log):
            self.head = 0
            self.wrapped = True
        offset = self.head
        log[offset : offset + size] = _RECORD_HEADER.pack(len(key), len(value)) + key + value
        self.head = offset + size
        return offset

    def _read(self, offset: int, key: bytes) -> Optional[bytes]:
        key_length, value_length = _RECORD_HEADER.unpack_from(self.log, offset)
        start = offset + _RECORD_HEADER.size
        if self.log[start : start + key_length] != key:
            return None  # overwritten by log wrap or tag collision
        start += key_length
        return self.log[start : start + value_length]


class MicaStore:
    """The store; ``partitions`` should match serving cores."""

    def __init__(self, partitions: int = 8, buckets_per_partition: int = 4096,
                 log_bytes_per_partition: int = 1 << 22):
        if partitions < 1:
            raise ValueError("need at least one partition")
        if log_bytes_per_partition < 1:
            raise ValueError("need a non-empty partition log")
        self.partitions = [
            _Partition(buckets_per_partition, log_bytes_per_partition)
            for _ in range(partitions)
        ]
        self.evictions = 0

    def _locate(self, key: bytes) -> Tuple[_Partition, Dict[int, int], int]:
        h = _hash64(key)
        partition = self.partitions[h % len(self.partitions)]
        bucket = partition.buckets[(h >> 16) % len(partition.buckets)]
        return partition, bucket, (h >> 48) & 0xFFFF

    def _insert(self, key: bytes, value: bytes) -> None:
        partition, bucket, tag = self._locate(key)
        offset = partition._append(key, value)
        if tag not in bucket and len(bucket) >= BUCKET_SLOTS:
            del bucket[next(iter(bucket))]  # lossy eviction of the oldest slot
            self.evictions += 1
        bucket[tag] = offset  # an existing slot keeps its age

    def load(self, records: Iterable[Tuple[bytes, bytes]]) -> None:
        """Insert ``(key, value)`` records, as a prefill does: the store
        ends up as after :meth:`put` on each, without the per-operation
        work tallies nobody reads."""
        for key, value in records:
            self._insert(key, value)

    def put(self, key: bytes, value: bytes) -> WorkUnits:
        self._insert(key, value)
        return WorkUnits(
            {
                "hash_probe": 1.0,
                "mem_random_access": 1.0,
                "kv_value_byte": float(len(value)),
            }
        )

    def get(self, key: bytes) -> Tuple[Optional[bytes], WorkUnits]:
        partition, bucket, tag = self._locate(key)
        work = WorkUnits({"hash_probe": 1.0})
        offset = bucket.get(tag)
        if offset is not None:
            work.add("mem_random_access", 1.0)
            value = partition._read(offset, key)
            if value is not None:
                work.add("kv_value_byte", float(len(value)))
                return value, work
        return None, work

    def get_batch(self, keys: List[bytes]) -> Tuple[List[Optional[bytes]], WorkUnits]:
        """Batched GET: one transport message carries ``len(keys)`` ops."""
        total = WorkUnits()
        values: List[Optional[bytes]] = []
        for key in keys:
            value, work = self.get(key)
            values.append(value)
            total.merge(work)
        return values, total
