"""Tests for the RAMDisk, NVMe-oF target, and fio-style engine."""

import numpy as np
import pytest

from repro.functions.storage import (
    FioEngine,
    FioJobSpec,
    IoKind,
    NvmeCommand,
    NvmeOfTarget,
    RamDisk,
    StorageError,
)


class TestRamDisk:
    def test_capacity_alignment_enforced(self):
        with pytest.raises(ValueError):
            RamDisk(capacity_bytes=1000, block_bytes=4096)

    def test_write_read_roundtrip(self):
        disk = RamDisk(1 << 20)
        payload = bytes(range(256)) * 16  # one 4K block
        disk.write(5, payload)
        assert disk.read(5, 1) == payload

    def test_fresh_disk_reads_zero(self):
        disk = RamDisk(1 << 16)
        assert disk.read(0, 1) == b"\x00" * 4096

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            RamDisk(0)

    def test_read_after_write_and_unwritten_zeros(self):
        """The lazily zeroed buffer: written blocks read back exactly,
        every other block, including its neighbours, reads as zeros."""
        disk = RamDisk(8 << 20)
        rng = np.random.default_rng(3)
        written = {}
        for lba in (0, 7, 9, 1000, disk.block_count - 2):
            payload = bytes(rng.integers(0, 256, size=2 * 4096, dtype=np.uint8))
            disk.write(lba, payload)
            written[lba] = payload
        for lba, payload in written.items():
            assert disk.read(lba, 2) == payload
        zero_block = bytes(4096)
        touched = {lba + i for lba in written for i in range(2)}
        for lba in (2, 6, 11, 999, 1002, disk.block_count // 2):
            assert lba not in touched
            assert disk.read(lba, 1) == zero_block
        assert disk.capacity_bytes == 8 << 20

    def test_out_of_range_rejected(self):
        disk = RamDisk(1 << 16)  # 16 blocks
        with pytest.raises(StorageError):
            disk.read(16, 1)
        with pytest.raises(StorageError):
            disk.read(-1, 1)

    def test_unaligned_write_rejected(self):
        disk = RamDisk(1 << 16)
        with pytest.raises(StorageError):
            disk.write(0, b"tiny")


class TestNvmeOfTarget:
    @pytest.fixture
    def target(self):
        target = NvmeOfTarget()
        target.add_namespace(1, RamDisk(1 << 20))
        return target

    def test_identify(self, target):
        completion, _ = target.submit(NvmeCommand("identify"))
        assert completion.status == 0
        assert b"1:256" in completion.data

    def test_write_then_read(self, target):
        payload = b"\xab" * 4096
        completion, _ = target.submit(NvmeCommand("write", 1, lba=3, payload=payload))
        assert completion.status == 0
        completion, work = target.submit(NvmeCommand("read", 1, lba=3, blocks=1))
        assert completion.data == payload
        assert work.get("io_block_byte") == 4096.0

    def test_unknown_namespace(self, target):
        completion, _ = target.submit(NvmeCommand("read", 9, lba=0, blocks=1))
        assert completion.status == 1

    def test_out_of_range_io_fails_gracefully(self, target):
        completion, _ = target.submit(NvmeCommand("read", 1, lba=10_000, blocks=1))
        assert completion.status == 2

    def test_duplicate_namespace_rejected(self, target):
        with pytest.raises(StorageError):
            target.add_namespace(1, RamDisk(1 << 16))

    def test_unknown_opcode(self, target):
        completion, _ = target.submit(NvmeCommand("trim", 1))
        assert completion.status == 3


class TestFioEngine:
    @pytest.fixture
    def engine(self):
        target = NvmeOfTarget()
        target.add_namespace(1, RamDisk(8 << 20))
        return FioEngine(target, 1, np.random.default_rng(0))

    def test_randread_job(self, engine):
        job = FioJobSpec(kind=IoKind.READ, operations=50)
        errors, work = engine.run(job)
        assert errors == 0
        assert work.get("io_request") == 50.0
        assert work.get("io_block_byte") == 50.0 * 64 * 1024

    def test_randwrite_job(self, engine):
        job = FioJobSpec(kind=IoKind.WRITE, operations=30)
        errors, work = engine.run(job)
        assert errors == 0
        assert work.get("io_block_byte") == 30.0 * 64 * 1024

    def test_block_size_below_device_block_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.run(FioJobSpec(block_bytes=1024, operations=1))

    def test_writes_visible_to_reads(self):
        target = NvmeOfTarget()
        target.add_namespace(1, RamDisk(8 << 20))
        writer = FioEngine(target, 1, np.random.default_rng(1))
        writer.run(FioJobSpec(kind=IoKind.WRITE, operations=200))
        disk = target.namespaces[1]
        nonzero = sum(1 for lba in range(0, disk.block_count, 16)
                      if any(disk.read(lba, 1)))
        assert nonzero > 0
