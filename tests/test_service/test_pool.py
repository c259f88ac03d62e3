"""Tests for the sharded VolumePool."""

import pytest

from repro.exceptions import InvalidParameterError, ServiceError
from repro.service import VolumePool


def small_pool(**kw):
    kw.setdefault("num_stripes", 8)
    kw.setdefault("element_size", 32)
    kw.setdefault("num_shards", 2)
    return VolumePool("HV", 5, **kw)


class TestGeometry:
    def test_capacity_and_reservation(self):
        pool = small_pool()
        assert pool.capacity == 8 * pool.bytes_per_stripe
        # every shard is pre-encoded out to its share of the stripes
        assert sum(len(s.stripes) for s in pool.shards) == 8

    def test_too_few_stripes_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_pool(num_stripes=1, num_shards=2)

    def test_locate_respects_policy(self):
        pool = small_pool(policy="range")
        bps = pool.bytes_per_stripe
        for stripe in range(8):
            shard, local = pool.locate(stripe * bps + 7, 3)
            assert shard == pool.shard_of_stripe(stripe)
            assert local % bps == 7

    def test_locate_rejects_spanning_ops(self):
        pool = small_pool()
        bps = pool.bytes_per_stripe
        with pytest.raises(ServiceError):
            pool.locate(bps - 1, 2)

    def test_locate_rejects_bad_ranges(self):
        pool = small_pool()
        with pytest.raises(InvalidParameterError):
            pool.locate(-1, 4)
        with pytest.raises(InvalidParameterError):
            pool.locate(0, 0)
        with pytest.raises(InvalidParameterError):
            pool.locate(pool.capacity, 1)

    def test_shard_index_checked(self):
        pool = small_pool()
        with pytest.raises(InvalidParameterError):
            pool.lock(2)
        with pytest.raises(InvalidParameterError):
            pool.read(5, 0, 4)


class TestOps:
    def test_write_read_roundtrip(self):
        pool = small_pool()
        shard, local = pool.locate(pool.bytes_per_stripe * 3 + 11, 5)
        pool.write(shard, local, b"hello")
        assert pool.read(shard, local, 5) == b"hello"

    def test_reads_ahead_of_writes_are_zero(self):
        pool = small_pool()
        shard, local = pool.locate(0, 16)
        assert pool.read(shard, local, 16) == b"\x00" * 16

    def test_fail_and_rebuild_are_shard_local(self):
        pool = small_pool(cache_stripes=2)
        shard, local = pool.locate(0, 8)
        pool.write(shard, local, b"payload!")
        pool.fail_disk(shard, 0)
        other = 1 - shard
        assert pool.shards[shard].failed_disks == {0}
        assert pool.shards[other].failed_disks == set()
        assert pool.read(shard, local, 8) == b"payload!"  # degraded read
        pool.rebuild(shard, 0)
        assert pool.shards[shard].failed_disks == set()

    def test_flush_all_lands_deferred_parity(self):
        pool = small_pool(cache_stripes=4)
        for stripe in range(8):
            shard, local = pool.locate(stripe * pool.bytes_per_stripe, 4)
            pool.write(shard, local, b"abcd")
        assert pool.flush_all() > 0
        assert all(
            len(store.cache) == 0 for store in pool.shards if store.cache
        )


class TestSnapshots:
    def test_merged_stats_sums_shards(self):
        pool = small_pool()
        for stripe in range(8):
            shard, local = pool.locate(stripe * pool.bytes_per_stripe, 4)
            pool.write(shard, local, b"wxyz")
        merged = pool.merged_stats()
        assert merged.total_writes == sum(
            s.stats.total_writes for s in pool.shards
        )
        assert merged.total_reads == sum(
            s.stats.total_reads for s in pool.shards
        )

    def test_shard_stats_rows(self):
        pool = small_pool(cache_stripes=2)
        rows = pool.shard_stats()
        assert [r["shard"] for r in rows] == [0, 1]
        assert sum(r["stripes"] for r in rows) == 8

    def test_content_digest_tracks_content(self):
        pool = small_pool()
        before = pool.content_digest()
        assert before == small_pool().content_digest()  # deterministic
        shard, local = pool.locate(0, 4)
        pool.write(shard, local, b"dead")
        pool.flush_all()
        assert pool.content_digest() != before

    def test_content_digest_sees_erasures(self):
        pool = small_pool()
        before = pool.content_digest()
        pool.fail_disk(0, 1)
        assert pool.content_digest() != before

    def test_repr(self):
        assert "shards=2" in repr(small_pool())
