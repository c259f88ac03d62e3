"""The sharded volume pool: many FileStores behind one byte space.

A :class:`VolumePool` splits a fixed stripe space across ``num_shards``
independent :class:`~repro.array.filestore.FileStore` volumes using a
:class:`~repro.service.sharding.ShardingPolicy`, and pairs each shard
with its own :class:`~repro.service.locks.ShardLock`.  The pool itself
holds no mutable state after construction — every byte lives in some
shard's store, every synchronization decision lives in that shard's
lock — which is what makes flushes, journal checkpoints, and rebuilds
on one shard invisible to the others.

The pool does **not** acquire locks itself: the scheduler (or any
direct caller) brackets each call in ``pool.lock(shard)`` — write mode
for ops, read mode for snapshots.  That split keeps lock scope visible
at the call site and lets the scheduler hold one acquisition across an
op that issues several store calls.

Ops are byte-addressed against the *global* volume and must fall
within a single stripe (the service trace generator guarantees this),
so each op routes to exactly one shard.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ..array.filestore import FileStore
from ..array.iostats import IOStats
from ..exceptions import InvalidParameterError, ServiceError
from .locks import ShardLock
from .sharding import ShardingPolicy, build_shard_map, make_policy

if TYPE_CHECKING:
    from ..codes.base import ArrayCode


class VolumePool:
    """A fixed-size volume sharded over independent FileStores.

    ``engine=`` accepts any kernel-backend name from
    :data:`repro.engine.ENGINE_CHOICES` (``vector``, ``native``,
    ``auto``, or the pure-Python reference path) and applies it to
    every shard's store, so encode, flush, and rebuild work inside the
    shard workers all run on the selected backend.
    """

    def __init__(
        self,
        code_name: str,
        p: int,
        *,
        num_stripes: int,
        element_size: int = 4096,
        num_shards: int = 4,
        policy: "str | ShardingPolicy" = "range",
        engine: str = "vector",
        cache_stripes: int = 0,
        journal: bool | None = None,
    ) -> None:
        # Deferred: the registry pulls in every code class, and importing
        # it at module scope closes a codes -> service cycle.
        from ..codes.registry import get_code

        if num_stripes < num_shards:
            raise InvalidParameterError(
                f"{num_stripes} stripe(s) cannot populate {num_shards} shards"
            )
        self.code_name = code_name
        self.p = p
        self.policy = make_policy(policy, num_shards)
        self.num_stripes = num_stripes
        self.element_size = element_size
        self._shard_of, self._local_of, counts = build_shard_map(
            self.policy, num_stripes
        )
        #: each shard gets its *own* code instance: ArrayCode caches
        #: layout tables lazily, and per-shard instances keep that
        #: warm-up inside the shard's lock instead of racing across it.
        self.shards: list[FileStore] = []
        self.locks: list[ShardLock] = []
        for count in counts:
            code: "ArrayCode" = get_code(code_name, p)
            store = FileStore(
                code,
                element_size=element_size,
                engine=engine,
                cache_stripes=cache_stripes,
                journal=journal,
            )
            store.reserve(count)
            self.shards.append(store)
            self.locks.append(ShardLock())
        self.bytes_per_stripe = self.shards[0].bytes_per_stripe

    # -- geometry ----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def capacity(self) -> int:
        """Total addressable bytes across all shards."""
        return self.num_stripes * self.bytes_per_stripe

    def lock(self, shard: int) -> ShardLock:
        return self.locks[self._check_shard(shard)]

    def locate(self, offset: int, size: int) -> tuple[int, int]:
        """Route a global byte range to ``(shard, local offset)``.

        The range must fall inside one stripe — the addressing contract
        that makes every op single-shard (and single-lock).
        """
        if offset < 0 or size < 1:
            raise InvalidParameterError("offset must be >= 0 and size >= 1")
        if offset + size > self.capacity:
            raise InvalidParameterError(
                f"range [{offset}, {offset + size}) beyond "
                f"capacity {self.capacity}"
            )
        stripe_idx, within = divmod(offset, self.bytes_per_stripe)
        if within + size > self.bytes_per_stripe:
            raise ServiceError(
                f"op [{offset}, {offset + size}) spans stripes "
                f"{stripe_idx} and {stripe_idx + 1}; service ops must "
                "stay inside one stripe"
            )
        shard = int(self._shard_of[stripe_idx])
        local = int(self._local_of[stripe_idx])
        return shard, local * self.bytes_per_stripe + within

    def shard_of_stripe(self, stripe_idx: int) -> int:
        if not 0 <= stripe_idx < self.num_stripes:
            raise InvalidParameterError(
                f"stripe {stripe_idx} outside 0..{self.num_stripes - 1}"
            )
        return int(self._shard_of[stripe_idx])

    def _check_shard(self, shard: int) -> int:
        if not 0 <= shard < self.num_shards:
            raise InvalidParameterError(
                f"shard {shard} outside 0..{self.num_shards - 1}"
            )
        return shard

    # -- ops (caller holds the shard's write lock) -------------------------------

    def read(self, shard: int, local_offset: int, size: int) -> bytes:
        return self.shards[self._check_shard(shard)].read(local_offset, size)

    def write(self, shard: int, local_offset: int, data: bytes) -> None:
        self.shards[self._check_shard(shard)].write(local_offset, data)

    def flush(self, shard: int) -> int:
        return self.shards[self._check_shard(shard)].flush()

    def fail_disk(self, shard: int, disk: int) -> None:
        self.shards[self._check_shard(shard)].fail_disk(disk)

    def rebuild(self, shard: int, disk: int) -> None:
        self.shards[self._check_shard(shard)].rebuild(disk)

    def flush_all(self) -> int:
        """Flush every shard (each under its own write lock)."""
        flushed = 0
        for shard, store in enumerate(self.shards):
            with self.locks[shard].write_locked():
                flushed += store.flush()
        return flushed

    # -- snapshots (read-locked) -------------------------------------------------

    def merged_stats(self) -> IOStats:
        """The pool-wide I/O ledger: every shard's counters, summed.

        Takes each shard's read lock in turn — a live sample during a
        run sees each shard at *some* consistent point without stalling
        ops on the others.
        """
        parts = []
        for shard, store in enumerate(self.shards):
            with self.locks[shard].read_locked():
                parts.append(store.stats.copy())
        return IOStats.merged(self.shards[0].code.cols, parts)

    def shard_stats(self) -> list[dict]:
        """Per-shard counter snapshot (stripes, dirty, totals)."""
        rows = []
        for shard, store in enumerate(self.shards):
            with self.locks[shard].read_locked():
                rows.append(
                    {
                        "shard": shard,
                        "engine": store.engine,
                        "stripes": len(store.stripes),
                        "failed_disks": sorted(store.failed_disks),
                        "reads": store.stats.total_reads,
                        "writes": store.stats.total_writes,
                        "data_writes": store.data_writes,
                        "parity_writes": store.parity_writes,
                        "journal_records": store.stats.journal_records,
                        "dirty": len(store.cache) if store.cache else 0,
                    }
                )
        return rows

    def content_digest(self) -> str:
        """SHA-256 over every stripe buffer in global stripe order.

        Flush first: the digest covers parity bytes, and deferred
        deltas would make two logically-identical pools hash apart.
        Erasure state is folded in so a degraded pool never collides
        with a healthy one.
        """
        h = hashlib.sha256()
        for idx in range(self.num_stripes):
            shard = int(self._shard_of[idx])
            local = int(self._local_of[idx])
            with self.locks[shard].read_locked():
                stripe = self.shards[shard].stripes[local]
                h.update(stripe.data.tobytes())
                h.update(stripe.erased.tobytes())
        for store in self.shards:
            h.update(bytes(sorted(store.failed_disks)))
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"VolumePool({self.code_name}@p={self.p}, "
            f"shards={self.num_shards}, stripes={self.num_stripes}, "
            f"policy={self.policy.name})"
        )
