"""Run one benchmark workload in this process and print its result.

``run.py`` starts this file in a fresh interpreter with the checkout's
``src`` on ``PYTHONPATH``; it can also be run directly the same way::

    PYTHONPATH=src python3 perfbench/workload.py --workload degraded-rebuild \
        --seed 1 --seconds 35 --trace 0

Every workload drives HV Code (``engine="auto"``) through the public
``VolumePool`` + ``RequestScheduler`` API with one worker and a queue
depth of 32: one generator thread submits with blocking ``submit``, so
at most 33 ops are outstanding (a closed loop at a fixed iodepth).
A run is: set up the pool several times (``setup_s`` is the median);
serve the trace in segments (the timed window ends after the final
``flush_all``), with chunks of the timed rebuild phase running on a
spare pool between segments; restore the disks failed at set-up; then
check the result against a shadow model and a single-threaded replay.
With ``--trace 1`` the same pass runs twice, untraced then traced, and
the per-layer metrics come from the traced pass.  See README.md.

The last stdout line is the result object; the line before it holds
the details (fingerprint, sample counts, read latencies, checks).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

import repro
from repro.codes.registry import get_code
from repro.engine import PLAN_CACHE, resolve_backend
from repro.exceptions import ReproError
from repro.service import Op, RequestScheduler, VolumePool
from repro.service.sharding import build_shard_map, make_policy
from repro.workloads.service import ServiceTrace, service_trace

CODE = "HV"
ENGINE = "auto"
NUM_SHARDS = 4
WORKERS = 1
QUEUE_DEPTH = 32
#: Set-up is repeated until SETUP_BUDGET_S of it has run, between
#: SETUP_MIN and SETUP_MAX times; ``setup_s`` is the median.
SETUP_BUDGET_S = 0.5
SETUP_MIN, SETUP_MAX = 5, 50
#: The window is served in up to MAX_SEGMENTS segments, each of at
#: least MIN_SEGMENT_OPS ops; ``p99_ms`` is the median of the segments'
#: p99s (so each p99 has at least ten samples beyond it).
MAX_SEGMENTS = 30
MIN_SEGMENT_OPS = 1000
#: A client flushes a shard after writing this many bytes to it, like
#: an fsync cadence.  The intent journal is only truncated when a
#: shard's cache drains, so without a sync a sustained write stream
#: grows it without bound (bulk-write: ~380 MB after 800 ops).
SYNC_BYTES = 16 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    element_size: int
    num_stripes: int
    cache_stripes: int
    write_fraction: float
    zipf_skew: float
    max_op_bytes: int
    #: one disk per shard is failed at set-up (degraded serving).
    degraded: bool
    #: rebuild-phase cycles per second of ``--seconds``; in each cycle,
    #: every shard has a single disk failure rebuilt, then a double one.
    rebuild_cycles_per_second: float
    #: ops per second of ``--seconds`` (op count = rate x seconds, so
    #: a run's counts are a pure function of workload, seed, seconds).
    ops_per_second: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk-write", p=11, element_size=64 << 10, num_stripes=32, cache_stripes=2,
            write_fraction=1.0, zipf_skew=1.1, max_op_bytes=2 * (11 - 1) * (64 << 10),
            degraded=False, rebuild_cycles_per_second=0.6, ops_per_second=380,
        ),
        Workload(
            name="degraded-rebuild", p=7, element_size=4096, num_stripes=64, cache_stripes=4,
            write_fraction=0.1, zipf_skew=1.2, max_op_bytes=16384, degraded=True,
            rebuild_cycles_per_second=5.0, ops_per_second=3300,
        ),
    )
}


@dataclass
class Inputs:
    """Everything a run feeds the stack, derived from the seed."""

    seconds: float
    trace: ServiceTrace
    payload_pool: bytes
    payload_start: np.ndarray
    initial_failures: list  # disk per shard, or empty
    cycles: list  # per shard: (single failure, double failure pair)


def make_inputs(spec: Workload, seed: int, seconds: float) -> Inputs:
    num_ops = max(1, round(spec.ops_per_second * seconds))
    code = get_code(CODE, spec.p)
    bytes_per_stripe = code.data_elements_per_stripe * spec.element_size
    trace = service_trace(
        spec.num_stripes,
        bytes_per_stripe,
        num_ops,
        write_fraction=spec.write_fraction,
        zipf_skew=spec.zipf_skew,
        max_op_bytes=spec.max_op_bytes,
        seed=seed,
    )
    trace = deal_hot_stripes(trace, spec.num_stripes, bytes_per_stripe)
    rng = np.random.default_rng([seed, 1])
    slack = 1 << 16
    payload_pool = rng.bytes(spec.max_op_bytes + slack)
    payload_start = rng.integers(0, slack, size=num_ops)
    # Which disks fail does not depend on the seed either: decode and
    # rebuild cost depend on the lost columns.  Every rebuild cycle
    # repeats the same pattern, a different one on each shard.
    cols = code.cols
    failures = [shard % cols for shard in range(NUM_SHARDS)] if spec.degraded else []
    cycles = [(s % cols, (s + 1) % cols, (s + 3) % cols) for s in range(NUM_SHARDS)]
    return Inputs(seconds, trace, payload_pool, payload_start, failures, cycles)


def deal_hot_stripes(trace: ServiceTrace, num_stripes: int, bytes_per_stripe: int) -> ServiceTrace:
    """Move stripes so popularity ranks are dealt round-robin over shards.

    ``service_trace`` places the Zipf ranks on stripes by a seeded
    permutation, so under range sharding one seed piles the hot set on
    one shard and the next spreads it.  The shard shares then set the
    queueing of the one worker, and latency would change more from
    seed to seed than from any code change.  Dealing the ranks keeps
    each seed's op sequence and Zipf law but fixes the layout: the
    hottest stripe on shard 0, the next on shard 1, and so on.
    """
    shard_of, local_of, _ = build_shard_map(make_policy("range", NUM_SHARDS), num_stripes)
    stripe_at = {(int(s), int(l)): g for g, (s, l) in enumerate(zip(shard_of, local_of))}
    stripes = trace.offsets // bytes_per_stripe
    counts = np.bincount(stripes, minlength=num_stripes)
    ranked = np.lexsort((np.arange(num_stripes), -counts))  # hottest first
    moved = np.empty(num_stripes, dtype=np.int64)
    for rank, stripe in enumerate(ranked):
        moved[stripe] = stripe_at[(rank % NUM_SHARDS, rank // NUM_SHARDS)]
    return ServiceTrace(
        trace.name + "_dealt",
        dict(trace.params, hot_stripes="dealt-over-shards"),
        trace.clients,
        trace.writes,
        moved[stripes] * bytes_per_stripe + trace.offsets % bytes_per_stripe,
        trace.sizes,
    )


def new_pool(spec: Workload, **options) -> VolumePool:
    return VolumePool(
        CODE,
        spec.p,
        num_stripes=spec.num_stripes,
        element_size=spec.element_size,
        num_shards=NUM_SHARDS,
        policy="range",
        **options,
    )


def build_pool(spec: Workload, inputs: Inputs, healthy: bool = False) -> VolumePool:
    """Set-up: a cold plan cache, the pool, and the failure injection
    (skipped for ``healthy``, the spare pool the rebuild phase uses)."""
    if not healthy:
        PLAN_CACHE.clear()
    pool = new_pool(spec, engine=ENGINE, cache_stripes=spec.cache_stripes, journal=True)
    for shard, disk in enumerate([] if healthy else inputs.initial_failures):
        pool.fail_disk(shard, disk)
    return pool


def replay_digest(spec: Workload, inputs: Inputs) -> str:
    """The oracle: the trace's writes replayed single-threaded, in trace
    order, through the public pool API on a healthy pool that differs
    from the served one on every axis it can: the pure-Python reference
    engine, no journal, and a cache that holds every stripe, so parity
    lands once, in the final flush, by the reference chain walk."""
    pool = new_pool(
        spec, engine="python", cache_stripes=-(-spec.num_stripes // NUM_SHARDS), journal=False
    )
    trace = inputs.trace
    for i in np.flatnonzero(trace.writes).tolist():
        size, start = int(trace.sizes[i]), int(inputs.payload_start[i])
        shard, local = pool.locate(int(trace.offsets[i]), size)
        pool.write(shard, local, inputs.payload_pool[start : start + size])
    pool.flush_all()
    return pool.content_digest()


def percentile_ms(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


class Pass:
    """One served pass over a freshly set-up pool, and its checks.

    The window is served in segments.  Between segments the scheduler
    is drained and a chunk of the rebuild phase runs on ``spare``, a
    healthy pool of the same shape, so serving and rebuild are both
    sampled across the whole pass rather than in two separate stretches
    of host time.
    """

    def __init__(self, spec, inputs, pool, spare, tracer=None):
        self.spec = spec
        self.inputs = inputs
        self.rebuild_cycles = max(1, round(spec.rebuild_cycles_per_second * inputs.seconds))
        self.pool = pool
        self.spare = spare
        self.shadow = bytearray(pool.capacity)
        self.tracer = tracer
        self.failures: dict[str, int] = {}
        self.attempted = 0
        #: plan-cache lookups made by the rebuild chunks, kept out of
        #: the window's plan-cache figures
        self.rebuild_plans = {"hits": 0, "misses": 0, "evictions": 0}

    def fail(self, what: str, amount: int = 1) -> None:
        if amount:
            self.failures[what] = self.failures.get(what, 0) + amount

    # -- the timed window ------------------------------------------------

    def serve(self) -> dict:
        pool, trace, tracer = self.pool, self.inputs.trace, self.tracer
        shadow = self.shadow
        n = len(trace)
        shard_of = np.array([pool.shard_of_stripe(i) for i in range(pool.num_stripes)])
        offsets, sizes, writes = trace.offsets.tolist(), trace.sizes.tolist(), trace.writes.tolist()
        shards = shard_of[trace.offsets // pool.bytes_per_stripe].tolist()
        starts, payloads = self.inputs.payload_start.tolist(), self.inputs.payload_pool
        user_write_bytes = int(trace.sizes[trace.writes].sum())
        # One slot per op (its trace index), then one per flush barrier.
        # Timestamps live in flat float lists: per-op objects would be
        # garbage-collector work inside the timed window.
        slots = n + user_write_bytes // SYNC_BYTES + pool.num_shards
        submitted, returned, completed, locked = ([0.0] * slots for _ in range(4))
        # Per-shard FIFOs of (slot, expected read bytes): the scheduler
        # serves each shard in submission order, so the n-th pool call
        # on a shard answers the n-th op submitted to it.
        done = [deque() for _ in range(pool.num_shards)]
        lock_fifo = [deque() for _ in range(pool.num_shards)]
        mismatches = [0]
        clock = time.perf_counter
        originals = {name: getattr(pool, name) for name in ("read", "write", "flush")}
        if tracer is not None:
            originals = {name: tracer.wrap(f"pool.{name}", fn) for name, fn in originals.items()}

        def read(shard, local, size):
            try:
                data = originals["read"](shard, local, size)
            finally:
                slot, expected = done[shard].popleft()
                completed[slot] = clock()
            if data != expected:
                mismatches[0] += 1
            return data

        def write(shard, local, payload):
            try:
                originals["write"](shard, local, payload)
            finally:
                slot, _ = done[shard].popleft()
                completed[slot] = clock()

        def flush(shard):
            try:
                return originals["flush"](shard)
            finally:
                slot, _ = done[shard].popleft()
                completed[slot] = clock()

        pool.read, pool.write, pool.flush = read, write, flush
        restore = None
        if tracer is not None:
            from instrument import instrument

            def lock_request(shard):
                slot = lock_fifo[shard].popleft()
                tracer.set_op(slot)
                locked[slot] = clock()

            restore = instrument(tracer, [pool, self.spare], lock_request)

        count = int(np.clip(n // MIN_SEGMENT_OPS, 1, MAX_SEGMENTS))
        bounds = np.linspace(0, n, count + 1).astype(int).tolist()
        cycles = self.rebuild_cycles
        sync_left = [SYNC_BYTES] * pool.num_shards
        before = self._counters()
        gc.collect()
        sch = RequestScheduler(pool, workers=WORKERS, queue_depth=QUEUE_DEPTH).start()
        submit = sch.submit if tracer is None else tracer.wrap("service.admit", sch.submit)

        def issue(shard, slot, op, expected=None):
            done[shard].append((slot, expected))
            if tracer is not None:
                lock_fifo[shard].append(slot)
                tracer.set_op(slot)
            submitted[slot] = clock()
            submit(op)
            returned[slot] = clock()

        barrier = n
        segment_slots = []  # (first barrier slot, end barrier slot) per segment
        segment_s = []
        rebuild_bytes, rebuild_s = [], []
        for k in range(count):
            first_barrier = barrier
            t_start = clock()
            for i in range(bounds[k], bounds[k + 1]):
                offset, size, shard = offsets[i], sizes[i], shards[i]
                if writes[i]:
                    payload = payloads[starts[i] : starts[i] + size]
                    shadow[offset : offset + size] = payload
                    issue(shard, i, Op("write", offset=offset, payload=payload))
                    sync_left[shard] -= size
                    if sync_left[shard] <= 0:
                        sync_left[shard] = SYNC_BYTES
                        issue(shard, barrier, Op("flush", shard=shard))
                        barrier += 1
                else:
                    expected = bytes(shadow[offset : offset + size])
                    issue(shard, i, Op("read", offset=offset, size=size), expected)
            sch.drain()
            if k == count - 1:
                pool.flush_all()  # deferred parity is paid inside the window
            segment_s.append(clock() - t_start)
            segment_slots.append((first_barrier, barrier))
            chunk = (k + 1) * cycles // count - k * cycles // count
            if chunk:
                if tracer is not None:
                    tracer.set_phase("rebuild")
                restored, seconds = self.rebuild_chunk(chunk)
                rebuild_bytes.append(restored)
                rebuild_s.append(seconds)
                if tracer is not None:
                    tracer.set_phase("window")
        stats = sch.close()
        if restore is not None:
            restore()
        for name in ("read", "write", "flush"):
            delattr(pool, name)

        sub, ret, comp, lock = (
            np.array(column[:barrier]) for column in (submitted, returned, completed, locked)
        )
        response = (comp - sub)[:n]
        is_write = trace.writes
        # A worker can ask for the lock before submit has returned.
        queue_wait = float(np.maximum(lock - ret, 0.0)[lock > 0].sum())
        dispatch = 0.0
        if tracer is not None:
            # The one worker's time between finishing an op and asking
            # for the next op's lock (dequeue, bookkeeping, wake-ups),
            # within each segment.
            for k, (b0, b1) in enumerate(segment_slots):
                seg = np.r_[bounds[k] : bounds[k + 1], b0:b1]
                order = seg[np.argsort(lock[seg])]
                dispatch += float(np.maximum(lock[order][1:] - comp[order][:-1], 0.0).sum())
        self.attempted += barrier
        self.fail("op_errors", stats.statuses.get("error", 0) + stats.statuses.get("expired", 0))
        self.fail("read_mismatches", mismatches[0])
        after = self._counters()
        wall = sum(segment_s)
        segments = {
            "ops_per_s": [(bounds[k + 1] - bounds[k]) / segment_s[k] for k in range(count)],
            "p50_ms": [percentile_ms(response[bounds[k] : bounds[k + 1]], 50) for k in range(count)],
            "p99_ms": [percentile_ms(response[bounds[k] : bounds[k + 1]], 99) for k in range(count)],
        }
        return {
            "wall_s": wall,
            "segments": segments,
            "ops_per_s": n / wall,
            "ops": n,
            "flush_barriers": barrier - n,
            "segment_median_ops_per_s": statistics.median(segments["ops_per_s"]),
            "latency": {"read": response[~is_write], "write": response[is_write]},
            "queue_wait_s": queue_wait,
            "dispatch_s": dispatch,
            "user_write_bytes": user_write_bytes,
            "delta": {k: after[k] - before[k] for k in after},
            "backpressure_waits": stats.backpressure_waits,
            "errors": stats.errors[:3],
            "rebuild": {
                "chunk_MBps": [b / t / 1e6 for b, t in zip(rebuild_bytes, rebuild_s)],
                "MBps": sum(rebuild_bytes) / sum(rebuild_s) / 1e6,
            },
        }

    def _counters(self) -> dict:
        io = self.pool.merged_stats()
        totals = {
            "device_reads": io.total_reads,
            "device_writes": io.total_writes,
            "journal_bytes": io.journal_bytes,
            "flushed_elements": io.flushed_elements,
            "flush_batches": io.flush_batches,
            "data_writes": sum(s.data_writes for s in self.pool.shards),
            "parity_writes": sum(s.parity_writes for s in self.pool.shards),
        }
        for key in ("hits", "misses", "evictions"):
            totals[f"cache_{key}"] = sum(s.cache.stats()[key] for s in self.pool.shards)
        plans = PLAN_CACHE.stats()
        for key in ("hits", "misses", "evictions"):
            totals[f"plan_{key}"] = plans[key] - self.rebuild_plans[key]
        return totals

    # -- the rebuild phase ---------------------------------------------------

    def rebuild_chunk(self, cycles: int) -> tuple[int, float]:
        """Run ``cycles`` fail/rebuild cycles on the spare pool; return
        the lost-column bytes restored and the seconds it took.

        In each cycle every shard loses one disk, which is rebuilt, then
        two, which are rebuilt one after the other.
        """
        spare = self.spare
        per_cycle = sum(len(s.stripes) * s.code.rows * self.spec.element_size for s in spare.shards)
        restored = 3 * cycles * per_cycle
        plans = PLAN_CACHE.stats()
        t0 = time.perf_counter()
        try:
            for _ in range(cycles):
                for shard in range(spare.num_shards):
                    single, first, second = self.inputs.cycles[shard]
                    with spare.lock(shard).write_locked():
                        spare.fail_disk(shard, single)
                        spare.rebuild(shard, single)
                        spare.fail_disk(shard, first)
                        spare.fail_disk(shard, second)
                        spare.rebuild(shard, first)
                        spare.rebuild(shard, second)
                    self.attempted += 6
        except ReproError as exc:
            self.fail(f"rebuild: {type(exc).__name__}")
        seconds = time.perf_counter() - t0
        after = PLAN_CACHE.stats()
        for key in self.rebuild_plans:
            self.rebuild_plans[key] += after[key] - plans[key]
        return restored, seconds

    def restore(self) -> float:
        """Rebuild the disks failed at set-up on the served pool (the
        degraded workload's recovery); return the seconds it took."""
        pool = self.pool
        t0 = time.perf_counter()
        try:
            for shard, store in enumerate(pool.shards):
                for disk in sorted(store.failed_disks):
                    with pool.lock(shard).write_locked():
                        pool.rebuild(shard, disk)
                    self.attempted += 1
        except ReproError as exc:
            self.fail(f"restore: {type(exc).__name__}")
        return time.perf_counter() - t0

    # -- the correctness gate ------------------------------------------------

    def check(self, oracle_digest: str) -> str:
        pool = self.pool
        bps = pool.bytes_per_stripe
        bad_stripes = 0
        for idx in range(pool.num_stripes):
            shard, local = pool.locate(idx * bps, bps)
            with pool.lock(shard).write_locked():
                data = pool.read(shard, local, bps)
            if data != self.shadow[idx * bps : (idx + 1) * bps]:
                bad_stripes += 1
        self.fail("readback_stripes", bad_stripes)
        scrub_bad = 0
        crc_bad = 0
        for shard, store in enumerate(pool.shards):
            with pool.lock(shard).write_locked():
                if store.failed_disks:
                    self.fail("still_degraded")
                    continue
                scrub_bad += len(store.scrub())
                crc_bad += store.scrub_checksums(repair=False).bad_elements
        self.fail("scrub_stripes", scrub_bad)
        self.fail("crc_elements", crc_bad)
        digest = pool.content_digest()
        self.fail("digest", int(digest != oracle_digest))
        self.attempted += pool.num_stripes + 2 * pool.num_shards + 1
        self.pool = self.spare = self.shadow = None  # free the pools before the next pass
        return digest


def layer_metrics(summary: dict, window: dict, untraced_ops_per_s: float) -> dict:
    """Per-layer metrics of a traced pass (see README.md for the map)."""
    spans = summary["window"]["spans"]
    rspans = summary["rebuild"]["spans"]
    counters = summary["window"]["counters"]
    delta = window["delta"]
    ops = window["ops"]
    wall = window["wall_s"]

    def self_s(*names, source=spans):
        return sum(source.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names, source=spans):
        return sum(source.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names, source=spans):
        return sum(source.get(n, {}).get("count", 0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    # Coverage: what every thread spent in a layer's own code, plus
    # the generator's time outside submit, against the wall time.
    main = threading.main_thread().name
    threads = summary["window"]["threads"]
    layer_self = window["dispatch_s"] + sum(
        s for t in threads.values() for n, s in t["self_s"].items() if n != "service.admit"
    )
    main_top = threads.get(main, {}).get("top_level_s", 0.0)
    gen_self = wall - main_top
    writes_user = window["user_write_bytes"]
    m = {
        "service.admit_wait_s": total_s("service.admit"),
        "service.backpressure_waits": window["backpressure_waits"],
        "service.queue_wait_s": window["queue_wait_s"],
        "service.lock_wait_s": total_s("service.lock_wait"),
        "service.locate_calls_per_op": ratio(calls("service.locate"), ops),
        "service.dispatch_s": window["dispatch_s"],
        "service.pool_self_s": self_s("service.locate", "pool.read", "pool.write", "pool.flush"),
        "filestore.write_self_s": self_s("filestore.write"),
        "filestore.read_self_s": self_s("filestore.read"),
        "filestore.flush_s": total_s("filestore.flush"),
        "filestore.rebuild_s": total_s("filestore.rebuild", source=rspans),
        "stripe_cache.hit_rate": ratio(delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "stripe_cache.evictions": delta["cache_evictions"],
        "flush.elements_per_batch": ratio(delta["flushed_elements"], delta["flush_batches"]),
        "journal.calls": calls("journal"),
        "journal.self_s": self_s("journal"),
        "journal.bytes_per_user_byte": ratio(delta["journal_bytes"], writes_user),
        "journal.device_peak_MB": counters.get("journal.device_bytes", 0) / 1e6,
        "checksum.calls": calls("checksum"),
        "checksum.self_s": self_s("checksum"),
        "compile.calls": calls("compile.plan"),
        "compile.self_s": self_s("compile.plan", "compile.strategy"),
        "compile.plan_cache_hit_rate": ratio(delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]),
        "compile.plan_cache_evictions": delta["plan_evictions"],
        "kernel.calls": calls("kernel"),
        "kernel.self_s": self_s("kernel"),
        "kernel.bytes": counters.get("kernel.bytes", 0),
        "decode.calls": calls("decode.resilient"),
        "decode.self_s": self_s("decode.resilient", "decode.code"),
        "codes.can_recover_calls": calls("codes.can_recover"),
        "codes.can_recover_s": self_s("codes.can_recover"),
        "io.device_reads": delta["device_reads"],
        "io.device_writes": delta["device_writes"],
        "io.parity_writes_per_data_write": ratio(delta["parity_writes"], delta["data_writes"]),
        "rebuild.decode_self_s": self_s("decode.resilient", "decode.code", source=rspans),
        "rebuild.can_recover_s": self_s("codes.can_recover", source=rspans),
        "rebuild.kernel_self_s": self_s("kernel", source=rspans),
        "rebuild.kernel_bytes": summary["rebuild"]["counters"].get("kernel.bytes", 0),
        "generator.self_s": gen_self,
        "trace.coverage": (layer_self + gen_self) / wall,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.traced_ops_per_s": window["ops_per_s"],
        "trace.overhead_frac": 1.0 - window["ops_per_s"] / untraced_ops_per_s,
    }
    return m


PER_LAYER_UNITS = {
    "service.admit_wait_s": "s",
    "service.backpressure_waits": "count",
    "service.queue_wait_s": "s",
    "service.lock_wait_s": "s",
    "service.locate_calls_per_op": "count/op",
    "service.dispatch_s": "s",
    "service.pool_self_s": "s",
    "filestore.write_self_s": "s",
    "filestore.read_self_s": "s",
    "filestore.flush_s": "s",
    "filestore.rebuild_s": "s",
    "stripe_cache.hit_rate": "ratio",
    "stripe_cache.evictions": "count",
    "flush.elements_per_batch": "count",
    "journal.calls": "count",
    "journal.self_s": "s",
    "journal.bytes_per_user_byte": "B/B",
    "journal.device_peak_MB": "MB",
    "checksum.calls": "count",
    "checksum.self_s": "s",
    "compile.calls": "count",
    "compile.self_s": "s",
    "compile.plan_cache_hit_rate": "ratio",
    "compile.plan_cache_evictions": "count",
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "kernel.bytes": "B",
    "decode.calls": "count",
    "decode.self_s": "s",
    "codes.can_recover_calls": "count",
    "codes.can_recover_s": "s",
    "io.device_reads": "count",
    "io.device_writes": "count",
    "io.parity_writes_per_data_write": "ratio",
    "rebuild.decode_self_s": "s",
    "rebuild.can_recover_s": "s",
    "rebuild.kernel_self_s": "s",
    "rebuild.kernel_bytes": "B",
    "generator.self_s": "s",
    "trace.coverage": "ratio",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "p99_ms": "ms",
    "rebuild_MBps": "MB/s",
    "setup_s": "s",
    "write_amp": "B/B",
    "peak_rss_MB": "MB",
}


def fingerprint(spec: Workload, seed: int, seconds: float, inputs: Inputs) -> dict:
    compilers = [c for c in ("cc", "gcc", "clang") if shutil.which(c)]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "c_compiler": compilers[0] if compilers else None,
        "engine_auto": resolve_backend(ENGINE).name,
        "seed": seed,
        "seconds": seconds,
        "workload": asdict(spec),
        "code": CODE,
        "num_shards": NUM_SHARDS,
        "workers": WORKERS,
        "queue_depth": QUEUE_DEPTH,
        "sync_bytes": SYNC_BYTES,
        "num_ops": len(inputs.trace),
        "trace_hash": inputs.trace.trace_hash,
    }


def end_to_end(window: dict, setup_times: list, element_size: int) -> dict:
    return {
        "ops_per_s": window["ops_per_s"],
        "p99_ms": statistics.median(window["segments"]["p99_ms"]),
        "rebuild_MBps": window["rebuild"]["MBps"],
        "setup_s": statistics.median(setup_times),
        "write_amp": window["delta"]["device_writes"] * element_size / window["user_write_bytes"],
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def run(spec: Workload, seed: int, seconds: float, traced: bool, spans_dir: str | None = None) -> dict:
    """Run one workload; returns ``{"detail": ..., "result": ...}``."""
    inputs = make_inputs(spec, seed, seconds)
    t0 = time.perf_counter()
    oracle = replay_digest(spec, inputs)
    phases = {"oracle_s": time.perf_counter() - t0, "check_s": 0.0}
    setup_times = []
    pool = None
    while len(setup_times) < SETUP_MIN or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX
    ):
        pool = None  # release the previous pool before timing the next
        t0 = time.perf_counter()
        pool = build_pool(spec, inputs)
        setup_times.append(time.perf_counter() - t0)

    def one_pass(pool, tracer=None):
        p = Pass(spec, inputs, pool, build_pool(spec, inputs, healthy=True), tracer)
        window = p.serve()
        summary = None
        if tracer is not None:
            summary = {phase: tracer.summary(phase) for phase in ("window", "rebuild")}
            if spans_dir is not None:
                os.makedirs(spans_dir, exist_ok=True)
                # One file per workload: the latest traced run's spans.
                tracer.save(os.path.join(spans_dir, f"spans-{spec.name}.npz"))
        window["restore_s"] = p.restore()
        t0 = time.perf_counter()
        digest = p.check(oracle)
        phases["check_s"] += time.perf_counter() - t0
        return p, window, digest, summary

    first, window, digest, _ = one_pass(pool)
    pool = None
    passes = [first]
    digests = [digest]
    metrics = end_to_end(window, setup_times, spec.element_size)
    if traced:
        from tracer import Tracer

        traced_pass, twindow, digest, summary = one_pass(build_pool(spec, inputs), Tracer())
        passes.append(traced_pass)
        digests.append(digest)
        metrics = layer_metrics(summary, twindow, window["ops_per_s"])
        phases["traced_window_s"] = twindow["wall_s"]
    failures: dict[str, int] = {}
    for p in passes:
        for key, value in p.failures.items():
            failures[key] = failures.get(key, 0) + value
    attempted = sum(p.attempted for p in passes)
    failed = sum(failures.values())
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    latency = window["latency"]
    detail = {
        "fingerprint": fingerprint(spec, seed, seconds, inputs),
        "samples": {kind: len(v) for kind, v in latency.items()},
        # Reported, not gated (README.md says why).
        "p50_ms": statistics.median(window["segments"]["p50_ms"]),
        "pooled_ms": {
            f"{kind}_p{q}": percentile_ms(v, q) if len(v) else None
            for kind, v in latency.items()
            for q in (50, 99)
        },
        "setup_runs_s": setup_times,
        "flush_barriers": window["flush_barriers"],
        "window_s": window["wall_s"],
        "segment_median_ops_per_s": window["segment_median_ops_per_s"],
        "segments": window["segments"],
        "rebuild": window["rebuild"],
        "restore_s": window["restore_s"],
        "failures": failures,
        "failed_ops_frac": failed / attempted,
        "errors": window["errors"],
        "phases": phases,
        "content_digests": digests,
        "oracle_digest": oracle,
        "repro": os.path.dirname(repro.__file__),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-dir", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.spans_dir)
    print(json.dumps({"detail": out["detail"]}, sort_keys=True))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
