"""``repro serve-bench``: the many-client serving benchmark.

Replays a seeded Zipf :func:`~repro.workloads.service_trace` against a
sharded :class:`~repro.service.VolumePool` through the concurrent
:class:`~repro.service.RequestScheduler`, per registered code, in two
phases:

- **healthy** — the full trace on a healthy pool, then a
  *differential oracle*: the same trace replayed single-threaded into
  a fresh pool must produce a byte-identical content digest **and** an
  identical I/O ledger.  Per-shard FIFO makes the served end state a
  pure function of the trace; this phase proves it.
- **rebuild contention** — the same trace again, but halfway through a
  disk fails on shard 0 and a rebuild is queued behind it.  Ops after
  the failure hit shard 0 degraded (reads reconstruct through parity)
  while the other shards keep serving; the scheduler counts how many
  ops completed elsewhere during the rebuild.  After the rebuild the
  end digest must again equal the healthy digest — rebuild restores
  the lost column exactly, and parity is a pure function of data.

The report splits cleanly: every ``deterministic`` subtree (digests,
op counts, I/O ledgers, oracle verdicts) feeds the report hash; every
``timing`` subtree (wall clock, throughput, p50/p99/p999 latencies,
backpressure, rebuild-overlap counts) is measured on this machine and
**never hashed**.  The ``--smoke`` configuration's hash is pinned in
:data:`SERVE_SMOKE_HASH` and diffed in CI, so any behavioral drift of
the service path — routing, locking, degraded serving, rebuild — fails
loudly.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence

from ..exceptions import CertificationError, InvalidParameterError
from ..utils import resolve_rng
from ..workloads.service import ServiceTrace, service_trace
from .pool import VolumePool
from .scheduler import Op, RequestScheduler
from .stats import ServiceStats

#: The smoke configuration: two codes, two shards, a short trace.
SMOKE_CODES = ("HV", "RDP")
SMOKE_P = 5
SMOKE_OPS = 2000
SMOKE_SEED = 0

#: Pinned report hash of ``run_serve_bench(smoke=True)``.  Recompute
#: with ``repro serve-bench --smoke`` after an *intentional* service
#: change and update this constant in the same commit.
SERVE_SMOKE_HASH = "c11c32391c7eb21fb3779855dca132ec6e68654634620695a6fe06185942f855"

#: The disk the rebuild-contention phase fails on shard 0.
FAIL_DISK = 0


def run_serve_bench(
    codes: Sequence[str] | None = None,
    p: int = SMOKE_P,
    *,
    num_stripes: int = 64,
    num_shards: int = 4,
    workers: int = 4,
    ops: int = 50_000,
    policy: str = "range",
    element_size: int = 1024,
    cache_stripes: int = 8,
    queue_depth: int = 128,
    zipf_skew: float = 1.2,
    write_fraction: float = 0.7,
    num_clients: int = 64,
    seed: int = SMOKE_SEED,
    headline_ops: int = 0,
    smoke: bool = False,
    engine: str = "vector",
) -> dict:
    """Run the serving benchmark per code; return the hashable payload.

    ``headline_ops`` > 0 appends one extra HV run at that trace length
    (the acceptance-scale configuration); smoke mode pins everything to
    the small SMOKE constants.  ``engine=`` selects the kernel backend
    every shard store runs on and lands in the *timing* half of the
    report.  The pinned smoke hash is a ``vector`` run, so smoke mode
    rejects any other engine rather than silently ignoring it.
    """
    # Deferred: the registry pulls in every code class, and importing
    # it at module scope closes a codes -> service cycle.
    from ..codes.registry import available_codes
    from ..engine import require_engine

    if smoke:
        if engine != "vector":
            raise InvalidParameterError(
                f"serve-bench --smoke pins engine='vector'; got {engine!r}"
            )
        codes, p, ops, seed = SMOKE_CODES, SMOKE_P, SMOKE_OPS, SMOKE_SEED
        num_stripes, num_shards, workers = 16, 2, 2
        element_size, cache_stripes, queue_depth = 64, 4, 64
        headline_ops = 0
    elif codes is None:
        codes = available_codes()
    engine = require_engine(engine)
    cfg = dict(
        p=p,
        num_stripes=num_stripes,
        num_shards=num_shards,
        workers=workers,
        ops=ops,
        policy=policy,
        element_size=element_size,
        cache_stripes=cache_stripes,
        queue_depth=queue_depth,
        zipf_skew=zipf_skew,
        write_fraction=write_fraction,
        num_clients=num_clients,
        seed=seed,
    )
    entries = [_serve_one(name, dict(cfg), engine) for name in codes]
    headline = None
    if headline_ops:
        head_cfg = dict(cfg, ops=headline_ops)
        headline = _serve_one("HV", head_cfg, engine)
    payload = {
        "bench": "serve",
        **cfg,
        "smoke": smoke,
        "headline_ops": headline_ops,
        # Execution strategy lives in a timing subtree: stripped from
        # the report hash, so engine choice can't drift the pin.
        "timing": {"engine": engine},
        "codes": entries,
        "headline": headline,
        "all_ok": all(
            e["deterministic"]["ok"]
            for e in entries + ([headline] if headline else [])
        ),
    }
    payload["report_hash"] = serve_report_hash(payload)
    return payload


def _serve_one(code_name: str, cfg: dict, engine: str = "vector") -> dict:
    """Both phases plus the differential oracle for one code."""
    probe = _make_pool(code_name, cfg, engine)
    bps = probe.bytes_per_stripe
    trace = service_trace(
        cfg["num_stripes"],
        bps,
        cfg["ops"],
        num_clients=cfg["num_clients"],
        write_fraction=cfg["write_fraction"],
        zipf_skew=cfg["zipf_skew"],
        max_op_bytes=min(4096, bps),
        seed=cfg["seed"],
    )
    block = _payload_block(cfg["seed"])

    # Phase 1: healthy concurrent serve.
    pool_a = probe
    stats_a = _serve_trace(pool_a, trace, block, cfg)
    pool_a.flush_all()
    digest_a = pool_a.content_digest()

    # The differential oracle: single-threaded replay, no scheduler.
    pool_o = _make_pool(code_name, cfg, engine)
    _replay_single(pool_o, trace, block)
    pool_o.flush_all()
    oracle_match = pool_o.content_digest() == digest_a
    ledger_match = _io_dict(pool_o) == _io_dict(pool_a)

    # Phase 2: the same trace with a mid-stream failure + rebuild.
    pool_b = _make_pool(code_name, cfg, engine)
    stats_b = _serve_trace(
        pool_b, trace, block, cfg, fail_at=cfg["ops"] // 2
    )
    pool_b.flush_all()
    rebuild_match = pool_b.content_digest() == digest_a
    windows = stats_b.rebuild_windows

    det = {
        "code": code_name,
        "trace_hash": trace.trace_hash,
        "trace_writes": trace.num_writes,
        "digest_healthy": digest_a,
        "oracle_match": oracle_match,
        "oracle_ledger_match": ledger_match,
        "rebuild_matches_healthy": rebuild_match,
        "healthy": stats_a.deterministic_dict(),
        "rebuild_phase": stats_b.deterministic_dict(),
    }
    det["ok"] = oracle_match and ledger_match and rebuild_match
    return {
        "deterministic": det,
        "timing": {
            "healthy": stats_a.timing_dict(),
            "rebuild_phase": stats_b.timing_dict(),
            "rebuild_overlap": windows,
        },
    }


def _make_pool(code_name: str, cfg: dict, engine: str = "vector") -> VolumePool:
    return VolumePool(
        code_name,
        cfg["p"],
        num_stripes=cfg["num_stripes"],
        element_size=cfg["element_size"],
        num_shards=cfg["num_shards"],
        policy=cfg["policy"],
        engine=engine,
        cache_stripes=cfg["cache_stripes"],
    )


def _payload_block(seed: int) -> bytes:
    """128 KiB of seeded noise every write payload is sliced from."""
    rng = resolve_rng(seed + 1)
    return rng.integers(0, 256, size=1 << 17, dtype="uint8").tobytes()


def _payload(block: bytes, i: int, size: int) -> bytes:
    """Op ``i``'s write payload: a deterministic slice of the block."""
    start = (i * 2654435761) % (len(block) - size + 1)
    return block[start : start + size]


def _serve_trace(
    pool: VolumePool,
    trace: ServiceTrace,
    block: bytes,
    cfg: dict,
    *,
    fail_at: int | None = None,
) -> ServiceStats:
    """Submit the trace through a scheduler; returns the roll-up.

    When ``fail_at`` is set, a ``fail`` and a ``rebuild`` op for shard
    0 are queued at that submission index — shard 0 serves its
    remaining backlog degraded behind them while the other shards keep
    going.
    """
    with RequestScheduler(
        pool, workers=cfg["workers"], queue_depth=cfg["queue_depth"]
    ) as sched:
        for i, op in enumerate(trace):
            if fail_at is not None and i == fail_at:
                sched.submit(Op("fail", shard=0, disk=FAIL_DISK))
                sched.submit(Op("rebuild", shard=0, disk=FAIL_DISK))
            if op.kind == "write":
                sched.submit(
                    Op(
                        "write",
                        offset=op.offset,
                        payload=_payload(block, i, op.size),
                        client=op.client,
                    )
                )
            else:
                sched.submit(
                    Op(
                        "read",
                        offset=op.offset,
                        size=op.size,
                        client=op.client,
                    )
                )
    assert sched.stats is not None
    return sched.stats


def _replay_single(
    pool: VolumePool, trace: ServiceTrace, block: bytes
) -> None:
    """The oracle: the trace applied in submission order, one thread.

    Global order restricted to any one shard is exactly the per-shard
    FIFO order the scheduler guarantees, so this replay and a
    concurrent serve must land the same bytes.
    """
    for i, op in enumerate(trace):
        shard, local = pool.locate(op.offset, op.size)
        with pool.lock(shard).write_locked():
            if op.kind == "write":
                pool.write(shard, local, _payload(block, i, op.size))
            else:
                pool.read(shard, local, op.size)


def _io_dict(pool: VolumePool) -> dict:
    """The pool's merged I/O ledger as a comparable dict."""
    io = pool.merged_stats()
    return {
        "reads": list(io.reads),
        "writes": list(io.writes),
        "xor_words": io.xor_words,
        "kernel_invocations": io.kernel_invocations,
        "flush_batches": io.flush_batches,
        "flushed_elements": io.flushed_elements,
        "journal_records": io.journal_records,
        "journal_bytes": io.journal_bytes,
    }


def _strip_timing(value):
    """Recursively drop every ``timing`` subtree (and the hash slot)."""
    if isinstance(value, dict):
        return {
            k: _strip_timing(v)
            for k, v in value.items()
            if k not in ("timing", "report_hash")
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def serve_report_hash(payload: dict) -> str:
    """SHA-256 over the canonical JSON of the deterministic subtrees."""
    canonical = json.dumps(
        _strip_timing(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_smoke_hash(payload: dict) -> None:
    """Raise :class:`CertificationError` when the smoke pin drifted."""
    actual = payload["report_hash"]
    if actual != SERVE_SMOKE_HASH:
        raise CertificationError(
            "serve-bench smoke report drifted from its pin:\n"
            f"  pinned:  {SERVE_SMOKE_HASH}\n"
            f"  actual:  {actual}\n"
            "If the service path changed intentionally, update "
            "SERVE_SMOKE_HASH in repro/service/bench.py in the same "
            "commit."
        )


def render_serve_report(payload: dict) -> str:
    entries = list(payload["codes"])
    if payload.get("headline"):
        entries.append(payload["headline"])
    lines = [
        f"serve-bench: {len(entries)} run(s) at p={payload['p']}, "
        f"{payload['num_shards']} shard(s) ({payload['policy']}), "
        f"{payload['workers']} worker(s)"
    ]
    for entry in entries:
        det, timing = entry["deterministic"], entry["timing"]
        healthy_t = timing["healthy"]
        read_lat = healthy_t["latency"].get("read", {})
        overlap = sum(
            w["ops_completed_elsewhere"] for w in timing["rebuild_overlap"]
        )
        total = sum(det["healthy"]["counts"].values())
        verdict = "ok" if det["ok"] else "MISMATCH"
        lines.append(
            f"  {det['code']:<10} {total:>8} ops  "
            f"{healthy_t['ops_per_second']:>9.0f} op/s  "
            f"p50 {read_lat.get('p50_us', 0.0):>7.1f}us  "
            f"p99 {read_lat.get('p99_us', 0.0):>8.1f}us  "
            f"{overlap:>6} ops during rebuild  -> {verdict}"
        )
    lines.append(f"report hash: {payload['report_hash']}")
    return "\n".join(lines)
