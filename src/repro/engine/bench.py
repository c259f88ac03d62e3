"""Engine throughput benchmark: MB/s per code, per execution path.

Times three implementations of the same operations over identical
stripes and reports their throughput side by side:

- ``pure-python`` — :func:`execute_plan_scalar`, word-by-word Python
  integers.  This is the pure-Python baseline of the headline speedup.
- ``python-element`` — the repo's reference path
  (:meth:`ArrayCode.encode` / :meth:`ArrayCode.decode`), which walks
  chains in Python but XORs whole elements with numpy.
- ``vector`` — the compiled-plan executor, one stripe at a time.
- ``vector-batch`` — the compiled plan over a :class:`StripeBatch`,
  one kernel per step across all stripes.

The interesting honesty note: at large element sizes every numpy path
is memory-bandwidth-bound, so ``vector`` beats ``python-element`` by
its reduced passes and per-call overhead (roughly 1.1–3x), while the
``pure-python`` baseline is orders of magnitude behind.  Both ratios
are recorded; nothing is extrapolated.

``auto`` — whatever :func:`repro.engine.backends.resolve_backend`
picks on this host — is also timed, and the headline
``speedup_vs_python_element`` is quoted against it, since it is the
path a caller who does not choose gets.

:func:`run_backend_sweep` adds the backend × region-size grid:
every available backend executes the *same pre-built region* (timing
covers plan execution only, no stripe copies or erasure bookkeeping
inside the timed loop) and each row quotes its speedup against the
``vector`` path on the identical region.  ``cpu_count`` is recorded in
the payload as host context.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..codes.registry import available_codes, get_code
from ..exceptions import PlanError
from .backends import available_backends, resolve_backend
from .compile import PLAN_CACHE, compile_plan
from .executor import execute_plan, execute_plan_scalar

#: Codes the full benchmark sweeps (every registered XOR code).
DEFAULT_CODES = tuple(n for n in available_codes() if n != "Cauchy-RS")

#: The acceptance-criterion element size (one 64 KiB element per cell).
DEFAULT_ELEMENT_SIZE = 64 * 1024

#: Codes and size the CI smoke run uses — small enough for seconds.
SMOKE_CODES = ("HV", "RDP")
SMOKE_ELEMENT_SIZE = 4096

#: Element sizes of the backend sweep: one L2-resident stripe and one
#: DRAM-resident megabyte-scale region per batch lane.
SWEEP_ELEMENT_SIZES = (64 * 1024, 1024 * 1024)
SMOKE_SWEEP_ELEMENT_SIZES = (4096,)


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _mb_per_s(stripe_bytes: int, lanes: int, seconds: float) -> float:
    return stripe_bytes * lanes / seconds / 1e6


def _bench_encode(code, element_size: int, batch: int, repeats: int) -> dict:
    from ..array.stripe import StripeBatch

    stripe = code.random_stripe(element_size=element_size, seed=1)
    stripe_bytes = code.rows * code.cols * element_size
    plan = compile_plan(code, "encode")

    work = stripe.copy()
    t_elem = _time(lambda: code.encode(work), repeats)
    t_vec = _time(lambda: code.encode(work, engine="vector"), repeats)
    t_auto = _time(lambda: code.encode(work, engine="auto"), repeats)
    group = StripeBatch.from_stripes([stripe.copy() for _ in range(batch)])
    t_batch = _time(lambda: execute_plan(plan, group), repeats) / batch
    t_scalar = _time(lambda: execute_plan_scalar(plan, work), 1)

    paths = {
        "pure-python": {"seconds": t_scalar, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_scalar)},
        "python-element": {"seconds": t_elem, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_elem)},
        "vector": {"seconds": t_vec, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_vec)},
        "vector-batch": {"seconds": t_batch, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_batch)},
        "auto": {"seconds": t_auto, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_auto)},
    }
    return {
        "code": code.name,
        "op": "encode",
        "paths": paths,
        "auto_backend": resolve_backend("auto").name,
        "speedup_vs_pure_python": t_scalar / t_auto,
        "speedup_vs_python_element": t_elem / t_auto,
        "vector_speedup_vs_python_element": t_elem / t_vec,
        "plan": _plan_stats(plan),
    }


def _bench_decode(code, element_size: int, repeats: int) -> dict | None:
    stripe = code.random_stripe(element_size=element_size, seed=1)
    stripe_bytes = code.rows * code.cols * element_size
    failed = (0, 1)
    try:
        plan = compile_plan(code, "recover-double", failed)
    except PlanError:
        return None

    def run_python():
        broken = stripe.copy()
        broken.erase_disks(failed)
        code.decode(broken)

    def run_vector():
        broken = stripe.copy()
        broken.erase_disks(failed)
        code.decode(broken, engine="vector")

    def run_auto():
        broken = stripe.copy()
        broken.erase_disks(failed)
        code.decode(broken, engine="auto")

    def run_scalar():
        broken = stripe.copy()
        broken.erase_disks(failed)
        execute_plan_scalar(plan, broken)

    t_elem = _time(run_python, repeats)
    t_vec = _time(run_vector, repeats)
    t_auto = _time(run_auto, repeats)
    t_scalar = _time(run_scalar, 1)
    paths = {
        "pure-python": {"seconds": t_scalar, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_scalar)},
        "python-element": {"seconds": t_elem, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_elem)},
        "vector": {"seconds": t_vec, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_vec)},
        "auto": {"seconds": t_auto, "mb_per_s": _mb_per_s(stripe_bytes, 1, t_auto)},
    }
    return {
        "code": code.name,
        "op": "recover-double",
        "pattern": list(failed),
        "paths": paths,
        "auto_backend": resolve_backend("auto").name,
        "speedup_vs_pure_python": t_scalar / t_auto,
        "speedup_vs_python_element": t_elem / t_auto,
        "vector_speedup_vs_python_element": t_elem / t_vec,
        "plan": _plan_stats(plan),
    }


def _plan_stats(plan) -> dict:
    return {
        "steps": len(plan.steps),
        "xors_per_word": plan.xors_per_word,
        "kernel_calls": plan.kernel_calls,
        "fused_kernel_calls": plan.fused_kernel_calls,
        "num_temps": plan.num_temps,
        "rounds": plan.rounds,
        "hash": plan.plan_hash,
    }


# -- the backend × threads × region-size sweep ---------------------------------------


def _build_region(code, element_size: int, batch: int, op: str, pattern):
    """A pre-encoded (and, for recovery, pre-erased) StripeBatch region."""
    from ..array.stripe import StripeBatch

    stripes = [
        code.random_stripe(element_size=element_size, seed=i + 1)
        for i in range(batch)
    ]
    region = StripeBatch.from_stripes(stripes)
    execute_plan(compile_plan(code, "encode"), region, backend="vector")
    if op == "recover-double":
        for i in range(batch):
            region.stripe(i).erase_disks(pattern)
    return region


def run_backend_sweep(
    codes: tuple[str, ...] | None = None,
    p: int = 7,
    element_sizes: tuple[int, ...] | None = None,
    batch: int = 8,
    repeats: int = 3,
    smoke: bool = False,
) -> dict:
    """Time every available backend on identical pre-built regions.

    The timed callable is ``execute_plan(plan, region, backend=...)``
    and nothing else — regions are built (encoded, erased) before the
    clock starts, so rows measure kernel execution, not benchmark
    scaffolding.  Re-running a recovery plan on an already-repaired
    region recomputes the same bytes, which is why one region can be
    timed repeatedly.
    """
    if smoke:
        codes = codes or SMOKE_CODES
        element_sizes = element_sizes or SMOKE_SWEEP_ELEMENT_SIZES
        repeats = 1
        batch = min(batch, 2)
    names = codes or DEFAULT_CODES
    element_sizes = element_sizes or SWEEP_ELEMENT_SIZES
    backends = available_backends()
    rows = []
    headline: dict[str, dict] = {}
    for name in names:
        code = get_code(name, p)
        for op, pattern in (("encode", ()), ("recover-double", (0, 1))):
            try:
                plan = compile_plan(code, op, pattern)
            except PlanError:
                continue
            for element_size in element_sizes:
                region = _build_region(code, element_size, batch, op, pattern)
                region_bytes = batch * code.rows * code.cols * element_size
                t_vec = _time(
                    lambda: execute_plan(plan, region, backend="vector"), repeats
                )
                for backend in backends:
                    t = _time(
                        lambda: execute_plan(plan, region, backend=backend),
                        repeats,
                    )
                    row = {
                        "code": code.name,
                        "op": op,
                        "element_size": element_size,
                        "batch": batch,
                        "region_bytes": region_bytes,
                        "backend": backend,
                        "seconds": t,
                        "mb_per_s": _mb_per_s(region_bytes, 1, t),
                        "speedup_vs_vector": t_vec / t,
                    }
                    rows.append(row)
                    best = headline.setdefault(
                        op, {"backend": backend, "speedup_vs_vector": 0.0}
                    )
                    if (
                        backend != "vector"
                        and row["speedup_vs_vector"] > best["speedup_vs_vector"]
                    ):
                        headline[op] = {
                            "backend": backend,
                            "code": code.name,
                            "element_size": element_size,
                            "speedup_vs_vector": row["speedup_vs_vector"],
                            "mb_per_s": row["mb_per_s"],
                        }
                del region
    return {
        "cpu_count": os.cpu_count() or 1,
        "backends": list(backends),
        "auto_resolves_to": resolve_backend("auto").name,
        "element_sizes": list(element_sizes),
        "batch": batch,
        "repeats": repeats,
        "rows": rows,
        "headline": headline,
    }


def run_engine_benchmark(
    codes: tuple[str, ...] | None = None,
    p: int = 7,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    batch: int = 8,
    repeats: int = 3,
    smoke: bool = False,
    backends: bool = False,
    sweep_sizes: tuple[int, ...] | None = None,
) -> dict:
    """Sweep the engine benchmark and return the BENCH_engine payload.

    ``backends=True`` appends the :func:`run_backend_sweep` grid under
    the ``backend_sweep`` key; ``sweep_sizes`` shapes that grid.
    """
    if smoke:
        codes = codes or SMOKE_CODES
        element_size = min(element_size, SMOKE_ELEMENT_SIZE)
        repeats = 1
    names = codes or DEFAULT_CODES
    # Force optional-backend detection (the native backend compiles its
    # C kernel on first probe) before any clock starts.
    available_backends()
    results = []
    for name in names:
        code = get_code(name, p)
        results.append(_bench_encode(code, element_size, batch, repeats))
        decode_row = _bench_decode(code, element_size, repeats)
        if decode_row is not None:
            results.append(decode_row)
    payload = {
        "benchmark": "engine-throughput",
        "p": p,
        "element_size": element_size,
        "batch": batch,
        "repeats": repeats,
        "smoke": smoke,
        "results": results,
        "plan_cache": PLAN_CACHE.stats(),
    }
    if backends:
        payload["backend_sweep"] = run_backend_sweep(
            codes=codes,
            p=p,
            element_sizes=sweep_sizes,
            batch=batch,
            repeats=repeats,
            smoke=smoke,
        )
    return payload


def write_engine_benchmark(path: str | Path, **kwargs) -> dict:
    """Run the benchmark and write its JSON payload to ``path``."""
    payload = run_engine_benchmark(**kwargs)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload
