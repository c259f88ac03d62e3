"""Run :class:`XorPlan` schedules over word-viewed stripe buffers.

Three execution tiers, all byte-identical (the differential tests
assert it):

- :func:`execute_plan` — the vectorized path: the stripe (or a whole
  :class:`~repro.array.stripe.StripeBatch`) is reinterpreted as a
  ``(..., cells, words)`` ``uint64`` view and every step becomes a
  handful of in-place ``numpy.bitwise_xor`` kernels.  A batch executes
  each kernel once across all N stripes (the batch is the leading
  axis), so per-step Python overhead amortizes to nothing.
- the ``workers=`` path inside :func:`execute_plan` — plans that carry
  independent step groups (the four Algorithm-1 recovery chains, the
  per-element steps of a single-disk rebuild) fan the groups out over
  a thread pool.  numpy releases the GIL inside ``bitwise_xor``, so on
  multicore hosts the chains genuinely overlap, mirroring the paper's
  parallel-recovery claim; on a single core it degrades gracefully to
  the serial schedule.
- :func:`execute_plan_scalar` — the pure-Python oracle: the same plan
  executed word by word with Python integers, no numpy.  Slow by
  design; it exists so the compiled schedule can be checked against an
  implementation with nothing in common with the vector kernels, and
  it is the "pure-Python path" baseline of the throughput benchmark.

Element sizes that are not a multiple of 8 fall back from the
``uint64`` view to a ``uint8`` view transparently.

The compiled C inner loop lives in :mod:`repro.engine.backends` and is
reachable here through ``execute_plan(..., backend=...)`` or directly
via the registry.
"""

from __future__ import annotations

import atexit
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Union

import numpy as np

from ..array.stripe import Stripe, StripeBatch
from ..exceptions import InvalidParameterError, PlanError
from .plan import XorPlan

if TYPE_CHECKING:
    from ..array.iostats import IOStats

#: What the executor accepts as a target.
Target = Union[Stripe, StripeBatch, Sequence[Stripe]]

# The ``workers=`` thread pool is created lazily on first use and kept
# for the life of the process: recovery workloads execute thousands of
# small plans, and paying ThreadPoolExecutor startup (thread spawn,
# queue setup) per call used to dominate sub-millisecond executions.
_THREAD_POOL: ThreadPoolExecutor | None = None
_THREAD_POOL_SIZE = 0
_THREAD_POOL_LOCK = threading.Lock()


def _thread_pool(workers: int) -> ThreadPoolExecutor:
    global _THREAD_POOL, _THREAD_POOL_SIZE
    with _THREAD_POOL_LOCK:
        if _THREAD_POOL is None or _THREAD_POOL_SIZE < workers:
            if _THREAD_POOL is not None:
                _THREAD_POOL.shutdown(wait=True)
            _THREAD_POOL = ThreadPoolExecutor(max_workers=workers)
            _THREAD_POOL_SIZE = workers
        return _THREAD_POOL


def shutdown_executor_pool() -> None:
    """Tear down the persistent ``workers=`` thread pool (idempotent)."""
    global _THREAD_POOL, _THREAD_POOL_SIZE
    with _THREAD_POOL_LOCK:
        if _THREAD_POOL is not None:
            _THREAD_POOL.shutdown(wait=True)
            _THREAD_POOL = None
            _THREAD_POOL_SIZE = 0


atexit.register(shutdown_executor_pool)


def _word_view(target: Stripe | StripeBatch) -> np.ndarray:
    """``(..., cells, words)`` view, widest dtype the alignment allows."""
    if target.element_size % 8 == 0:
        return target.as_words()
    return target.flat_view()


def _check_geometry(plan: XorPlan, target: Stripe | StripeBatch) -> None:
    if (target.rows, target.cols) != (plan.rows, plan.cols):
        raise PlanError(
            f"plan for a {plan.rows}x{plan.cols} stripe cannot run on a "
            f"{target.rows}x{target.cols} target"
        )


def execute_plan(
    plan: XorPlan,
    target: Target,
    *,
    stats: "IOStats | None" = None,
    workers: int | None = None,
    backend: str | None = None,
) -> None:
    """Execute ``plan`` in place on a stripe, batch, or list of stripes.

    ``stats`` (an :class:`~repro.array.iostats.IOStats`) accumulates
    the word-XOR and kernel-invocation counts of the run.  ``workers``
    enables the parallel path for plans with independent groups.
    ``backend`` selects a registered kernel backend by name
    (``native``, ``auto``); ``None`` or ``"vector"`` runs the classic
    per-step path below.
    """
    if backend is not None and backend != "vector":
        from .backends import resolve_backend

        resolve_backend(backend).execute(
            plan, target, stats=stats, workers=workers
        )
        return
    if isinstance(target, Stripe):
        _execute_on(plan, target, stats=stats, workers=workers)
    elif isinstance(target, StripeBatch):
        _execute_on(plan, target, stats=stats, workers=workers)
    elif isinstance(target, Sequence):
        for stripe in target:
            _execute_on(plan, stripe, stats=stats, workers=workers)
    else:
        raise InvalidParameterError(
            f"cannot execute a plan on {type(target).__name__}"
        )


def _execute_on(
    plan: XorPlan,
    target: Stripe | StripeBatch,
    *,
    stats: "IOStats | None",
    workers: int | None,
) -> None:
    _check_geometry(plan, target)
    buf = _word_view(target)  # (cells, W) or (N, cells, W)
    words = buf.shape[-1]
    lanes = buf.shape[0] if buf.ndim == 3 else 1
    temps = (
        np.empty(buf.shape[:-2] + (plan.num_temps, words), dtype=buf.dtype)
        if plan.num_temps
        else None
    )

    def run_steps(indices: range | tuple[int, ...]) -> tuple[int, int]:
        xors = 0
        kernels = 0
        for i in indices:
            step = plan.steps[i]
            dst = _slot_view(buf, temps, plan.num_cells, step.dst)
            srcs = step.srcs
            if len(srcs) == 1:
                np.copyto(dst, _slot_view(buf, temps, plan.num_cells, srcs[0]))
                kernels += 1
                continue
            np.bitwise_xor(
                _slot_view(buf, temps, plan.num_cells, srcs[0]),
                _slot_view(buf, temps, plan.num_cells, srcs[1]),
                out=dst,
            )
            for s in srcs[2:]:
                np.bitwise_xor(
                    dst, _slot_view(buf, temps, plan.num_cells, s), out=dst
                )
            xors += len(srcs) - 1
            kernels += len(srcs) - 1
        return xors, kernels

    if workers and workers > 1 and plan.groups:
        xors, kernels = run_steps(range(plan.preamble))
        for gx, gk in _thread_pool(workers).map(run_steps, plan.groups):
            xors += gx
            kernels += gk
    else:
        xors, kernels = run_steps(range(len(plan.steps)))

    if stats is not None:
        # Normalize uint8-lane runs to 64-bit words so the counter has
        # one unit regardless of the fallback path.
        per_call_words = (
            words if buf.dtype == np.uint64 else max(words // 8, 1)
        )
        stats.record_xor(xors * per_call_words * lanes, kernels)

    _clear_outputs(plan, target)


def _slot_view(
    buf: np.ndarray,
    temps: np.ndarray | None,
    num_cells: int,
    slot: int,
) -> np.ndarray:
    if slot < num_cells:
        return buf[..., slot, :]
    assert temps is not None
    return temps[..., slot - num_cells, :]


def _clear_outputs(plan: XorPlan, target: Stripe | StripeBatch) -> None:
    """Repaired cells are no longer erased or latent."""
    if not plan.outputs:
        return
    rows = [slot // plan.cols for slot in plan.outputs]
    cols = [slot % plan.cols for slot in plan.outputs]
    target.erased[..., rows, cols] = False
    target.latent[..., rows, cols] = False


# -- the write pipeline: fold parity deltas into live stripes ------------------------


def apply_update(
    plan: XorPlan,
    delta: Stripe | StripeBatch,
    target: Target,
    *,
    stats: "IOStats | None" = None,
) -> None:
    """XOR an executed update plan's parity deltas into ``target``.

    ``delta`` is the buffer :func:`execute_plan` ran the ``update``
    plan over: its dirty data slots held ``old ⊕ new`` and its
    :attr:`~repro.engine.plan.XorPlan.outputs` slots now hold parity
    deltas.  Each output is folded into the matching cell of
    ``target`` in place (``parity ^= delta``) — one kernel per parity
    per batch, never per stripe, when both sides are batches.

    A :class:`~repro.array.stripe.StripeBatch` delta may also be
    applied to a *sequence* of stripes (lane ``i`` of the batch folds
    into ``target[i]``) — the shape the write-back cache's flush path
    uses, where the live stripes are separate allocations.
    """
    if plan.op != "update":
        raise PlanError(f"apply_update needs an 'update' plan, got {plan.op!r}")
    if not plan.outputs:
        return
    _check_geometry(plan, delta)
    dbuf = _word_view(delta)
    if isinstance(target, (Stripe, StripeBatch)):
        _check_geometry(plan, target)
        tbuf = _word_view(target)
        if tbuf.shape != dbuf.shape:
            raise PlanError(
                f"delta shape {dbuf.shape} does not match target {tbuf.shape}"
            )
        for slot in plan.outputs:
            np.bitwise_xor(
                tbuf[..., slot, :], dbuf[..., slot, :], out=tbuf[..., slot, :]
            )
        lanes = tbuf.shape[0] if tbuf.ndim == 3 else 1
        words = tbuf.shape[-1]
        kernels = len(plan.outputs)
    elif isinstance(target, Sequence):
        if dbuf.ndim != 3 or len(target) != dbuf.shape[0]:
            raise PlanError(
                f"applying to {len(target)} stripes needs a batch delta "
                "with one lane per stripe"
            )
        views = []
        for stripe in target:
            _check_geometry(plan, stripe)
            views.append(_word_view(stripe))
        for i, tbuf in enumerate(views):
            for slot in plan.outputs:
                np.bitwise_xor(tbuf[slot], dbuf[i, slot], out=tbuf[slot])
        lanes = len(views)
        words = dbuf.shape[-1]
        kernels = len(plan.outputs) * lanes
    else:
        raise InvalidParameterError(
            f"cannot apply an update to {type(target).__name__}"
        )
    if stats is not None:
        per_call_words = words if dbuf.dtype == np.uint64 else max(words // 8, 1)
        stats.record_xor(len(plan.outputs) * per_call_words * lanes, kernels)


# -- the pure-Python oracle ---------------------------------------------------------


def execute_plan_scalar(plan: XorPlan, stripe: Stripe) -> None:
    """Execute ``plan`` with Python integers only — the reference tier.

    Every buffer is a plain list of ints; every step XORs word by word
    in interpreted Python.  Nothing here touches numpy's kernels, so a
    bug in the vectorized executor cannot hide in this path (and vice
    versa).  This is also the honest "pure-Python" baseline the
    throughput benchmark compares the engine against.
    """
    _check_geometry(plan, stripe)
    flat = stripe.flat_view()
    cells: dict[int, list[int]] = {
        slot: [int(b) for b in flat[slot]] for slot in range(plan.num_cells)
    }
    for t in range(plan.num_temps):
        cells[plan.num_cells + t] = [0] * stripe.element_size
    for step in plan.steps:
        srcs = [cells[s] for s in step.srcs]
        out = list(srcs[0])
        for src in srcs[1:]:
            for i in range(len(out)):  # noqa: R006 — the oracle is scalar on purpose
                out[i] ^= src[i]
        cells[step.dst] = out
    for slot in {step.dst for step in plan.steps if step.dst < plan.num_cells}:
        flat[slot] = np.asarray(cells[slot], dtype=np.uint8)
    _clear_outputs(plan, stripe)
