"""Wrap the served stack's public entry points in tracer spans.

Every wrapper is installed from outside: instance attributes shadow the
methods of each traced pool's shard objects (store, sidecar, journal, code,
locks), and module attributes are swapped for the functions the stack
looks up at call time (plan compiler, resilient decoder).  ``instrument``
returns an undo callable that removes every wrapper again.

Span names, grouped by the layer they are charged to:

- service: ``service.locate``, ``service.lock_wait``
- filestore: ``filestore.write``, ``filestore.read``, ``filestore.flush``,
  ``filestore.rebuild``, ``filestore.fail_disk``
- checksum: ``checksum`` (``ChecksumSidecar.record`` / ``record_stripe``)
- journal: ``journal`` (``ParityIntentJournal.log_*`` and ``checkpoint``)
- compile: ``compile.plan`` (``compile_plan``), ``compile.strategy``
  (``choose_update_strategy``)
- kernel: ``kernel`` (the resolved backend's ``execute`` /
  ``execute_update``; bytes are counted here because the stack's own
  ``IOStats.xor_words`` is not charged on the compiled decode path)
- decode: ``decode.resilient`` (``faults.healing.decode_resilient``),
  ``decode.code`` (``ArrayCode.decode``), ``codes.can_recover``
"""

from __future__ import annotations

import threading

import repro.array.filestore as filestore_module
import repro.engine as engine_package
import repro.engine.compile as compile_module
import repro.faults.healing as healing_module
from repro.engine import resolve_backend

JOURNAL_METHODS = ("log_intent", "log_commit", "log_discard", "checkpoint")


def _plan_cells(plan, cache: dict) -> int:
    """Cells one lane of ``plan`` reads or writes (a step's sources
    plus its destination)."""
    cells = cache.get(plan.plan_hash)
    if cells is None:
        cells = cache[plan.plan_hash] = sum(len(step.srcs) + 1 for step in plan.steps)
    return cells


def _target_bytes(plan, target, cells: int) -> int:
    if isinstance(target, (list, tuple)):
        return sum(_target_bytes(plan, item, cells) for item in target)
    data = target.data
    cell_bytes = data.shape[-1]
    lanes = data.size // (cell_bytes * plan.num_cells)
    return lanes * cells * cell_bytes


def instrument(tracer, pools, on_lock_request=None):
    """Trace every pool in ``pools`` and the module-level functions
    they call.

    ``on_lock_request(shard)`` is called when a thread other than the
    main thread asks for a shard's write lock (the scheduler's worker
    starting an op), just before the lock-wait span opens.
    """
    undo = []

    def shadow(obj, attr, wrapped):
        setattr(obj, attr, wrapped)
        undo.append(lambda: delattr(obj, attr))

    def swap(module, attr, wrapped):
        original = getattr(module, attr)
        setattr(module, attr, wrapped)
        undo.append(lambda: setattr(module, attr, original))

    main = threading.main_thread()
    for pool in pools:
        _instrument_pool(tracer, pool, shadow, main, on_lock_request)

    resilient = tracer.wrap("decode.resilient", healing_module.decode_resilient)
    swap(healing_module, "decode_resilient", resilient)
    swap(filestore_module, "decode_resilient", resilient)
    compile_plan = tracer.wrap("compile.plan", compile_module.compile_plan)
    strategy = tracer.wrap("compile.strategy", compile_module.choose_update_strategy)
    for module in (compile_module, engine_package):
        swap(module, "compile_plan", compile_plan)
        swap(module, "choose_update_strategy", strategy)

    backend = resolve_backend("auto")
    cells_of: dict = {}

    def count_execute(args, kwargs, result):
        plan, target = args[0], args[1]
        tracer.count("kernel.bytes", _target_bytes(plan, target, _plan_cells(plan, cells_of)))

    shadow(backend, "execute", tracer.wrap("kernel", backend.execute, count_execute))
    if hasattr(backend, "execute_update"):

        def count_update(args, kwargs, result):
            plan, stripe = args[0], args[1]
            cells = _plan_cells(plan, cells_of) + 2 * (len(plan.pattern) + len(plan.outputs))
            tracer.count("kernel.bytes", cells * stripe.data.shape[-1])

        shadow(backend, "execute_update", tracer.wrap("kernel", backend.execute_update, count_update))

    def restore() -> None:
        while undo:
            undo.pop()()

    return restore


def _instrument_pool(tracer, pool, shadow, main, on_lock_request) -> None:
    shadow(pool, "locate", tracer.wrap("service.locate", pool.locate))
    for shard, lock in enumerate(pool.locks):
        timed = tracer.wrap("service.lock_wait", lock.acquire_write)

        def acquire(timed=timed, shard=shard):
            if on_lock_request is not None and threading.current_thread() is not main:
                on_lock_request(shard)
            timed()

        shadow(lock, "acquire_write", acquire)

    for store in pool.shards:
        for method in ("write", "read", "flush", "rebuild", "fail_disk"):
            shadow(store, method, tracer.wrap(f"filestore.{method}", getattr(store, method)))
        for method in ("record", "record_stripe"):
            shadow(store.sidecar, method, tracer.wrap("checksum", getattr(store.sidecar, method)))
        journal = store.journal
        if journal is not None:

            def device_peak(args, kwargs, result, device=journal.device):
                tracer.peak("journal.device_bytes", len(device))

            for method in JOURNAL_METHODS:
                shadow(journal, method, tracer.wrap("journal", getattr(journal, method), device_peak))
        code = store.code
        shadow(code, "can_recover", tracer.wrap("codes.can_recover", code.can_recover))
        shadow(code, "decode", tracer.wrap("decode.code", code.decode))
