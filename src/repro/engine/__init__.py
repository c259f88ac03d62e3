"""repro.engine — plan compiler and vectorized XOR executor.

The engine turns a code's parity equations into a flat, topologically
ordered XOR schedule (:class:`XorPlan`) once, caches it, and then runs
that schedule over ``uint64``-viewed stripe buffers with a handful of
numpy kernels per step.  The pure-Python decoders in
:mod:`repro.codes` remain the reference oracle; every plan is checked
byte-identical against them in the differential tests.

Typical use::

    from repro.engine import compile_plan, execute_plan

    plan = compile_plan(code, "recover-double", (0, 2))
    execute_plan(plan, stripe)           # one stripe
    execute_plan(plan, batch)            # a StripeBatch, one kernel per step
    execute_plan(plan, stripe, workers=4)  # chains in parallel

Higher layers normally never touch this module directly — they pass
``engine="vector"`` (or any backend name from
:mod:`repro.engine.backends`: ``native``, or ``auto`` — native when
the host can compile it, else vector) to
:meth:`ArrayCode.encode/decode`, the recovery planners, or
:class:`RAID6Volume` and the wiring lands here.
"""

from .backends import (
    ENGINE_CHOICES,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    require_engine,
    resolve_backend,
)
from .compile import (
    MAX_CSE_TEMPS,
    PLAN_CACHE,
    UPDATE_STRATEGIES,
    PlanCache,
    choose_update_strategy,
    compile_plan,
    eliminate_common_pairs,
    lower_single_recovery,
)
from .executor import (
    apply_update,
    execute_plan,
    execute_plan_scalar,
    shutdown_executor_pool,
)
from .plan import PLAN_OPS, XorPlan, XorStep

__all__ = [
    "ENGINE_CHOICES",
    "MAX_CSE_TEMPS",
    "PLAN_CACHE",
    "PLAN_OPS",
    "UPDATE_STRATEGIES",
    "KernelBackend",
    "PlanCache",
    "XorPlan",
    "XorStep",
    "apply_update",
    "available_backends",
    "choose_update_strategy",
    "compile_plan",
    "eliminate_common_pairs",
    "execute_plan",
    "execute_plan_scalar",
    "get_backend",
    "lower_single_recovery",
    "register_backend",
    "require_engine",
    "resolve_backend",
    "shutdown_executor_pool",
]
