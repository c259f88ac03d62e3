"""The kernel-backend contract and the helpers every backend shares.

A :class:`KernelBackend` is an *execution strategy* for a compiled
:class:`~repro.engine.plan.XorPlan`: same IR in, same bytes out, only
the kernel shape differs (per-step numpy calls or a native C inner
loop).  Backends never touch the compiler or the plan — the plan-hash
pins stay untouched by construction — and every backend must:

- be **byte-identical** to the scalar oracle
  (:func:`~repro.engine.executor.execute_plan_scalar`) for any target
  the vector executor accepts, including uint8-lane fallbacks for
  unaligned element sizes and degraded stripes;
- **charge the ledger**: word-XOR and kernel counts are recorded on
  the caller's :class:`~repro.array.iostats.IOStats` with the same
  64-bit-word normalization the vector executor uses (lint rule R010
  enforces that every backend entry point takes the ``stats`` seam);
- **clear outputs**: erased/latent flags of the cells the plan wrote
  are lifted exactly like :func:`~repro.engine.executor.execute_plan`
  does.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Union

import numpy as np

from ...array.stripe import Stripe, StripeBatch
from ...exceptions import InvalidParameterError

if TYPE_CHECKING:
    from ...array.iostats import IOStats
    from ..plan import XorPlan

#: What every backend accepts as a target (mirrors the executor).
Target = Union[Stripe, StripeBatch, Sequence[Stripe]]


class KernelBackend:
    """One execution strategy for compiled XOR plans.

    Subclasses set :attr:`name` and implement :meth:`execute`;
    :meth:`available` gates optional backends (a native backend with
    no C compiler on the host reports False and the registry's
    ``auto`` resolution skips it).
    """

    #: Registry key and the ``engine=`` string that selects it.
    name = "abstract"

    def available(self) -> bool:
        """True when this backend can run on the current host."""
        return True

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
        workers: int | None = None,
    ) -> None:
        """Run ``plan`` in place on ``target`` (see module contract)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


def split_targets(target: Target) -> "list[Stripe | StripeBatch]":
    """Normalize a target into region-executable pieces.

    A :class:`Stripe` or :class:`StripeBatch` is one contiguous region;
    a plain sequence of stripes becomes one region per stripe (their
    allocations are unrelated, so they cannot share kernels).
    """
    if isinstance(target, (Stripe, StripeBatch)):
        return [target]
    if isinstance(target, Sequence):
        return list(target)
    raise InvalidParameterError(
        f"cannot execute a plan on {type(target).__name__}"
    )


def charge_stats(
    stats: "IOStats | None",
    plan: "XorPlan",
    buf: np.ndarray,
    kernels: int,
) -> None:
    """Record a region execution on the ledger.

    ``buf`` is the word (or uint8-fallback) view the region ran over;
    XOR work is normalized to 64-bit words exactly like the vector
    executor so the counter has one unit regardless of backend or
    dtype path.  ``kernels`` is backend-specific: fused multi-source
    reductions for the native backend, ufunc invocations for the
    vector path.
    """
    if stats is None:
        return
    words = buf.shape[-1]
    lanes = buf.shape[0] if buf.ndim == 3 else 1
    per_call_words = words if buf.dtype == np.uint64 else max(words // 8, 1)
    stats.record_xor(plan.xors_per_word * per_call_words * lanes, kernels)
