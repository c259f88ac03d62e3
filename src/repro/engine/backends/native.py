"""The native backend: a ctypes inner loop compiled on first use.

The numpy paths pay two costs the plan IR does not require: one kernel
dispatch per XOR *source* (a step with k sources is k-1 binary
``bitwise_xor`` calls, each re-reading the destination) and one full
memory pass per call.  The C kernel collapses each step into a single
multi-source reduction — every source read once, the destination
written once — and walks the whole schedule tile by tile in one
``ctypes`` call per region, so per-step overhead disappears entirely.
Measured on the benchmark host this is 2–4x over the single-thread
vector path at both L2-resident and DRAM-resident region sizes.

The backend is **optional by construction**: the C source below is
compiled with whatever ``cc``/``gcc``/``clang`` the host has, at first
use, into a per-process temporary directory.  No compiler, a failed
compile, or ``REPRO_DISABLE_NATIVE=1`` in the environment all make
:meth:`NativeBackend.available` report False and the registry's
``auto`` resolution falls back to the vector numpy backend — presence
of the backend can never be a correctness or import-time concern.

The kernel is byte-oriented (sizes and strides in bytes), so the
unaligned uint8-lane fallback needs no second entry point: gcc/clang
auto-vectorize the byte XOR loops to the same SIMD the uint64 view
would get.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from ...exceptions import InvalidParameterError
from ..executor import _check_geometry, _clear_outputs
from .base import KernelBackend, Target, charge_stats, split_targets

if TYPE_CHECKING:
    from collections.abc import Mapping

    from ...array.iostats import IOStats
    from ...array.stripe import Stripe
    from ..plan import XorPlan

#: Per-cell tile budget in bytes: each pass keeps one tile of every
#: live cell cache-resident across the whole schedule.
NATIVE_TILE_BYTES = 128 * 1024

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

/* Execute a flat XOR schedule over one contiguous region.
 *
 * buf:    lane 0's cell 0; cell c of lane l starts at
 *         buf + l*lane_stride + c*cell_bytes.
 * temps:  scratch area of num_temps * cell_bytes bytes (may be NULL
 *         when the plan hoisted no temporaries); reused per lane.
 * enc:    the schedule, flattened as [dst, nsrc, src...] per step.
 * tile:   bytes of each cell processed per pass, so one tile's live
 *         cells stay cache-resident across the whole schedule.
 */
void xor_exec_plan(uint8_t *buf, uint8_t *temps,
                   ptrdiff_t lanes, ptrdiff_t lane_stride,
                   ptrdiff_t cell_bytes,
                   const int32_t *enc, int32_t n_steps, int32_t num_cells,
                   ptrdiff_t tile)
{
    for (ptrdiff_t lane = 0; lane < lanes; lane++) {
        uint8_t *base = buf + lane * lane_stride;
        for (ptrdiff_t t0 = 0; t0 < cell_bytes; t0 += tile) {
            ptrdiff_t n = cell_bytes - t0 < tile ? cell_bytes - t0 : tile;
            const int32_t *p = enc;
            for (int32_t s = 0; s < n_steps; s++) {
                int32_t dslot = *p++;
                int32_t nsrc = *p++;
                uint8_t *restrict dst =
                    (dslot < num_cells
                         ? base + (ptrdiff_t)dslot * cell_bytes
                         : temps + (ptrdiff_t)(dslot - num_cells) * cell_bytes)
                    + t0;
                const uint8_t *srcs[64];
                for (int32_t k = 0; k < nsrc; k++) {
                    int32_t sl = p[k];
                    srcs[k] = (sl < num_cells
                                   ? base + (ptrdiff_t)sl * cell_bytes
                                   : temps + (ptrdiff_t)(sl - num_cells) * cell_bytes)
                              + t0;
                }
                p += nsrc;
                /* One fused multi-source reduction per destination:
                 * each source is read once, dst written once. */
                switch (nsrc) {
                case 1:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i];
                    break;
                case 2:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i];
                    break;
                case 3:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i];
                    break;
                case 4:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i];
                    break;
                case 5:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i] ^ srcs[4][i];
                    break;
                case 6:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i] ^ srcs[4][i] ^ srcs[5][i];
                    break;
                default: {
                    /* Wide steps: fixed-width passes so every loop
                     * auto-vectorizes (a runtime-length reduction in a
                     * scalar accumulator does not).  dst stays
                     * tile-resident, so the extra passes are cheap. */
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i];
                    int32_t k = 4;
                    for (; k + 3 <= nsrc; k += 3)
                        for (ptrdiff_t i = 0; i < n; i++)
                            dst[i] ^= srcs[k][i] ^ srcs[k + 1][i]
                                   ^ srcs[k + 2][i];
                    for (; k < nsrc; k++)
                        for (ptrdiff_t i = 0; i < n; i++)
                            dst[i] ^= srcs[k][i];
                }
                }
            }
        }
    }
}
"""

#: Lazily-populated compile state: None = not tried, False = failed,
#: otherwise the loaded ctypes function.
_KERNEL: "ctypes._CFuncPtr | None | bool" = None


def _find_compiler() -> str | None:
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    return None


def _compile_kernel() -> "ctypes._CFuncPtr | None":
    """Compile and load the C kernel; None on any failure."""
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        return None
    compiler = _find_compiler()
    if compiler is None:
        return None
    workdir = tempfile.mkdtemp(prefix="repro-native-")
    src = os.path.join(workdir, "xor_kernel.c")
    lib = os.path.join(workdir, "xor_kernel.so")
    with open(src, "w") as fh:
        fh.write(_C_SOURCE)
    base_cmd = [compiler, "-O3", "-shared", "-fPIC", src, "-o", lib]
    for extra in (["-march=native"], []):
        try:
            result = subprocess.run(
                base_cmd[:2] + extra + base_cmd[2:],
                capture_output=True,
                timeout=120,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        if result.returncode == 0:
            break
    else:
        return None
    try:
        dll = ctypes.CDLL(lib)
    except OSError:
        return None
    fn = dll.xor_exec_plan
    fn.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_ssize_t,
        ctypes.c_ssize_t,
        ctypes.c_ssize_t,
        ctypes.c_void_p,
        ctypes.c_int32,
        ctypes.c_int32,
        ctypes.c_ssize_t,
    ]
    fn.restype = None
    return fn


def _kernel() -> "ctypes._CFuncPtr | None":
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _compile_kernel() or False
    return _KERNEL or None


def _encode_schedule(plan: "XorPlan") -> np.ndarray:
    """Flatten the steps into the C kernel's int32 wire format."""
    enc: list[int] = []
    for step in plan.steps:
        enc.append(step.dst)
        enc.append(len(step.srcs))
        enc.extend(step.srcs)
    return np.asarray(enc, dtype=np.int32)


class NativeBackend(KernelBackend):
    """Compiled C inner loop behind ``ctypes``, one call per region."""

    name = "native"

    #: encoded-schedule caches keyed by plan hash (plans are immutable);
    #: update plans cache the extended [delta-build | plan | fold] form.
    def __init__(self) -> None:
        self._schedules: dict[str, np.ndarray] = {}
        self._update_schedules: dict[
            str, tuple[np.ndarray, tuple[int, ...], int]
        ] = {}

    def available(self) -> bool:
        return _kernel() is not None

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
        workers: int | None = None,
    ) -> None:
        """Run the whole schedule in one C call per contiguous region.

        ``workers`` is accepted for seam compatibility and ignored (the
        native loop is single-thread).
        """
        fn = _kernel()
        if fn is None:
            raise InvalidParameterError(
                "native backend unavailable on this host (no C compiler); "
                "use engine='auto' for graceful fallback"
            )
        enc = self._schedules.get(plan.plan_hash)
        if enc is None:
            enc = self._schedules[plan.plan_hash] = _encode_schedule(plan)
        for piece in split_targets(target):
            _check_geometry(plan, piece)
            flat = piece.flat_view()  # (..., cells, element_size) uint8
            cell_bytes = flat.shape[-1]
            lanes = flat.shape[0] if flat.ndim == 3 else 1
            temps = (
                np.empty((plan.num_temps, cell_bytes), dtype=np.uint8)
                if plan.num_temps
                else None
            )
            tile = max(1, min(cell_bytes, NATIVE_TILE_BYTES))
            fn(
                flat.ctypes.data,
                temps.ctypes.data if temps is not None else None,
                lanes,
                plan.num_cells * cell_bytes,
                cell_bytes,
                enc.ctypes.data,
                len(plan.steps),
                plan.num_cells,
                tile,
            )
            charge_stats(stats, plan, flat, plan.fused_kernel_calls)
            _clear_outputs(plan, piece)

    # -- the end-to-end update path -------------------------------------------

    def _update_schedule(
        self, plan: "XorPlan"
    ) -> tuple[np.ndarray, tuple[int, ...], int]:
        """The extended schedule for an update plan, cached by hash.

        Layout: the live stripe is the ``buf`` region (``num_cells``
        cells); the *delta domain* lives entirely in scratch.  Cell
        slot ``s`` of the delta buffer maps to scratch slot
        ``num_cells + index(s)`` (only the slots the plan actually
        touches get scratch, compacted), and the plan's own temps
        follow.  The schedule is three phases in one flat program:

        1. delta build — scratch holds the dirty cells' *old* bytes
           (preloaded by the caller); one in-place XOR against the live
           (new) cell turns each into ``old ⊕ new``;
        2. the update plan's steps, slot-remapped into scratch, which
           leave each dirtied parity's *delta* in scratch;
        3. masked fold — each output parity cell of the live stripe is
           XORed with its delta, exactly like
           :func:`~repro.engine.executor.apply_update`.

        Returns ``(encoded schedule, touched delta slots in scratch
        order, scratch cell count)``.
        """
        cached = self._update_schedules.get(plan.plan_hash)
        if cached is not None:
            return cached
        touched = sorted(
            {
                slot
                for step in plan.steps
                for slot in (step.dst, *step.srcs)
                if slot < plan.num_cells
            }
            | set(plan.pattern)
            | set(plan.outputs)
        )
        index = {slot: i for i, slot in enumerate(touched)}
        ncells = plan.num_cells

        def delta_slot(slot: int) -> int:
            # A delta-domain slot, remapped into the scratch region.
            if slot < ncells:
                return ncells + index[slot]
            return ncells + len(touched) + (slot - ncells)

        enc: list[int] = []
        for dirty in plan.pattern:
            d = delta_slot(dirty)
            enc.extend((d, 2, d, dirty))  # scratch(old) ^= live(new)
        for step in plan.steps:
            enc.append(delta_slot(step.dst))
            enc.append(len(step.srcs))
            enc.extend(delta_slot(s) for s in step.srcs)
        for out in plan.outputs:
            enc.extend((out, 2, out, delta_slot(out)))  # parity ^= delta
        entry = (np.asarray(enc, dtype=np.int32), tuple(touched), len(touched))
        self._update_schedules[plan.plan_hash] = entry
        return entry

    def execute_update(
        self,
        plan: "XorPlan",
        stripe: "Stripe",
        old: "Mapping[int, np.ndarray]",
        *,
        stats: "IOStats | None" = None,
    ) -> None:
        """Fold an update plan's parity deltas into a live stripe.

        One C call covers what the numpy flush path spreads over three
        layers (delta build, plan execution, ``apply_update``):
        ``stripe`` holds the *new* data, ``old`` maps each dirty cell
        slot (``r * cols + c``) to its pre-image bytes, and on return
        every dirtied parity cell has been updated in place.  The
        extended schedule is cached per plan hash like the plain path.
        """
        fn = _kernel()
        if fn is None:
            raise InvalidParameterError(
                "native backend unavailable on this host (no C compiler); "
                "use engine='auto' for graceful fallback"
            )
        if plan.op != "update":
            raise InvalidParameterError(
                f"execute_update needs an 'update' plan, got {plan.op!r}"
            )
        missing = [slot for slot in plan.pattern if slot not in old]
        if missing:
            raise InvalidParameterError(
                f"missing pre-images for dirty slots {missing}"
            )
        enc, touched, scratch_cells = self._update_schedule(plan)
        _check_geometry(plan, stripe)
        flat = stripe.flat_view()
        cell_bytes = flat.shape[-1]
        scratch = np.zeros(
            (scratch_cells + plan.num_temps, cell_bytes), dtype=np.uint8
        )
        for i, slot in enumerate(touched):
            if slot in old:
                scratch[i] = old[slot]
        n_steps = len(plan.pattern) + len(plan.steps) + len(plan.outputs)
        tile = max(1, min(cell_bytes, NATIVE_TILE_BYTES))
        fn(
            flat.ctypes.data,
            scratch.ctypes.data,
            1,
            0,
            cell_bytes,
            enc.ctypes.data,
            n_steps,
            plan.num_cells,
            tile,
        )
        if stats is not None:
            per_word = max(cell_bytes // 8, 1)
            xors = len(plan.pattern) + plan.xors_per_word + len(plan.outputs)
            stats.record_xor(xors * per_word, 1)
