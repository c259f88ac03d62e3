"""A byte-addressed store over encoded stripes: the adoption surface.

Everything else in :mod:`repro.array` counts I/O; ``FileStore`` moves
real bytes.  It stripes a growable byte space across a code's data
elements, keeps parity consistent through the small-write delta path,
and honours disk failures the way an array does:

- **degraded reads** reconstruct lost elements on the fly from the
  surviving cells (the stripe itself stays degraded);
- **degraded writes** are reconstruct-writes: the store decodes the
  stripe, applies the update, and persists the surviving columns plus
  refreshed parity, so the lost element's *logical* content is the new
  data even though its disk is gone;
- **rebuild** decodes every stripe to bring a replaced disk back.

Writes touching several elements of one stripe update parity **once
per stripe**, not once per element: the deltas of all touched elements
are folded down each parity chain in a single pass
(:meth:`ArrayCode.update_elements`).

With ``cache_stripes > 0`` the store runs **write-back**: data bytes
land in the stripe immediately (reads stay coherent) but the parity
update is deferred in a :class:`~repro.array.stripe_cache.StripeCache`
— a bounded LRU of dirty-element bitmaps plus first-touch pre-image
snapshots.  :meth:`flush` (or LRU eviction, or any operation that
needs consistent parity — disk failure, scrub, rebuild, degraded
read) computes ``old ⊕ new`` deltas, groups dirty stripes sharing a
dirty pattern into one :class:`~repro.array.stripe.StripeBatch`, and
executes a single compiled ``update`` plan per pattern
(:func:`repro.engine.compile.compile_plan`), falling back to a full
re-encode when the cost model says the stripe is mostly dirty
(:func:`repro.engine.compile.choose_update_strategy`).  CRC sidecars
are refreshed once per flushed element, not once per overwrite.

Deferring parity opens the RAID-6 **write hole**, and a cached store
therefore journals by default: every write frames an intent record in
a :class:`~repro.journal.ParityIntentJournal` *before* any stripe byte
mutates, every flushed stripe frames a commit after its parity and
sidecars land, and the device is truncated when the cache drains.
After a crash, :meth:`reopen_from` adopts the durable state (stripes,
sidecar, failed disks, journal device) and :meth:`recover` replays
complete records, discards the torn tail, and re-derives parity for
every flagged stripe through the compiled encode plans — see
``docs/JOURNAL.md`` for the protocol and :mod:`repro.faults.crash`
for the kill-anywhere harness built on the store's ``crash_hook``.

The store is a context manager: a clean exit flushes, but an exit
with an exception propagating **discards** the dirty cache instead —
rolling every dirty element back to its pre-image behind a journaled
discard record — so a half-written poisoned stripe is never pushed
into parity (a :class:`~repro.array.iostats.DirtyCacheDiscarded` note
lands in :attr:`stats`).

Every element carries a CRC32 sidecar entry
(:class:`~repro.faults.checksum.ChecksumSidecar`) so silent corruption
is detectable, and an optional :class:`~repro.faults.injector.
FaultInjector` can be attached to fire scheduled faults as element I/O
streams through; with a write-back cache the injector's clock also
advances once per dirty element at flush time, when the deferred
parity actually lands.  Reads self-heal: an element hit by a latent
sector error (URE) is transparently rebuilt through a parity chain,
escalating to the full decoder when chains are poisoned (see
:mod:`repro.faults.healing`).

Used by ``examples/file_storage_demo.py``, the fault-injection demo,
the write-path benchmark (``repro bench-write``), and the end-to-end
tests.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import (
    ChecksumMismatchError,
    ConcurrentMutationError,
    InvalidParameterError,
    PlanError,
    TransientIOError,
    UnrecoverableFailureError,
)
from ..faults.checksum import ChecksumSidecar, crc_of
from ..faults.healing import HealingStats, decode_resilient, recover_element
from ..journal import (
    JournalPiece,
    ParityIntentJournal,
    RecoveryReport,
    apply_record,
    undo_record,
)
from .iostats import DirtyCacheDiscarded, IOStats
from .stripe import Stripe, StripeBatch
from .stripe_cache import DirtyStripe, StripeCache

if TYPE_CHECKING:  # imported lazily to avoid a codes<->array cycle
    from ..codes.base import ArrayCode
    from ..faults.checksum import ScrubReport
    from ..faults.injector import FaultInjector

Position = tuple[int, int]

#: One piece of a write landing in a single element:
#: ``(position, byte offset within the element, payload view)``.
Piece = tuple[Position, int, memoryview]


class FileStore:
    """A growable byte store protected by one RAID-6 array code."""

    def __init__(
        self,
        code: "ArrayCode",
        element_size: int = 4096,
        injector: "FaultInjector" | None = None,
        engine: str = "python",
        cache_stripes: int = 0,
        journal: "ParityIntentJournal | bool | None" = None,
    ) -> None:
        from ..engine import require_engine

        if element_size <= 0:
            raise InvalidParameterError("element_size must be positive")
        if cache_stripes < 0:
            raise InvalidParameterError("cache_stripes must be >= 0")
        self.code = code
        self.element_size = element_size
        self.engine = require_engine(engine)
        self._eps = code.data_elements_per_stripe  # hot-path copy
        self.stripes: list[Stripe] = []
        self.failed_disks: set[int] = set()
        self.sidecar = ChecksumSidecar(code.rows, code.cols)
        self.injector = injector
        self.healing = HealingStats()
        self.stats = IOStats(code.cols)
        self.cache = StripeCache(cache_stripes) if cache_stripes else None
        # Write-ahead parity intent log.  ``None`` means "default":
        # journal exactly when parity is deferred (the write hole only
        # opens with a write-back cache); ``True``/``False``/an
        # instance overrides.
        if journal is None:
            journal = bool(cache_stripes)
        if journal is True:
            journal = ParityIntentJournal()
        elif journal is False:
            journal = None
        self.journal: ParityIntentJournal | None = journal
        #: crash-harness trampoline: called with a site label at every
        #: durable-I/O boundary (see :mod:`repro.faults.crash`).
        self._crash_hook = None
        #: tripwire for the structural-op exclusivity contract (below).
        self._op_lock = threading.RLock()
        #: logical data elements written (payload landing, not parity)
        self.data_writes = 0
        #: parity elements physically rewritten (the RMW overhead)
        self.parity_writes = 0
        if injector is not None:
            injector.attach(self)

    # -- context manager: flush on clean exit, discard on error ------------------

    def __enter__(self) -> "FileStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
        else:
            # An exception is propagating: the dirty cache may hold a
            # half-applied write.  Folding it into parity would launder
            # poisoned bytes into consistency; roll back instead.
            self.discard_dirty()

    # -- geometry --------------------------------------------------------------

    @property
    def elements_per_stripe(self) -> int:
        return self._eps

    @property
    def bytes_per_stripe(self) -> int:
        return self._eps * self.element_size

    @property
    def capacity(self) -> int:
        """Bytes currently addressable (grows on write)."""
        return len(self.stripes) * self._eps * self.element_size

    def _locate(self, element_index: int) -> tuple[int, Position]:
        stripe_idx, offset = divmod(element_index, self._eps)
        return stripe_idx, self.code.data_positions[offset]

    def _ensure_capacity(self, end_byte: int) -> None:
        while self.capacity < end_byte:
            stripe = self.code.make_stripe(self.element_size)
            self.code.encode(stripe, engine=self.engine)  # all-zero data, valid parity
            self.sidecar.add_stripe(stripe)
            for disk in self.failed_disks:
                stripe.erase_disks([disk])
            self.stripes.append(stripe)

    def reserve(self, num_stripes: int) -> None:
        """Pre-allocate the volume out to ``num_stripes`` stripes.

        The store normally grows lazily on write; a served shard wants
        its full extent encoded up front so capacity never changes
        under a concurrent op stream (and so a read ahead of any write
        is a defined, all-zero answer rather than a range error).
        """
        if num_stripes < 0:
            raise InvalidParameterError("num_stripes must be >= 0")
        self._ensure_capacity(num_stripes * self.bytes_per_stripe)

    # -- structural-op exclusivity ------------------------------------------------

    @contextmanager
    def _exclusive(self, op: str):
        """Tripwire: structural ops must not interleave across threads.

        ``flush``/``recover``/``fail_disk``/``rebuild`` rewrite parity,
        drain the cache, or re-shape erasure state across many stripes;
        two threads interleaving them on one store would corrupt it in
        ways no counter could detect.  The store does **not** serialize
        callers — that is the owning :class:`~repro.service.ShardLock`'s
        job — it *detects* the contract being broken and raises
        :class:`~repro.exceptions.ConcurrentMutationError` immediately
        instead of corrupting silently.  The underlying RLock keeps
        same-thread reentrancy legal (``fail_disk`` and ``rebuild``
        flush internally; an injector's whole-disk crash fires
        ``fail_disk`` from inside a flush).
        """
        if not self._op_lock.acquire(blocking=False):
            raise ConcurrentMutationError(
                f"{op}() entered while another thread runs a structural "
                "op on this store; serialize through the shard's lock"
            )
        try:
            yield
        finally:
            self._op_lock.release()

    # -- fault plumbing ----------------------------------------------------------

    def _element_io(self, stripe_idx: int, pos: Position, kind: str) -> bool:
        """Advance the injector's clock for one element access.

        Returns False when a transient window on the element's disk
        outlasted the retry budget — the caller treats the element as
        unreadable for this operation and recovers through parity.
        """
        if self.injector is None:
            return True
        try:
            self.injector.on_element_io(stripe_idx, pos, kind)
        except TransientIOError:
            return False
        return True

    @property
    def crash_hook(self):
        return self._crash_hook

    @crash_hook.setter
    def crash_hook(self, hook) -> None:
        # Arming the hook also arms the journal's per-append
        # instrumentation (the two-half torn-write path); unarmed, the
        # journal appends in one shot with no per-frame callbacks, so
        # the harness costs nothing when it isn't watching.
        self._crash_hook = hook
        if self.journal is not None:
            self.journal.io_hook = self._crash_point if hook is not None else None

    def _crash_point(self, site: str) -> None:
        """Fire the crash hook at a durable-I/O boundary.

        Sites: ``journal-intent[-mid]``, ``journal-commit[-mid]``,
        ``journal-discard[-mid]`` (fired by the journal device),
        ``data-write``, ``flush-start``, ``parity-write``.  A hook that
        raises models a power cut *at that instant*: everything already
        written stays, everything after is lost.
        """
        if self._crash_hook is not None:
            self._crash_hook(site)

    # -- journal plumbing --------------------------------------------------------

    def _journal_intent(
        self,
        stripe_idx: int,
        stripe: Stripe,
        pieces: list[Piece],
        entry: DirtyStripe | None = None,
    ) -> None:
        """Flag the stripe's deferred parity before any data byte lands.

        Write-ahead discipline: the intent frame (dirty pattern plus a
        full pre-image of each first-touched element, the same snapshot
        discipline as :class:`DirtyStripe`) is on the journal device
        before the write mutates the stripe, so recovery always knows
        which stripes may hold landed data over stale parity.  With a
        cache entry only *first touches* are framed — a write that hits
        only already-dirty elements is absorbed by the flag that is
        already durable, which is what keeps the journal off the
        small-write hot path.  Without an entry (write-through /
        reconstruct-write) every write frames its pattern: the stripe
        commits immediately after, so there is no flag to absorb into.
        """
        assert self.journal is not None
        cols = self.code.cols
        journal_pieces = []
        if entry is not None:
            seen_first: set[Position] = set()
            for pos, within, _ in pieces:
                if entry.is_dirty(pos) or pos in seen_first:
                    continue  # absorbed: the stripe's flag is already durable
                seen_first.add(pos)
                journal_pieces.append(
                    JournalPiece(
                        pos[0] * cols + pos[1],
                        within,
                        b"",
                        stripe.data[pos].tobytes(),
                    )
                )
            if not journal_pieces:
                return
        else:
            journal_pieces = [
                JournalPiece(pos[0] * cols + pos[1], within, b"")
                for pos, within, _ in pieces
            ]
        self.stats.record_journal(self.journal.log_intent(stripe_idx, journal_pieces))

    def _journal_commit(self, stripe_idx: int) -> None:
        """Void the stripe's intents: its parity and sidecars landed."""
        if self.journal is not None:
            self.stats.record_journal(self.journal.log_commit(stripe_idx))

    def _maybe_checkpoint(self) -> None:
        """Truncate the journal once nothing is deferred any more."""
        if self.journal is not None and (self.cache is None or not len(self.cache)):
            self.journal.checkpoint()

    # -- crash recovery ----------------------------------------------------------

    def discard_dirty(self) -> int:
        """Roll every dirty cached stripe back to its pre-images.

        The error-exit path: each dirty stripe is journaled with a
        discard record *before* its rollback (write-ahead in both
        directions — a crash mid-rollback replays deterministically),
        then every first-touch pre-image is restored.  Returns the
        number of stripes rolled back and leaves a
        :class:`DirtyCacheDiscarded` note in :attr:`stats`.
        """
        if self.cache is None or not len(self.cache):
            return 0
        stripes_rolled = 0
        elements = 0
        for idx, entry in self.cache.discard_all():
            if not entry.num_dirty:
                continue
            stripes_rolled += 1
            if self.journal is not None:
                self.stats.record_journal(self.journal.log_discard(idx))
            stripe = self.stripes[idx]
            for pos, old in entry.old.items():
                r, c = pos
                if stripe.erased[r, c]:
                    continue
                stripe.data[r, c] = old
                stripe.latent[r, c] = False
                elements += 1
                self.stats.record_write(c)
        if stripes_rolled:
            self.stats.record_note(DirtyCacheDiscarded(stripes_rolled, elements))
        self._maybe_checkpoint()
        return stripes_rolled

    def recover(self) -> RecoveryReport:
        """Replay the journal and restore parity consistency.

        The recovery contract (see ``docs/JOURNAL.md``): a write is
        durable once its data bytes landed under an intent flag that is
        fully on the journal device.  Replay trusts the log up to the
        first torn frame, rolls back discarded intents (newest first),
        redoes any payload-carrying pending pieces (oldest first),
        then re-derives parity for every flagged stripe —
        healthy stripes through the engine's compiled encode plans,
        degraded ones chain-by-chain where every member is readable
        (the rest are reported ``unrecovered``).  Finishes with a
        checkpoint: the journal only ever describes in-flight work.
        """
        report = RecoveryReport()
        if self.journal is None:
            return report
        with self._exclusive("recover"):
            replay = self.journal.replay()
            report.records_scanned = len(replay.records)
            report.torn_bytes = replay.torn_bytes
            report.intents = replay.intents
            report.commits = replay.commits
            report.discards = replay.discards
            cols = self.code.cols
            for stripe_idx in replay.dirty_stripes():
                if stripe_idx >= len(self.stripes):
                    continue  # an intent can never precede capacity growth
                report.stripes_flagged += 1
                stripe = self.stripes[stripe_idx]
                for record in reversed(replay.discarded.get(stripe_idx, [])):
                    report.elements_undone += len(
                        undo_record(record, stripe, cols)
                    )
                for record in replay.pending.get(stripe_idx, []):
                    applied = apply_record(record, stripe, cols)
                    report.pieces_redone += len(applied)
                    for _, c in applied:
                        self.stats.record_write(c)
                self._restore_parity(stripe_idx, report)
            self.journal.checkpoint()
        return report

    def _restore_parity(self, idx: int, report: RecoveryReport) -> None:
        """Re-derive one flagged stripe's parity after replay.

        Healthy stripes re-encode through the compiled plans (after a
        cheap verify, so the report distinguishes "flagged but already
        consistent" from "actually repaired").  Degraded stripes
        recompute each parity whose chain is fully readable; a chain
        with an erased or latent member cannot be re-derived from data
        alone and is reported unrecovered — the write hole genuinely
        loses information when it overlaps a disk failure.
        """
        stripe = self.stripes[idx]
        if stripe.any_faults():
            repaired = False
            for chain in self.code.encode_order:
                r, c = chain.parity
                if stripe.erased[r, c]:
                    continue  # gone with its disk; a rebuild re-derives it
                if any(not stripe.readable(m) for m in chain.members):
                    report.chains_skipped += 1
                    report.unrecovered.append((idx, (r, c)))
                    continue
                fresh = stripe.xor_of(chain.members)
                if not np.array_equal(fresh, stripe.data[r, c]):
                    repaired = True
                stripe.set((r, c), fresh)
                self.sidecar.record(idx, (r, c), fresh)
                self.stats.record_write(c)
                self.parity_writes += 1
            if repaired:
                report.stripes_repaired += 1
            # Refresh sidecars of the readable data cells the redo may
            # have touched; erased cells keep their *logical* CRCs.
            for pos in self.code.data_positions:
                if stripe.readable(pos):
                    self.sidecar.record(idx, pos, stripe.data[pos])
        else:
            consistent = self.code.verify(stripe)
            self.code.encode(stripe, engine=self.engine)
            if not consistent:
                report.stripes_repaired += 1
            self.sidecar.record_stripe(idx, stripe)
            for pos in self.code.data_positions:
                self.stats.record_read(pos[1])
            for pos in self.code.parity_positions:
                self.stats.record_write(pos[1])
                self.parity_writes += 1

    @classmethod
    def reopen_from(
        cls, crashed: "FileStore"
    ) -> "tuple[FileStore, RecoveryReport]":
        """Reopen a crashed store's durable state and run recovery.

        Durable (adopted): the stripe buffers — they *are* the data
        disks — the checksum sidecar, the failed-disk set, and the
        journal device with whatever frames landed before the crash.
        Volatile (lost): the stripe cache, counters, hooks, and any
        attached injector.  Returns the recovered store and the
        :class:`RecoveryReport` describing what replay found.
        """
        cache_stripes = crashed.cache.capacity if crashed.cache is not None else 0
        journal: ParityIntentJournal | bool = False
        if crashed.journal is not None:
            journal = ParityIntentJournal(crashed.journal.device)
        store = cls(
            crashed.code,
            element_size=crashed.element_size,
            engine=crashed.engine,
            cache_stripes=cache_stripes,
            journal=journal,
        )
        store.stripes = crashed.stripes
        store.sidecar = crashed.sidecar
        store.failed_disks = set(crashed.failed_disks)
        report = store.recover()
        return store, report

    # -- failure management ----------------------------------------------------------

    def fail_disk(self, disk: int) -> None:
        """Lose a disk: its column is erased in every stripe."""
        if not 0 <= disk < self.code.cols:
            raise InvalidParameterError(
                f"disk {disk} outside 0..{self.code.cols - 1}"
            )
        if disk in self.failed_disks:
            return
        if len(self.failed_disks) >= 2:
            raise UnrecoverableFailureError(
                "a third concurrent disk failure exceeds RAID-6"
            )
        with self._exclusive("fail_disk"):
            # Deferred parity must land while every column is still
            # present; after the erasure the cached pre-images would
            # describe cells the decoder can no longer see consistently.
            self.flush()
            self.failed_disks.add(disk)
            for stripe in self.stripes:
                stripe.erase_disks([disk])

    def rebuild(self, disk: int) -> None:
        """Reconstruct a failed disk's content and bring it back.

        Restored elements are verified against their CRC sidecars, so a
        rebuild silently poisoned by an undetected flip fails loudly
        (run a scrub first).  For a fault-aware, checkpointed rebuild
        use :class:`repro.faults.rebuild_orchestrator.
        RebuildOrchestrator`.
        """
        if disk not in self.failed_disks:
            raise InvalidParameterError(f"disk {disk} is not failed")
        with self._exclusive("rebuild"):
            self.flush()
            for idx, stripe in enumerate(self.stripes):
                restored = self._reconstructed(stripe)
                for r in range(self.code.rows):
                    buf = restored.get((r, disk))
                    if crc_of(buf) != self.sidecar.expected(idx, (r, disk)):
                        raise ChecksumMismatchError(
                            f"rebuild of disk {disk}: stripe {idx} element "
                            f"({r}, {disk}) decoded to content that fails "
                            "its checksum — scrub before rebuilding"
                        )
                    stripe.set((r, disk), buf)
            self.failed_disks.discard(disk)

    def scrub(self) -> list[int]:
        """Verify parity of every healthy stripe; return bad indices."""
        if self.failed_disks:
            raise InvalidParameterError("scrub requires a healthy array")
        self.flush()
        return [
            idx
            for idx, stripe in enumerate(self.stripes)
            if not self.code.verify(stripe)
        ]

    def scrub_checksums(self, repair: bool = True) -> "ScrubReport":
        """CRC-scrub every element, repairing flips and latent errors.

        Unlike :meth:`scrub` this works on degraded stores too; see
        :func:`repro.faults.checksum.scrub_store`.
        """
        from ..faults.checksum import scrub_store

        self.flush()
        return scrub_store(self, repair=repair)

    def _reconstructed(self, stripe: Stripe) -> Stripe:
        """A fully-decoded copy of a (possibly degraded) stripe.

        Routes through the resilient decoder so latent sector errors on
        surviving disks are absorbed instead of crashing the read.
        """
        if not stripe.erased.any() and not stripe.latent.any():
            return stripe
        return decode_resilient(self.code, stripe, self.healing, engine=self.engine)

    # -- byte I/O ----------------------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` (degraded reads included)."""
        if offset < 0 or size < 0:
            raise InvalidParameterError("offset and size must be >= 0")
        if offset + size > self.capacity:
            raise InvalidParameterError(
                f"read [{offset}, {offset + size}) beyond capacity {self.capacity}"
            )
        out = bytearray()
        cursor = offset
        remaining = size
        decoded_cache: dict[int, Stripe] = {}
        while remaining > 0:
            element_index, within = divmod(cursor, self.element_size)
            stripe_idx, pos = self._locate(element_index)
            chunk = min(remaining, self.element_size - within)
            stripe = self.stripes[stripe_idx]
            if (
                self.cache is not None
                and stripe_idx in self.cache
                and not stripe.readable(pos)
            ):
                # Parity-based recovery needs the deferred deltas in.
                self._flush_stripe(stripe_idx)
            served = self._element_io(stripe_idx, pos, "read")
            self.stats.record_read(pos[1])
            if stripe.readable(pos) and served:
                buf = stripe.get(pos)
            elif stripe_idx in decoded_cache:
                buf = decoded_cache[stripe_idx].get(pos)
            elif stripe.readable(pos):
                # Transient exhaustion only: the media is fine, rebuild
                # this element from its peers without decoding the rest.
                buf = recover_element(self.code, stripe, pos, self.healing)
            else:
                decoded_cache[stripe_idx] = self._reconstructed(stripe)
                buf = decoded_cache[stripe_idx].get(pos)
            out += bytes(buf[within : within + chunk])
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, growing the store as needed."""
        if offset < 0:
            raise InvalidParameterError("offset must be >= 0")
        if not data:
            return
        self._ensure_capacity(offset + len(data))
        view = memoryview(data)
        element_index, within = divmod(offset, self.element_size)
        if within + len(data) <= self.element_size:
            # Sub-element write, the small-write hot path: no grouping
            # pass needed.
            stripe_idx, pos = self._locate(element_index)
            self._write_stripe(stripe_idx, [(pos, within, view)])
            return
        by_stripe: dict[int, list[Piece]] = {}
        cursor = offset
        consumed = 0
        while consumed < len(data):
            element_index, within = divmod(cursor, self.element_size)
            stripe_idx, pos = self._locate(element_index)
            chunk = min(len(data) - consumed, self.element_size - within)
            by_stripe.setdefault(stripe_idx, []).append(
                (pos, within, view[consumed : consumed + chunk])
            )
            cursor += chunk
            consumed += chunk
        for stripe_idx, pieces in by_stripe.items():
            self._write_stripe(stripe_idx, pieces)

    # -- the write path, one stripe at a time -------------------------------------

    def _write_stripe(self, stripe_idx: int, pieces: list[Piece]) -> None:
        stripe = self.stripes[stripe_idx]
        if self.injector is not None:
            for pos, _, _ in pieces:
                self._element_io(stripe_idx, pos, "write")
        if stripe.any_faults():
            # Stale deferred parity must land before a reconstruct-write
            # decodes the stripe.
            if self.cache is not None and stripe_idx in self.cache:
                self._flush_stripe(stripe_idx)
            self._write_stripe_degraded(stripe_idx, pieces)
        elif self.cache is not None:
            self._write_stripe_cached(stripe_idx, pieces)
        else:
            self._write_stripe_through(stripe_idx, pieces)

    def _merge_pieces(
        self, stripe: Stripe, pieces: list[Piece], charge_reads: bool
    ) -> dict[Position, np.ndarray]:
        """Fold write pieces into full new element buffers (the RMW read)."""
        updates: dict[Position, np.ndarray] = {}
        for pos, within, piece in pieces:
            base = updates.get(pos)
            if base is None:
                base = stripe.get(pos).copy()
                if charge_reads:
                    self.stats.record_read(pos[1])
            base[within : within + len(piece)] = np.frombuffer(piece, dtype=np.uint8)
            updates[pos] = base
        return updates

    def _write_stripe_through(self, stripe_idx: int, pieces: list[Piece]) -> None:
        """Healthy write-through: one parity pass for the whole stripe.

        All touched elements' deltas are folded down each parity chain
        together, so a write spanning several elements of one stripe
        rewrites each parity element exactly once.
        """
        stripe = self.stripes[stripe_idx]
        if self.journal is not None:
            self._journal_intent(stripe_idx, stripe, pieces)
        updates = self._merge_pieces(stripe, pieces, charge_reads=True)
        rewritten = self.code.update_elements(stripe, updates)
        for pos, buf in updates.items():
            self.sidecar.record(stripe_idx, pos, buf)
            self.stats.record_write(pos[1])
            self.data_writes += 1
        self._crash_point("data-write")
        for parity in sorted(rewritten):
            self.sidecar.record(stripe_idx, parity, stripe.get(parity))
            self.stats.record_read(parity[1])
            self.stats.record_write(parity[1])
            self.parity_writes += 1
        self._crash_point("parity-write")
        self._journal_commit(stripe_idx)
        self._maybe_checkpoint()

    def _write_stripe_cached(self, stripe_idx: int, pieces: list[Piece]) -> None:
        """Write-back: land the data bytes now, defer the parity delta.

        Write-ahead discipline: the intent flag (dirty pattern plus
        first-touch pre-images) is fully framed *before* the first data
        byte mutates, so recovery can re-derive the stripe's parity
        from whatever data landed; a crash mid-frame loses the write
        atomically.
        """
        assert self.cache is not None
        entry = self.cache.entry(stripe_idx, self.code.rows, self.code.cols)
        stripe = self.stripes[stripe_idx]
        if self.journal is not None:
            self._journal_intent(stripe_idx, stripe, pieces, entry)
        for pos, within, piece in pieces:
            element = stripe.data[pos]
            if entry.snapshot(pos, element):
                self.stats.record_read(pos[1])  # the RMW old-data read
            element[within : within + len(piece)] = np.frombuffer(
                piece, dtype=np.uint8
            )
            self.stats.record_write(pos[1])
            self.data_writes += 1
        self._crash_point("data-write")
        over = len(self.cache) - self.cache.capacity
        if over > 0:
            self._ping_flush_io(self.cache.items()[:over])
        evicted = self.cache.evict_over_capacity()
        if evicted:
            self._flush_entries(evicted)

    def _write_stripe_degraded(self, stripe_idx: int, pieces: list[Piece]) -> None:
        """Reconstruct-write: decode once, update, persist survivors once.

        The decoded copy absorbs every piece before anything is
        persisted, so a multi-element write costs one decode and one
        stripe-wide persist instead of one of each per element.
        """
        stripe = self.stripes[stripe_idx]
        if self.journal is not None:
            # Flag-only intent (no pre-images: nothing to roll back, a
            # reconstruct-write is never cached).  Recovery re-derives
            # what parity the surviving chains allow.
            self._journal_intent(stripe_idx, stripe, pieces)
        restored = self._reconstructed(stripe)
        updates = self._merge_pieces(restored, pieces, charge_reads=False)
        self.code.update_elements(restored, updates)
        surviving = [c for c in range(self.code.cols) if c not in self.failed_disks]
        for c in surviving:
            # The decode read the column; the persist rewrites it.
            self.stats.record_read(c, self.code.rows)
            self.stats.record_write(c, self.code.rows)
            for r in range(self.code.rows):
                stripe.set((r, c), restored.get((r, c)))
        # The sidecar tracks logical content, failed columns included.
        self.sidecar.record_stripe(stripe_idx, restored)
        self.data_writes += len(updates)
        self.parity_writes += sum(
            1 for (_, c) in self.code.parity_positions if c not in self.failed_disks
        )
        self._crash_point("parity-write")
        self._journal_commit(stripe_idx)
        self._maybe_checkpoint()

    # -- the flush path: deferred parity deltas land in batches --------------------

    def flush(self) -> int:
        """Flush every dirty stripe's deferred parity; return how many.

        Must not interleave with another structural op from a second
        thread (see :meth:`_exclusive`).
        """
        if self.cache is None or not len(self.cache):
            return 0
        with self._exclusive("flush"):
            self._crash_point("flush-start")
            self._ping_flush_io(self.cache.items())
            return self._flush_entries(self.cache.pop_all())

    def _flush_stripe(self, stripe_idx: int) -> None:
        assert self.cache is not None
        entry = self.cache.peek(stripe_idx)
        if entry is not None:
            self._ping_flush_io([(stripe_idx, entry)])
        entry = self.cache.pop(stripe_idx)
        if entry is not None:
            self._flush_entries([(stripe_idx, entry)])

    def _ping_flush_io(self, entries: list[tuple[int, DirtyStripe]]) -> None:
        """Advance the injector's clock once per dirty element to flush.

        Runs *before* the entries are popped: a fired whole-disk crash
        calls :meth:`fail_disk`, which reentrantly flushes the still-
        cached entries while every column is present — deferred parity
        lands first, the erasure follows, and the write hole stays
        closed.  Entries drained by such a reentrant flush are skipped
        for the remaining pings (and the caller's subsequent pop finds
        them gone).
        """
        if self.injector is None:
            return
        for idx, entry in entries:
            for pos in entry.dirty_positions():
                if idx not in self.cache:
                    break  # a reentrant flush already landed this entry
                self._element_io(idx, pos, "flush")

    def _flush_entries(self, entries: list[tuple[int, DirtyStripe]]) -> int:
        """Land deferred parity for the given dirty stripes.

        Stripes sharing a dirty pattern are grouped into one
        :class:`StripeBatch` of ``old ⊕ new`` deltas and run through a
        single compiled ``update`` plan (or a full re-encode when the
        cost model prefers it), executed on whichever kernel backend
        the store's ``engine=`` selected.  Degraded stripes and the
        pure-Python engine take the per-stripe chain walk instead.

        An attached injector's clock was already advanced per dirty
        element by :meth:`_ping_flush_io` before these entries were
        popped.  Each flushed stripe is journal-committed once its
        parity and sidecars are durable.
        """
        groups: dict[tuple[int, ...], list[tuple[int, DirtyStripe]]] = {}
        flushed = 0
        for idx, entry in entries:
            if not entry.num_dirty:
                continue
            flushed += 1
            stripe = self.stripes[idx]
            if (
                self.engine == "python"
                or stripe.erased.any()
                or stripe.latent.any()
            ):
                self._flush_python(idx, entry)
                continue
            groups.setdefault(entry.pattern(self.code.cols), []).append((idx, entry))
        for pattern, group in sorted(groups.items()):
            try:
                from ..engine.compile import choose_update_strategy

                strategy, plan = choose_update_strategy(self.code, pattern)
            except PlanError:
                for idx, entry in group:
                    self._flush_python(idx, entry)
                continue
            if strategy == "reencode":
                self._flush_group_reencode(pattern, group)
            else:
                self._flush_group_rmw(pattern, plan, group)
        self._maybe_checkpoint()
        return flushed

    def _flush_group_rmw(
        self,
        pattern: tuple[int, ...],
        plan,
        group: list[tuple[int, DirtyStripe]],
    ) -> None:
        """One update plan over a batch of same-pattern stripe deltas.

        Two executions, picked by the resolved backend: the native
        backend fuses delta build + plan + parity fold into one C call
        per stripe (:meth:`~repro.engine.backends.NativeBackend.execute_update`);
        the vector backend builds a plain numpy delta batch, runs the
        plan over it and folds it in with ``apply_update``.
        """
        from ..engine.backends import resolve_backend
        from ..engine.executor import apply_update

        cells = [divmod(slot, self.code.cols) for slot in pattern]
        backend = resolve_backend(self.engine)
        if hasattr(backend, "execute_update"):
            for idx, entry in group:
                old = {
                    r * self.code.cols + c: entry.old[(r, c)]
                    for (r, c) in cells
                }
                backend.execute_update(
                    plan, self.stripes[idx], old, stats=self.stats
                )
        else:
            delta = StripeBatch(
                self.code.rows, self.code.cols, self.element_size, len(group)
            )
            for i, (idx, entry) in enumerate(group):
                live = self.stripes[idx].data
                for pos in cells:
                    np.bitwise_xor(
                        live[pos], entry.old[pos], out=delta.data[i][pos]
                    )
            backend.execute(plan, delta, stats=self.stats)
            apply_update(
                plan,
                delta,
                [self.stripes[idx] for idx, _ in group],
                stats=self.stats,
            )
        self._crash_point("parity-write")
        outputs = [divmod(slot, self.code.cols) for slot in plan.outputs]
        for idx, _ in group:
            stripe = self.stripes[idx]
            for pos in cells:
                self.sidecar.record(idx, pos, stripe.data[pos])
            for pos in outputs:
                self.sidecar.record(idx, pos, stripe.data[pos])
                self.stats.record_read(pos[1])
                self.stats.record_write(pos[1])
                self.parity_writes += 1
            self._journal_commit(idx)
        self.stats.record_flush(len(group) * len(cells))

    def _flush_group_reencode(
        self, pattern: tuple[int, ...], group: list[tuple[int, DirtyStripe]]
    ) -> None:
        """Mostly-dirty stripes: re-encoding beats the delta chain walk."""
        dirty_cells = {divmod(slot, self.code.cols) for slot in pattern}
        for idx, entry in group:
            stripe = self.stripes[idx]
            for pos in self.code.data_positions:
                if pos not in dirty_cells:
                    self.stats.record_read(pos[1])  # clean inputs of the encode
            self.code.encode(stripe, engine=self.engine)
            self._crash_point("parity-write")
            for pos in sorted(dirty_cells):
                self.sidecar.record(idx, pos, stripe.data[pos])
            for pos in self.code.parity_positions:
                self.sidecar.record(idx, pos, stripe.data[pos])
                self.stats.record_write(pos[1])
                self.parity_writes += 1
            self._journal_commit(idx)
        self.stats.record_flush(len(group) * len(dirty_cells))

    def _flush_python(self, idx: int, entry: DirtyStripe) -> None:
        """Per-stripe chain-walk flush: the oracle and the degraded path.

        Works on degraded stripes too: an erased parity column's delta
        is still propagated to nested chains (its *logical* content
        shifts even though no disk write happens), matching what the
        decoder will reconstruct.

        A dirty *data* cell that was erased before its parity landed is
        the genuine write hole: the new bytes died with the disk, so
        its delta is not folded and its sidecar keeps the pre-image CRC
        — the cell's logical content remains the old data, which is
        what decoding the untouched parity will reconstruct.
        """
        stripe = self.stripes[idx]
        deltas: dict[Position, np.ndarray] = {}
        for pos in entry.dirty_positions():
            if stripe.erased[pos]:
                continue
            deltas[pos] = np.bitwise_xor(stripe.data[pos], entry.old[pos])
            self.sidecar.record(idx, pos, stripe.data[pos])
        for chain in self.code.encode_order:
            chain_delta: np.ndarray | None = None
            for member in chain.members:
                d = deltas.get(member)
                if d is None:
                    continue
                chain_delta = d.copy() if chain_delta is None else chain_delta ^ d
            if chain_delta is None or not chain_delta.any():
                continue
            deltas[chain.parity] = chain_delta
            r, c = chain.parity
            if stripe.erased[r, c]:
                continue  # the column is gone; a rebuild re-derives it
            stripe.data[r, c] ^= chain_delta
            stripe.latent[r, c] = False
            self.sidecar.record(idx, chain.parity, stripe.data[r, c])
            self.stats.record_read(c)
            self.stats.record_write(c)
            self.parity_writes += 1
        self._crash_point("parity-write")
        self._journal_commit(idx)
        self.stats.record_flush(entry.num_dirty)

    def __repr__(self) -> str:
        dirty = len(self.cache) if self.cache is not None else 0
        return (
            f"FileStore(code={self.code.name}, stripes={len(self.stripes)}, "
            f"capacity={self.capacity}, failed={sorted(self.failed_disks)}, "
            f"dirty={dirty})"
        )
