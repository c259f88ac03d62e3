"""Per-disk I/O and per-array compute accounting.

Every experiment in the paper is, at bottom, a statement about how
many element-sized reads and writes land on each disk.  ``IOStats``
is the ledger: the RAID volume records into it, and the metrics module
(load-balancing rate, totals) reads from it.

Engine runs add a *compute* dimension: the vectorized executor
(:mod:`repro.engine.executor`) records how many 64-bit word XORs and
how many vector-kernel invocations a plan cost, so experiments can
report compute cost alongside I/O cost from the same object.

Journaled stores (:mod:`repro.journal`) add a third dimension: how
many write-ahead records were framed and how many bytes they cost,
plus a ``notes`` list of out-of-band events — today only
:class:`DirtyCacheDiscarded`, surfaced when a store's context exit
rolled back dirty cache entries instead of flushing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import InvalidParameterError


@dataclass(frozen=True)
class DirtyCacheDiscarded:
    """A context exit under an exception rolled back dirty stripes.

    The store journals a discard record per dirty stripe, restores the
    pre-images, and leaves this note so callers auditing the ledger can
    see that writes were intentionally dropped rather than flushed.
    """

    stripes: int
    elements: int

    def render(self) -> str:
        return (
            f"dirty cache discarded on error exit: {self.stripes} stripe(s), "
            f"{self.elements} element(s) rolled back"
        )


@dataclass
class IOStats:
    """Read/write counters for an array of ``num_disks`` disks."""

    num_disks: int
    reads: list[int] = field(default_factory=list)
    writes: list[int] = field(default_factory=list)
    #: 64-bit word XOR operations executed by the compute engine.
    xor_words: int = 0
    #: vector-kernel invocations (one numpy ufunc call each).
    kernel_invocations: int = 0
    #: batched parity-delta flushes executed by the write-back cache
    #: (one per update-plan execution over a dirty-pattern group).
    flush_batches: int = 0
    #: dirty data elements whose deferred parity landed in those flushes.
    flushed_elements: int = 0
    #: write-ahead records framed by the parity intent journal.
    journal_records: int = 0
    #: bytes appended to the journal device by those records.
    journal_bytes: int = 0
    #: out-of-band events (e.g. :class:`DirtyCacheDiscarded`).
    notes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_disks <= 0:
            raise InvalidParameterError("num_disks must be positive")
        if not self.reads:
            self.reads = [0] * self.num_disks
        if not self.writes:
            self.writes = [0] * self.num_disks
        if len(self.reads) != self.num_disks or len(self.writes) != self.num_disks:
            raise InvalidParameterError("counter lists must match num_disks")

    # -- recording -----------------------------------------------------------

    def record_read(self, disk: int, count: int = 1) -> None:
        self._check(disk, count)
        self.reads[disk] += count

    def record_write(self, disk: int, count: int = 1) -> None:
        self._check(disk, count)
        self.writes[disk] += count

    def record_xor(self, words: int, kernels: int = 1) -> None:
        """Charge ``words`` word-XORs executed across ``kernels`` calls."""
        if words < 0 or kernels < 0:
            raise InvalidParameterError("compute counters must be >= 0")
        self.xor_words += words
        self.kernel_invocations += kernels

    def record_flush(self, elements: int, batches: int = 1) -> None:
        """Charge one (or more) write-back flush batches covering
        ``elements`` dirty data elements."""
        if elements < 0 or batches < 0:
            raise InvalidParameterError("flush counters must be >= 0")
        self.flushed_elements += elements
        self.flush_batches += batches

    def record_journal(self, nbytes: int, records: int = 1) -> None:
        """Charge ``records`` journal frame(s) totalling ``nbytes``."""
        if nbytes < 0 or records < 0:
            raise InvalidParameterError("journal counters must be >= 0")
        self.journal_bytes += nbytes
        self.journal_records += records

    def record_note(self, note: object) -> None:
        """Attach an out-of-band event to the ledger."""
        self.notes.append(note)

    def _check(self, disk: int, count: int) -> None:
        if not 0 <= disk < self.num_disks:
            raise InvalidParameterError(
                f"disk {disk} outside 0..{self.num_disks - 1}"
            )
        if count < 0:
            raise InvalidParameterError("count must be >= 0")

    # -- aggregate views --------------------------------------------------------

    @property
    def total_reads(self) -> int:
        return sum(self.reads)

    @property
    def total_writes(self) -> int:
        return sum(self.writes)

    @property
    def total_requests(self) -> int:
        return self.total_reads + self.total_writes

    def requests_on(self, disk: int) -> int:
        self._check(disk, 0)
        return self.reads[disk] + self.writes[disk]

    def per_disk_requests(self) -> list[int]:
        return [r + w for r, w in zip(self.reads, self.writes)]

    # -- combination ----------------------------------------------------------------

    def merge(self, other: "IOStats") -> None:
        """Accumulate another ledger into this one (same array width)."""
        if other.num_disks != self.num_disks:
            raise InvalidParameterError("cannot merge stats of different arrays")
        for d in range(self.num_disks):
            self.reads[d] += other.reads[d]
            self.writes[d] += other.writes[d]
        self.xor_words += other.xor_words
        self.kernel_invocations += other.kernel_invocations
        self.flush_batches += other.flush_batches
        self.flushed_elements += other.flushed_elements
        self.journal_records += other.journal_records
        self.journal_bytes += other.journal_bytes
        self.notes.extend(other.notes)

    @classmethod
    def merged(cls, num_disks: int, parts: "list[IOStats]") -> "IOStats":
        """Fold many ledgers into one fresh ledger.

        The fold is commutative and lossless — ``merged(n, split)``
        equals the un-split ledger however the ops were partitioned —
        which is what lets :meth:`repro.service.VolumePool.merged_stats`
        sum per-shard ledgers into one pool-wide view (property-tested
        in ``tests/test_service/test_stats.py``).
        """
        total = cls(num_disks)
        for part in parts:
            total.merge(part)
        return total

    def copy(self) -> "IOStats":
        return IOStats(
            self.num_disks,
            list(self.reads),
            list(self.writes),
            self.xor_words,
            self.kernel_invocations,
            self.flush_batches,
            self.flushed_elements,
            self.journal_records,
            self.journal_bytes,
            list(self.notes),
        )

    def reset(self) -> None:
        self.reads = [0] * self.num_disks
        self.writes = [0] * self.num_disks
        self.xor_words = 0
        self.kernel_invocations = 0
        self.flush_batches = 0
        self.flushed_elements = 0
        self.journal_records = 0
        self.journal_bytes = 0
        self.notes = []
