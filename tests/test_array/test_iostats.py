"""Tests for per-disk I/O accounting."""

import pytest

from repro.array.iostats import DirtyCacheDiscarded, IOStats
from repro.exceptions import InvalidParameterError


class TestRecording:
    def test_initial_state(self):
        s = IOStats(4)
        assert s.total_requests == 0
        assert s.per_disk_requests() == [0, 0, 0, 0]

    def test_record_and_totals(self):
        s = IOStats(3)
        s.record_read(0, 2)
        s.record_write(1, 3)
        s.record_write(0)
        assert s.total_reads == 2
        assert s.total_writes == 4
        assert s.requests_on(0) == 3
        assert s.per_disk_requests() == [3, 3, 0]

    def test_rejects_bad_disk(self):
        s = IOStats(2)
        with pytest.raises(InvalidParameterError):
            s.record_read(2)
        with pytest.raises(InvalidParameterError):
            s.record_write(-1)

    def test_rejects_negative_count(self):
        s = IOStats(2)
        with pytest.raises(InvalidParameterError):
            s.record_read(0, -1)

    def test_rejects_zero_disks(self):
        with pytest.raises(InvalidParameterError):
            IOStats(0)


class TestCombination:
    def test_merge(self):
        a = IOStats(2)
        b = IOStats(2)
        a.record_read(0)
        b.record_read(0)
        b.record_write(1, 5)
        a.merge(b)
        assert a.reads == [2, 0]
        assert a.writes == [0, 5]

    def test_merge_width_mismatch(self):
        with pytest.raises(InvalidParameterError):
            IOStats(2).merge(IOStats(3))

    def test_copy_independent(self):
        a = IOStats(1)
        a.record_write(0)
        b = a.copy()
        b.record_write(0)
        assert a.total_writes == 1
        assert b.total_writes == 2

    def test_reset(self):
        a = IOStats(2)
        a.record_read(1, 7)
        a.reset()
        assert a.total_requests == 0


class TestComputeCounters:
    def test_record_xor_accumulates(self):
        s = IOStats(3)
        s.record_xor(128)
        s.record_xor(64, kernels=4)
        assert s.xor_words == 192
        assert s.kernel_invocations == 5

    def test_rejects_negative_compute(self):
        s = IOStats(1)
        with pytest.raises(InvalidParameterError):
            s.record_xor(-1)
        with pytest.raises(InvalidParameterError):
            s.record_xor(1, kernels=-1)

    def test_merge_copy_reset_cover_compute(self):
        a, b = IOStats(2), IOStats(2)
        a.record_xor(10, 2)
        b.record_xor(5)
        a.merge(b)
        assert (a.xor_words, a.kernel_invocations) == (15, 3)
        dup = a.copy()
        dup.record_xor(1)
        assert a.xor_words == 15
        a.reset()
        assert (a.xor_words, a.kernel_invocations) == (0, 0)


class TestFlushCounters:
    def test_record_flush_accumulates(self):
        s = IOStats(3)
        s.record_flush(4)
        s.record_flush(6, batches=2)
        assert s.flush_batches == 3
        assert s.flushed_elements == 10

    def test_rejects_negative_flush(self):
        s = IOStats(1)
        with pytest.raises(InvalidParameterError):
            s.record_flush(-1)
        with pytest.raises(InvalidParameterError):
            s.record_flush(1, batches=-1)

    def test_merge_copy_reset_cover_flush(self):
        a, b = IOStats(2), IOStats(2)
        a.record_flush(3)
        b.record_flush(2, batches=2)
        a.merge(b)
        assert (a.flush_batches, a.flushed_elements) == (3, 5)
        dup = a.copy()
        dup.record_flush(1)
        assert a.flushed_elements == 5
        a.reset()
        assert (a.flush_batches, a.flushed_elements) == (0, 0)


class TestJournalCounters:
    def test_record_journal_accumulates(self):
        s = IOStats(3)
        s.record_journal(120)
        s.record_journal(512, records=3)
        assert s.journal_records == 4
        assert s.journal_bytes == 632

    def test_rejects_negative_journal(self):
        s = IOStats(1)
        with pytest.raises(InvalidParameterError):
            s.record_journal(-1)
        with pytest.raises(InvalidParameterError):
            s.record_journal(1, records=-1)

    def test_merge_copy_reset_cover_journal(self):
        a, b = IOStats(2), IOStats(2)
        a.record_journal(100)
        b.record_journal(50, records=2)
        a.merge(b)
        assert (a.journal_records, a.journal_bytes) == (3, 150)
        dup = a.copy()
        dup.record_journal(1)
        assert a.journal_bytes == 150
        a.reset()
        assert (a.journal_records, a.journal_bytes) == (0, 0)


class TestNotes:
    def test_record_note_and_render(self):
        s = IOStats(2)
        note = DirtyCacheDiscarded(stripes=2, elements=5)
        s.record_note(note)
        assert s.notes == [note]
        assert "2 stripe(s)" in note.render()
        assert "5 element(s)" in note.render()

    def test_merge_extends_and_copy_isolates_notes(self):
        a, b = IOStats(2), IOStats(2)
        b.record_note(DirtyCacheDiscarded(stripes=1, elements=1))
        a.merge(b)
        assert len(a.notes) == 1
        dup = a.copy()
        dup.record_note(DirtyCacheDiscarded(stripes=9, elements=9))
        assert len(a.notes) == 1
        a.reset()
        assert a.notes == []
