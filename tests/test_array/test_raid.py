"""Tests for the RAID-6 volume simulator."""

import pytest

from repro import HVCode, RDPCode, XCode
from repro.array.latency import LatencyModel
from repro.array.raid import RAID6Volume
from repro.exceptions import InvalidParameterError, SimulationError


@pytest.fixture
def hv_volume():
    return RAID6Volume(HVCode(7), num_stripes=4)


class TestWrites:
    def test_single_element_write_cost(self, hv_volume):
        # One data element in HV dirties exactly 2 parities: 3 writes,
        # 3 RMW reads.
        result = hv_volume.write(0, 1)
        assert result.data_writes == 1
        assert result.parity_writes == 2
        assert result.induced_writes == 3
        assert result.io.total_reads == 3

    def test_row_write_shares_horizontal_parity(self):
        code = HVCode(7)
        volume = RAID6Volume(code, num_stripes=1)
        # A full row of HV(7) = 4 data elements: 1 shared horizontal
        # parity + 4 distinct vertical parities.
        result = volume.write(0, 4)
        assert result.data_writes == 4
        assert result.parity_writes == 5

    def test_write_spanning_stripes(self):
        code = HVCode(5)
        per = code.data_elements_per_stripe
        volume = RAID6Volume(code, num_stripes=2)
        result = volume.write(per - 1, 2)
        assert result.data_writes == 2
        # Parities dirtied in both stripes: at least 2 per stripe side.
        assert result.parity_writes >= 4

    def test_stats_accumulate(self, hv_volume):
        hv_volume.write(0, 2)
        hv_volume.write(5, 2)
        assert hv_volume.stats.total_writes >= 8

    def test_write_while_failed_runs_degraded(self, hv_volume):
        hv_volume.fail_disk(0)
        result = hv_volume.write(0, 1)
        assert result.io.writes[0] == 0
        assert result.induced_writes >= 1

    def test_seconds_track_busiest_disk(self):
        model = LatencyModel(seek_ms=0, bandwidth_mb_per_s=16, element_size_mb=16)
        volume = RAID6Volume(HVCode(7), num_stripes=1, latency=model)
        result = volume.write(0, 1)
        busiest = max(result.io.per_disk_requests())
        assert result.seconds == pytest.approx(busiest * 1.0)


class TestReads:
    def test_healthy_read(self, hv_volume):
        result = hv_volume.read(3, 5)
        assert result.elements_returned == 5
        assert result.io.total_reads == 5
        assert result.io.total_writes == 0

    def test_degraded_read_needs_single_failure(self, hv_volume):
        with pytest.raises(SimulationError):
            hv_volume.degraded_read(0, 4)

    def test_degraded_read_fetches_extra(self, hv_volume):
        hv_volume.fail_disk(HVCode(7).data_positions[0][1])
        result = hv_volume.degraded_read(0, 1)
        # Rebuilding one lost element reads the rest of its chain: the
        # chain has p-2 = 5 cells, one of which is the lost element.
        assert result.elements_returned == 4
        assert result.io.reads[hv_volume.failed_disks()[0]] == 0

    def test_read_routes_to_degraded_when_failed(self, hv_volume):
        hv_volume.fail_disk(0)
        result = hv_volume.read(0, 10)
        assert result.elements_returned >= 10

    def test_degraded_read_avoids_failed_disk_always(self):
        code = XCode(5)
        volume = RAID6Volume(code, num_stripes=2)
        volume.fail_disk(2)
        result = volume.degraded_read(0, code.data_elements_per_stripe)
        assert result.io.reads[2] == 0


class TestDiskManagement:
    def test_fail_and_heal(self, hv_volume):
        hv_volume.fail_disk(1)
        assert hv_volume.failed_disks() == [1]
        hv_volume.heal_disk(1)
        assert hv_volume.failed_disks() == []

    def test_second_failure_permitted(self, hv_volume):
        # RAID-6's design point: two concurrent failures are legal.
        hv_volume.fail_disk(1)
        hv_volume.fail_disk(2)
        assert hv_volume.failed_disks() == [1, 2]

    def test_third_failure_rejected(self, hv_volume):
        hv_volume.fail_disk(1)
        hv_volume.fail_disk(2)
        with pytest.raises(SimulationError):
            hv_volume.fail_disk(3)

    def test_writes_rejected_with_two_failures(self, hv_volume):
        hv_volume.fail_disk(1)
        hv_volume.fail_disk(2)
        with pytest.raises(SimulationError):
            hv_volume.write(0, 3)

    def test_fail_out_of_range(self, hv_volume):
        with pytest.raises(InvalidParameterError):
            hv_volume.fail_disk(99)

    def test_reset_stats(self, hv_volume):
        hv_volume.write(0, 3)
        hv_volume.reset_stats()
        assert hv_volume.stats.total_requests == 0
        assert all(d.requests == 0 for d in hv_volume.disks)


class TestTraceReplay:
    def test_replay_honors_frequency(self):
        from repro.workloads.traces import WritePattern, WriteTrace

        volume = RAID6Volume(RDPCode(5), num_stripes=4)
        trace = WriteTrace("t", (WritePattern(0, 2, frequency=3),))
        results = volume.replay_write_trace(trace)
        assert len(results) == 3
        assert all(r.data_writes == 2 for r in results)


class TestComputeCharges:
    """Every compiled engine charges the same symbolic XOR compute; only
    the python reference volume charges none."""

    @staticmethod
    def _charges(engine):
        volume = RAID6Volume(HVCode(7), num_stripes=4, engine=engine)
        volume.write(3, 5)
        volume.fail_disk(1)
        volume.read(0, 12)  # degraded: repairs charge compute
        return volume.stats.xor_words, volume.stats.kernel_invocations

    def test_compiled_engines_charge_alike(self):
        from repro.engine import available_backends

        expected = self._charges("vector")
        assert expected == (16, 22)
        assert self._charges("auto") == expected
        if "native" not in available_backends():
            pytest.skip("no C compiler on this host")
        assert self._charges("native") == expected

    def test_python_engine_charges_no_compute(self):
        assert self._charges("python") == (0, 0)
