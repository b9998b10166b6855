"""Unit tests for the distributed IQ (Sec. III-C2)."""

from dataclasses import dataclass

import pytest

from repro.iq import DistributedIssueQueue, DistributedSelectLogic, FuPool
from repro.isa import FuClass


@dataclass
class FakeUop:
    seq: int
    fu: FuClass = FuClass.IALU


class TestPartitioning:
    def test_total_size_conserved(self):
        diq = DistributedIssueQueue(64, FuPool())
        assert diq.size == 64
        assert all(q.size >= 4 for q in diq.queues.values())

    def test_sizes_proportional_to_units(self):
        diq = DistributedIssueQueue(64, FuPool(ialu=2, imult=1, ldst=2, fpu=2))
        assert diq.queues[FuClass.IMULT].size < diq.queues[FuClass.IALU].size

    def test_priority_entries_distributed(self):
        diq = DistributedIssueQueue(64, FuPool(), priority_entries=6)
        assert all(q.priority_entries >= 1 for q in diq.queues.values())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            DistributedIssueQueue(8, FuPool())


class TestDispatchRouting:
    def test_routes_by_fu_class(self):
        diq = DistributedIssueQueue(64, FuPool())
        handle = diq.dispatch(FakeUop(0, FuClass.LDST), priority=False)
        assert handle[0] == FuClass.LDST.value
        assert diq.queues[FuClass.LDST].occupancy == 1
        assert diq.queues[FuClass.IALU].occupancy == 0

    def test_per_queue_structural_stall(self):
        """A full per-class queue rejects dispatch even when other queues
        are empty -- the capacity-efficiency disadvantage."""
        diq = DistributedIssueQueue(16, FuPool())  # 4 entries per class
        mult_size = diq.queues[FuClass.IMULT].size
        for i in range(mult_size):
            assert diq.dispatch(FakeUop(i, FuClass.IMULT), False) is not None
        assert diq.dispatch(FakeUop(99, FuClass.IMULT), False) is None
        assert diq.occupancy == mult_size < diq.size
        assert diq.dispatch(FakeUop(100, FuClass.IALU), False) is not None

    def test_release_by_handle(self):
        diq = DistributedIssueQueue(64, FuPool())
        handle = diq.dispatch(FakeUop(0, FuClass.FPU), False)
        diq.release(handle)
        assert diq.occupancy == 0

    def test_priority_partition_per_queue(self):
        diq = DistributedIssueQueue(64, FuPool(), priority_entries=8)
        uop = FakeUop(0, FuClass.IALU)
        handle = diq.dispatch(uop, priority=True)
        fu_value, slot = handle
        assert slot < diq.queues[FuClass.IALU].priority_entries
        assert diq.priority_dispatches == 1

    def test_flush(self):
        diq = DistributedIssueQueue(64, FuPool())
        diq.dispatch(FakeUop(1, FuClass.IALU), False)
        diq.dispatch(FakeUop(9, FuClass.FPU), False)
        diq.flush(keep=lambda u: u.seq < 5)
        assert diq.occupancy == 1

    def test_occupied_yields_handles(self):
        diq = DistributedIssueQueue(64, FuPool())
        diq.dispatch(FakeUop(0, FuClass.IALU), False)
        diq.dispatch(FakeUop(1, FuClass.FPU), False)
        entries = list(diq.occupied())
        assert len(entries) == 2
        for (fu_value, slot), uop in entries:
            assert dict(diq.queues[FuClass(fu_value)].occupied())[slot] is uop


class TestDistributedSelect:
    def test_per_class_unit_bound(self):
        sel = DistributedSelectLogic(issue_width=4, fu_pool=FuPool(imult=1))
        reqs = [((FuClass.IMULT.value, s), FakeUop(s, FuClass.IMULT))
                for s in range(3)]
        granted = sel.select(reqs)
        assert len(granted) == 1
        assert granted[0][0] == (FuClass.IMULT.value, 0)

    def test_global_width_bound(self):
        sel = DistributedSelectLogic(issue_width=2,
                                     fu_pool=FuPool(ialu=4, fpu=4))
        reqs = (
            [((FuClass.IALU.value, s), FakeUop(s, FuClass.IALU)) for s in range(3)]
            + [((FuClass.FPU.value, s), FakeUop(s, FuClass.FPU)) for s in range(3)]
        )
        assert len(sel.select(reqs)) == 2

    def test_position_priority_within_queue(self):
        sel = DistributedSelectLogic(issue_width=4, fu_pool=FuPool(ialu=2))
        reqs = [((FuClass.IALU.value, s), FakeUop(s, FuClass.IALU))
                for s in (5, 1, 3)]
        granted = sel.select(reqs)
        assert [h[1] for h, _ in granted] == [1, 3]

    def test_empty(self):
        sel = DistributedSelectLogic(4, FuPool())
        assert sel.select([]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedSelectLogic(0, FuPool())
