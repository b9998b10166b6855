"""Unit and property tests for the partitioned random issue queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.iq import IssueQueue


class TestBasicDispatch:
    def test_base_queue_has_no_priority_entries(self):
        iq = IssueQueue(8)
        assert iq.free_priority_count == 0
        assert iq.free_normal_count == 8

    def test_partition_sizes(self):
        iq = IssueQueue(8, priority_entries=3)
        assert iq.free_priority_count == 3
        assert iq.free_normal_count == 5

    def test_priority_dispatch_uses_low_slots(self):
        iq = IssueQueue(8, priority_entries=3)
        slot = iq.dispatch("a", priority=True)
        assert slot is not None and slot < 3

    def test_normal_dispatch_uses_high_slots(self):
        iq = IssueQueue(8, priority_entries=3)
        slot = iq.dispatch("a", priority=False)
        assert slot >= 3

    def test_priority_partition_fills_and_rejects(self):
        iq = IssueQueue(8, priority_entries=2)
        assert iq.dispatch("a", True) is not None
        assert iq.dispatch("b", True) is not None
        assert iq.dispatch("c", True) is None  # stall-policy decision point
        assert iq.free_normal_count == 6  # normal side untouched

    def test_normal_partition_never_borrows_priority(self):
        iq = IssueQueue(4, priority_entries=2)
        assert iq.dispatch("a", False) is not None
        assert iq.dispatch("b", False) is not None
        assert iq.dispatch("c", False) is None

    def test_release_recycles_slot(self):
        iq = IssueQueue(4, priority_entries=2)
        slot = iq.dispatch("a", True)
        iq.release(slot)
        assert iq.free_priority_count == 2
        assert iq.dispatch("b", True) is not None

    def test_release_empty_slot_raises(self):
        iq = IssueQueue(4)
        with pytest.raises(ValueError):
            iq.release(0)

    def test_occupied_ascending_order(self):
        iq = IssueQueue(8, priority_entries=2)
        iq.dispatch("n1", False)
        iq.dispatch("p1", True)
        iq.dispatch("n2", False)
        slots = [slot for slot, _ in iq.occupied()]
        assert slots == sorted(slots)
        assert next(iq.occupied()) == (slots[0], "p1")  # priority: lowest

    def test_validation(self):
        with pytest.raises(ValueError):
            IssueQueue(0)
        with pytest.raises(ValueError):
            IssueQueue(4, priority_entries=5)


class TestUniformDispatch:
    def test_uses_full_capacity(self):
        iq = IssueQueue(8, priority_entries=3)
        slots = [iq.dispatch_uniform(f"u{i}") for i in range(8)]
        assert None not in slots
        assert iq.dispatch_uniform("overflow") is None

    def test_fifo_merge_matches_base_queue_order(self):
        """With mode switching disabled, hole reuse must follow the same
        global FIFO order an unpartitioned queue would use."""
        part = IssueQueue(6, priority_entries=2)
        flat = IssueQueue(6, priority_entries=0)
        part_slots = [part.dispatch_uniform(i) for i in range(6)]
        flat_slots = [flat.dispatch(i, False) for i in range(6)]
        assert part_slots == flat_slots == list(range(6))
        # Release in a scrambled order, then redispatch: same slot sequence.
        for slot in (3, 0, 5):
            part.release(slot)
            flat.release(slot)
        assert [part.dispatch_uniform(i) for i in range(3)] == \
               [flat.dispatch(i, False) for i in range(3)]

    def test_flush_predicate(self):
        iq = IssueQueue(8, priority_entries=2)
        iq.dispatch(1, True)
        iq.dispatch(5, False)
        iq.dispatch(9, False)
        iq.flush(keep=lambda uop: uop < 6)
        remaining = [uop for _, uop in iq.occupied()]
        assert remaining == [1, 5]


class TestStatistics:
    def test_dispatch_counters(self):
        iq = IssueQueue(8, priority_entries=2)
        iq.dispatch("a", True)
        iq.dispatch("b", False)
        iq.dispatch_uniform("c")
        assert iq.dispatches == 3
        assert iq.priority_dispatches == 1

    def test_occupancy(self):
        iq = IssueQueue(8, priority_entries=2)
        assert iq.occupancy == 0
        iq.dispatch("a", True)
        iq.dispatch("b", False)
        assert iq.occupancy == 2 < iq.size


@given(st.lists(st.sampled_from(["dp", "dn", "du", "r"]), max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_no_slot_leaks(ops):
    """Under any dispatch/release interleaving: occupancy + free == size,
    priority slots stay below the partition boundary, and no slot is ever
    double-allocated."""
    iq = IssueQueue(12, priority_entries=4)
    live = set()
    for op in ops:
        if op == "r" and live:
            slot = live.pop()
            iq.release(slot)
        elif op == "dp":
            slot = iq.dispatch("x", True)
            if slot is not None:
                assert slot < 4 and slot not in live
                live.add(slot)
        elif op == "dn":
            slot = iq.dispatch("x", False)
            if slot is not None:
                assert slot >= 4 and slot not in live
                live.add(slot)
        elif op == "du":
            slot = iq.dispatch_uniform("x")
            if slot is not None:
                assert slot not in live
                live.add(slot)
        assert iq.occupancy == len(live)
        assert iq.occupancy + iq.free_priority_count + iq.free_normal_count == 12
