"""Unit tests for the shifting and circular IQ organizations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.iq import CircularQueue, ShiftingQueue


class TestShiftingQueue:
    def test_age_order_is_position_order(self):
        q = ShiftingQueue(8)
        for uop in "abc":
            q.dispatch(uop)
        assert [u for _, u in q.occupied()] == ["a", "b", "c"]

    def test_compaction_on_release(self):
        """Release keeps the rest in age order."""
        q = ShiftingQueue(8)
        handles = {uop: q.dispatch(uop) for uop in "abcd"}
        q.release(handles["b"])
        assert [u for _, u in q.occupied()] == ["a", "c", "d"]
        # The survivors keep their handles, in ascending (position) order.
        assert [h for h, _ in q.occupied()] == \
            [handles["a"], handles["c"], handles["d"]]

    def test_capacity(self):
        q = ShiftingQueue(2)
        assert q.dispatch("a") == 0
        assert q.dispatch("b") == 1
        assert q.dispatch("c") is None
        assert q.is_full()

    def test_flush(self):
        q = ShiftingQueue(8)
        for v in (1, 5, 9, 2):
            q.dispatch(v)
        q.flush(keep=lambda u: u < 6)
        assert [u for _, u in q.occupied()] == [1, 5, 2]

    def test_release_out_of_range(self):
        q = ShiftingQueue(4)
        with pytest.raises(ValueError):
            q.release(0)

    def test_release_of_an_absent_handle_raises(self):
        q = ShiftingQueue(4)
        handle = q.dispatch("a")
        q.dispatch("b")
        q.release(handle)
        with pytest.raises(ValueError):
            q.release(handle)  # already released
        with pytest.raises(ValueError):
            q.release(handle + 99)  # never handed out
        assert [u for _, u in q.occupied()] == ["b"]

    def test_first_occupied_entry_is_the_oldest(self):
        """The defining property: position priority == age priority."""
        q = ShiftingQueue(8)
        handles = [q.dispatch(i) for i in range(6)]
        q.release(handles[0])
        q.release(handles[3])
        remaining = [u for _, u in q.occupied()]
        assert remaining == sorted(remaining)
        assert next(q.occupied())[1] == min(remaining)


class TestCircularQueue:
    def test_allocates_in_order(self):
        q = CircularQueue(4)
        assert [q.dispatch(v) for v in "abc"] == [0, 1, 2]

    def test_holes_block_capacity(self):
        """An issued mid-queue entry stays unusable until older entries
        drain -- the capacity inefficiency of Sec. III-B1."""
        q = CircularQueue(4)
        for v in "abcd":
            q.dispatch(v)
        q.release(2)  # "c" issues; hole in the middle
        assert q.occupancy == 3
        assert q.reserved == 4  # the hole still counts
        assert q.dispatch("e") is None  # full despite the hole

    def test_head_reclaims_through_holes(self):
        q = CircularQueue(4)
        for v in "abcd":
            q.dispatch(v)
        q.release(1)          # hole at 1
        q.release(0)          # head drains: reclaims 0 AND the hole at 1
        assert q.reserved == 2
        assert q.dispatch("e") == 0  # wrapped allocation reuses slot 0

    def test_wraparound_reverses_position_priority(self):
        """After wrap, the youngest instruction occupies the lowest
        physical slot -- the priority reversal the paper describes."""
        q = CircularQueue(4)
        for v in ("old0", "old1", "old2", "old3"):
            q.dispatch(v)
        q.release(0)
        q.release(1)
        q.dispatch("young")  # allocates physical slot 0
        order = [u for _, u in q.occupied()]
        assert order[0] == "young"  # youngest first in physical order

    def test_flush_reclaims(self):
        q = CircularQueue(4)
        for v in (1, 9, 2, 8):
            q.dispatch(v)
        q.flush(keep=lambda u: u < 5)
        assert q.occupancy == 2
        assert [u for _, u in q.occupied()] == [1, 2]

    def test_release_empty_slot(self):
        q = CircularQueue(4)
        with pytest.raises(ValueError):
            q.release(0)


@given(st.lists(st.sampled_from(["d", "r"]), max_size=150))
@settings(max_examples=40, deadline=None)
def test_property_shifting_queue_stays_age_sorted(ops):
    """Under any dispatch/release interleaving the shifting queue's
    physical order equals dispatch (age) order."""
    q = ShiftingQueue(10)
    counter = 0
    import random
    rng = random.Random(7)
    for op in ops:
        if op == "d" and not q.is_full():
            q.dispatch(counter)
            counter += 1
        elif op == "r" and q.occupancy:
            handle, _ = rng.choice(list(q.occupied()))
            q.release(handle)
        ages = [u for _, u in q.occupied()]
        assert ages == sorted(ages)


@given(st.lists(st.sampled_from(["d", "r"]), max_size=150))
@settings(max_examples=40, deadline=None)
def test_property_circular_queue_invariants(ops):
    """reserved >= occupancy, both bounded by size, and dispatch succeeds
    iff reserved < size."""
    q = CircularQueue(8)
    counter = 0
    import random
    rng = random.Random(13)
    for op in ops:
        if op == "d":
            was_full = q.is_full()
            slot = q.dispatch(counter)
            assert (slot is None) == was_full
            counter += 1
        elif op == "r":
            live = [s for s, _ in q.occupied()]
            if live:
                q.release(rng.choice(live))
        assert 0 <= q.occupancy <= q.reserved <= 8
        assert q.occupancy == len(list(q.occupied()))
