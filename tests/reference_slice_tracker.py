"""The reference slice tracker: PUBS decode as a chain of table methods.

:class:`~repro.pubs.slice_tracker.SliceTracker` resolves each static
instruction once into its table pointers and walks def_tab ->
brslice_tab -> conf_tab with the set operations inlined.  This module
keeps the method-per-step formulation it replaced -- ``on_decode`` and
``on_branch_resolved`` calling ``writer_of``, ``link``, ``lookup``,
``is_confident_*`` and ``train`` on their tables -- so tests can require
the fast tracker to match it call for call: return values, stats, and
every table's contents in MRU order.

The reference tables hold their state in the same layout as the real
ones (``DefTab._entries``, ``BrsliceTab._sets`` / ``ConfTab._sets`` as
MRU-first ``(hashed_tag, payload)`` lists), so :func:`table_state`
compares the two directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.branch.confidence import ResettingConfidenceCounter
from repro.isa import StaticInst
from repro.isa.registers import NUM_LOGICAL_REGS
from repro.pubs import PubsConfig, SliceTrackerStats
from repro.pubs.hashing import split_pc, xor_fold
from repro.pubs.tables import PC_WORD_WIDTH, Pointer


class ReferenceCodec:
    """PC -> (index, hashed tag) pointer, memoized per PC."""

    def __init__(self, num_sets: int, fold_width: int,
                 word_width: int = PC_WORD_WIDTH):
        self.num_sets = num_sets
        self.index_bits = num_sets.bit_length() - 1
        self.fold_width = fold_width
        self.word_width = word_width
        self._cache: Dict[int, Pointer] = {}

    def pointer(self, pc: int) -> Pointer:
        ptr = self._cache.get(pc)
        if ptr is None:
            index, tag = split_pc(pc, self.index_bits, self.word_width)
            ptr = Pointer(index, xor_fold(tag, self.fold_width))
            self._cache[pc] = ptr
        return ptr


class ReferenceDefTab:
    def __init__(self, num_regs: int = NUM_LOGICAL_REGS):
        self._entries: List[Optional[Pointer]] = [None] * num_regs

    def record_writer(self, reg: int, pointer: Pointer) -> None:
        self._entries[reg] = pointer

    def writer_of(self, reg: int) -> Optional[Pointer]:
        return self._entries[reg]


class ReferenceBrsliceTab:
    def __init__(self, num_sets: int, assoc: int, fold_width: int,
                 word_width: int = PC_WORD_WIDTH):
        self.codec = ReferenceCodec(num_sets, fold_width, word_width)
        self.assoc = assoc
        self._sets: List[List[Tuple[int, Pointer]]] = [
            [] for _ in range(num_sets)]
        self.lookups = 0
        self.hits = 0

    def lookup(self, pc: int) -> Optional[Pointer]:
        self.lookups += 1
        ptr = self.codec.pointer(pc)
        ways = self._sets[ptr.index]
        for i, (tag, conf_ptr) in enumerate(ways):
            if tag == ptr.tag:
                if i:
                    ways.insert(0, ways.pop(i))
                self.hits += 1
                return conf_ptr
        return None

    def link(self, slot: Pointer, conf_pointer: Pointer) -> None:
        ways = self._sets[slot.index]
        for i, (tag, _) in enumerate(ways):
            if tag == slot.tag:
                ways.pop(i)
                break
        ways.insert(0, (slot.tag, conf_pointer))
        if len(ways) > self.assoc:
            ways.pop()


class ReferenceConfTab:
    def __init__(self, num_sets: int, assoc: int, fold_width: int,
                 counter_bits: int, word_width: int = PC_WORD_WIDTH):
        self.codec = ReferenceCodec(num_sets, fold_width, word_width)
        self.assoc = assoc
        self.counter_bits = counter_bits
        self._sets: List[List[Tuple[int, ResettingConfidenceCounter]]] = [
            [] for _ in range(num_sets)]

    def _find(self, index: int, tag: int
              ) -> Optional[ResettingConfidenceCounter]:
        ways = self._sets[index]
        for i, (t, counter) in enumerate(ways):
            if t == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                return counter
        return None

    def is_confident_pc(self, pc: int) -> bool:
        ptr = self.codec.pointer(pc)
        counter = self._find(ptr.index, ptr.tag)
        return counter is None or counter.confident

    def is_confident_pointer(self, pointer: Pointer) -> bool:
        counter = self._find(pointer.index, pointer.tag)
        return counter is None or counter.confident

    def train(self, pc: int, correct: bool) -> None:
        ptr = self.codec.pointer(pc)
        counter = self._find(ptr.index, ptr.tag)
        if counter is not None:
            counter.train(correct)
            return
        counter = ResettingConfidenceCounter(self.counter_bits)
        if correct:
            counter.reset_to_correct()
        else:
            counter.reset_to_incorrect()
        ways = self._sets[ptr.index]
        ways.insert(0, (ptr.tag, counter))
        if len(ways) > self.assoc:
            ways.pop()

    def pointer(self, pc: int) -> Pointer:
        return self.codec.pointer(pc)


class ReferenceSliceTracker:
    """Sec. III-A decode-side prediction, one table method per step."""

    def __init__(self, config: PubsConfig):
        self.config = c = config
        self.def_tab = ReferenceDefTab()
        self.brslice_tab = ReferenceBrsliceTab(
            c.brslice_sets, c.brslice_assoc, c.brslice_fold_width,
            c.word_width)
        self.conf_tab = ReferenceConfTab(
            c.conf_sets, c.conf_assoc, c.conf_fold_width,
            c.conf_counter_bits, c.word_width)
        self.stats = SliceTrackerStats()

    def on_decode(self, inst: StaticInst) -> bool:
        self.stats.decoded += 1
        unconfident = False
        if inst.is_conditional_branch:
            self.stats.branch_decodes += 1
            conf_ptr = self.conf_tab.pointer(inst.pc)
            for src in inst.srcs:
                slot = self.def_tab.writer_of(src)
                if slot is not None:
                    self.brslice_tab.link(slot, conf_ptr)
            if self.config.blind:
                unconfident = True
            else:
                unconfident = not self.conf_tab.is_confident_pc(inst.pc)
            if unconfident:
                self.stats.unconfident_branch_decodes += 1
        elif not inst.is_branch:
            conf_ptr = self.brslice_tab.lookup(inst.pc)
            if conf_ptr is not None:
                self.stats.slice_hits += 1
                for src in inst.srcs:
                    slot = self.def_tab.writer_of(src)
                    if slot is not None:
                        self.brslice_tab.link(slot, conf_ptr)
                if self.config.blind:
                    unconfident = True
                else:
                    unconfident = not self.conf_tab.is_confident_pointer(
                        conf_ptr)
        if inst.dest is not None:
            self.def_tab.record_writer(
                inst.dest, self.brslice_tab.codec.pointer(inst.pc))
        if unconfident:
            self.stats.unconfident_marks += 1
        return unconfident

    def on_branch_resolved(self, pc: int, correct: bool) -> None:
        if self.config.blind:
            return
        self.stats.trainings += 1
        self.conf_tab.train(pc, correct)


def table_state(tracker) -> tuple:
    """Everything a tracker's decisions depend on, comparable with ``==``:
    def_tab entries, brslice and conf sets in MRU order (counters as
    ``(bits, value)``), the brslice lookup/hit counters and the stats."""
    conf_sets = [[(tag, (c.bits, c.value)) for tag, c in ways]
                 for ways in tracker.conf_tab._sets]
    brslice = tracker.brslice_tab
    return (list(tracker.def_tab._entries), brslice._sets, conf_sets,
            brslice.lookups, brslice.hits, tracker.stats)
