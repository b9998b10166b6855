"""Decode-stage unconfident-branch-slice prediction (Sec. III-A).

The tracker is consulted once per decoded instruction, in program (decode)
order -- including wrong-path instructions, since the real hardware cannot
know it is on the wrong path.  It answers one question: *does this
instruction belong to an unconfident branch slice?*  The answer steers
dispatch into the IQ's priority or normal partition.

Per Sec. III-A the machinery is:

1. every decoded instruction with a destination records itself in
   ``def_tab`` as the last writer of that logical register;
2. a decoding *branch* looks up the producers of its source registers in
   ``def_tab`` and links their ``brslice_tab`` entries to its own
   ``conf_tab`` pointer (step 1 of the linking algorithm);
3. a decoding *non-branch* that hits in ``brslice_tab`` propagates the
   stored conf pointer to its own producers (steps 2-3: the transitive
   closure builds up over repeated executions of the slice);
4. membership in an *unconfident* slice requires the linked confidence
   counter to exist and be below saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..isa.instruction import StaticInst
from .config import PubsConfig
from .tables import BrsliceTab, ConfTab, DefTab


@dataclass
class SliceTrackerStats:
    """Decode- and resolution-side counters (Fig. 11 uses the branch rate)."""

    decoded: int = 0
    branch_decodes: int = 0
    unconfident_branch_decodes: int = 0
    slice_hits: int = 0  #: non-branch decodes that hit in brslice_tab
    unconfident_marks: int = 0  #: instructions steered to priority entries
    trainings: int = 0

    @property
    def unconfident_branch_rate(self) -> float:
        """Fraction of dynamic branches estimated unconfident (Fig. 11)."""
        if self.branch_decodes == 0:
            return 0.0
        return self.unconfident_branch_decodes / self.branch_decodes


#: Decode kinds of a resolved static instruction.
_OTHER, _BRANCH, _JUMP = 0, 1, 2


class SliceTracker:
    """The complete decode-side PUBS predictor.

    :meth:`on_decode` runs for every decoded instruction, so the tracker
    resolves each static instruction once -- its kind, sources,
    destination and table pointers -- and then walks def_tab ->
    brslice_tab -> conf_tab with the tables' set operations inlined:
    the same lookups, MRU promotions, replacements and counter updates
    as ``DefTab.writer_of``, ``BrsliceTab.lookup``/``link`` and
    ``ConfTab.is_confident_*``, without a method call per step.
    """

    def __init__(self, config: PubsConfig = None):
        self.config = config or PubsConfig()
        c = self.config
        self.def_tab = DefTab()
        self.brslice_tab = BrsliceTab(
            c.brslice_sets, c.brslice_assoc, c.brslice_fold_width, c.word_width
        )
        self.conf_tab = ConfTab(
            c.conf_sets, c.conf_assoc, c.conf_fold_width, c.conf_counter_bits,
            c.word_width,
        )
        self.stats = SliceTrackerStats()
        #: pc -> resolved instruction (see :meth:`_resolve`).
        self._resolved: Dict[int, tuple] = {}

    def __getstate__(self) -> dict:
        # The resolutions are derived from the table geometry: warm
        # checkpoints keep the layout they had before the memo existed.
        state = self.__dict__.copy()
        state.pop("_resolved", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._resolved = {}

    def _resolve(self, inst: StaticInst) -> tuple:
        """``(inst, kind, srcs, dest, writer, pointer)`` for ``inst``.

        ``pointer`` is the table entry decode looks up: a branch's own
        conf_tab pointer, any other non-jump's own brslice_tab pointer.
        ``writer`` is the brslice pointer def_tab records for ``dest``.
        """
        pc = inst.pc
        if inst.is_conditional_branch:
            kind, pointer = _BRANCH, self.conf_tab.codec.pointer(pc)
        elif inst.is_branch:  # unconditional jumps carry no condition slice
            kind, pointer = _JUMP, None
        else:
            kind, pointer = _OTHER, self.brslice_tab.codec.pointer(pc)
        writer = None
        if inst.dest is not None:
            writer = self.brslice_tab.codec.pointer(pc)
        resolved = (inst, kind, inst.srcs, inst.dest, writer, pointer)
        self._resolved[pc] = resolved
        return resolved

    def on_decode(self, inst: StaticInst) -> bool:
        """Process one decoding instruction; True if it belongs to an
        unconfident branch slice (=> dispatch to a priority entry)."""
        resolved = self._resolved.get(inst.pc)
        if resolved is None or resolved[0] is not inst:
            resolved = self._resolve(inst)
        _, kind, srcs, dest, writer, pointer = resolved
        stats = self.stats
        stats.decoded += 1
        unconfident = False
        conf_ptr = None  # the conf_tab entry of the slice being extended
        if kind == _OTHER:
            # brslice_tab lookup of the instruction's own entry.
            brslice = self.brslice_tab
            brslice.lookups += 1
            ways = brslice._sets[pointer.index]
            tag = pointer.tag
            for way in ways:
                if way[0] == tag:
                    # Tags are unique within a set, so ``remove`` takes
                    # out exactly this way.
                    if way is not ways[0]:
                        ways.remove(way)
                        ways.insert(0, way)
                    brslice.hits += 1
                    stats.slice_hits += 1
                    conf_ptr = way[1]
                    break
        elif kind == _BRANCH:
            stats.branch_decodes += 1
            conf_ptr = pointer
        if conf_ptr is not None:
            # Link the producers of the sources into the slice: the
            # brslice entry each def_tab pointer addresses now holds
            # conf_ptr, MRU, evicting the set's LRU way when full.
            if srcs:
                entries = self.def_tab._entries
                brslice = self.brslice_tab
                for src in srcs:
                    slot = entries[src]
                    if slot is not None:
                        ways = brslice._sets[slot.index]
                        tag = slot.tag
                        if ways and ways[0][0] == tag:
                            ways[0] = (tag, conf_ptr)  # already MRU
                            continue
                        for way in ways:
                            if way[0] == tag:
                                ways.remove(way)
                                break
                        ways.insert(0, (tag, conf_ptr))
                        if len(ways) > brslice.assoc:
                            ways.pop()
            if self.config.blind:
                unconfident = True
            else:
                # Unallocated or saturated => confident (Sec. III-A3).
                conf = self.conf_tab
                ways = conf._sets[conf_ptr.index]
                tag = conf_ptr.tag
                for way in ways:
                    if way[0] == tag:
                        if way is not ways[0]:
                            ways.remove(way)
                            ways.insert(0, way)
                        unconfident = (way[1].value
                                       != (1 << conf.counter_bits) - 1)
                        break
            if unconfident and kind == _BRANCH:
                stats.unconfident_branch_decodes += 1
        if writer is not None:
            self.def_tab._entries[dest] = writer
        if unconfident:
            stats.unconfident_marks += 1
        return unconfident

    def on_branch_resolved(self, pc: int, correct: bool) -> None:
        """Train the confidence counter with a resolved correct-path branch."""
        if self.config.blind:
            return  # the blind model has no conf_tab to train
        self.stats.trainings += 1
        self.conf_tab.train(pc, correct)

    def reset_tables(self) -> None:
        """Clear all three tables (keeps stats); for phase experiments."""
        self.def_tab.clear()
        self.brslice_tab.clear()
        self.conf_tab.clear()
