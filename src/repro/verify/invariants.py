"""Pluggable machine-invariant checkers.

Each invariant is a function ``check(pipeline) -> None`` that raises
:class:`~repro.verify.violations.InvariantViolation` when a structural law
of the simulator is broken.  :func:`default_registry` builds a fresh
:class:`InvariantRegistry` holding the built-in set, so tests (and future
subsystems) can add, replace or remove checks without touching global
state.

Built-in invariants:

``free-list-conservation``
    Physical registers are conserved under rename: the free lists, the
    current map table, and the previous mappings held by in-flight ROB
    entries partition the physical register space exactly; no in-flight
    destination register sits on a free list.
``rob-iq-lsq-agreement``
    The three window structures agree: ROB/LSQ entries are in fetch order
    and within capacity, the LSQ holds exactly the ROB's in-flight memory
    uops, and the IQ's occupancy equals the ROB's dispatched-but-unissued
    population, entry by entry, each entry under the handle its uop was
    dispatched with (every IQ organization's handles are stable).
``priority-partition-bounds``
    The PUBS split free lists are well-formed: priority slots stay below
    ``priority_entries`` (per queue in the distributed organization), both
    partitions conserve their capacity, and the stall dispatch policy's
    accounting holds (priority dispatches never exceed unconfident ones).
``brslice-pointer-validity``
    Every pointer stored in ``def_tab`` and ``brslice_tab`` dereferences to
    a legal location of the target table's configured geometry (index within
    the set count, tag within the fold width), sets respect associativity,
    and tags are unique within a set.
``conf-counter-range``
    Every allocated resetting confidence counter obeys its range/saturation
    law: configured width, ``0 <= value <= maximum``, confident exactly at
    saturation.
``scheduler-wakeup-consistency``
    The incremental ready-set scheduler's bookkeeping is coherent: wakeup
    registrations of live IQ-resident uops match their ``pending_srcs``
    counts exactly (squashed waiters are dropped lazily by design and are
    ignored).
``topdown-cycle-accounting``
    The topdown slot buckets (DESIGN.md §15) account every issue slot:
    their sum equals ``decode_width * cycles`` exactly; the per-cause
    dispatch-stall counters are disjoint and sum to
    ``dispatch_stall_cycles``; and the three Sec. II-A misspeculation
    components sum to ``missspec_penalty_cycles``.
``trace-sequence-continuity``
    Fetch reads each correct-path trace record once: the correct-path
    uops in the ROB, followed by those in the front-end buffer, carry
    consecutive ``trace_seq`` values, and the next record fetch reads
    (``_next_trace_seq``) is one past the last of them.  A fetch that
    re-read a record or skipped one, or a recovery that rewound to the
    wrong record, breaks the chain.

The table-level checks are also exposed standalone
(:func:`check_conf_tab`, :func:`check_brslice_tab`, :func:`check_def_tab`)
so property-based tests can drive the tables directly with random operation
sequences and assert the same laws the running pipeline is held to.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

from ..branch.confidence import ResettingConfidenceCounter
from ..iq.distributed import DistributedIssueQueue
from ..iq.queue import IssueQueue
from ..pubs.tables import BrsliceTab, ConfTab, DefTab, Pointer
from .violations import InvariantViolation

Check = Callable[[object], None]


class InvariantRegistry:
    """Named collection of invariant checks, run in registration order."""

    def __init__(self):
        self._checks: Dict[str, Check] = {}

    def register(self, name: str, check: Check = None):
        """Add a check (usable directly or as a decorator)."""
        if check is None:
            def decorator(fn: Check) -> Check:
                self.register(name, fn)
                return fn
            return decorator
        if name in self._checks:
            raise ValueError(f"invariant already registered: {name}")
        self._checks[name] = check
        return check

    def unregister(self, name: str) -> None:
        del self._checks[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._checks)

    def __len__(self) -> int:
        return len(self._checks)

    def run(self, pipeline) -> None:
        """Run every registered check against ``pipeline``."""
        for check in self._checks.values():
            check(pipeline)


# ======================================================================
# Standalone table checks (shared by the pipeline invariant and the
# property-based tests).
# ======================================================================

def _check_pointer(name: str, pointer, codec, where: str) -> None:
    if not isinstance(pointer, Pointer):
        raise InvariantViolation(
            name, f"{where} holds {type(pointer).__name__}, not a Pointer",
            snapshot={"value": pointer})
    if not 0 <= pointer.index < codec.num_sets:
        raise InvariantViolation(
            name, f"{where} pointer index {pointer.index} outside "
                  f"[0, {codec.num_sets})", snapshot={"pointer": pointer})
    if not 0 <= pointer.tag < (1 << codec.fold_width):
        raise InvariantViolation(
            name, f"{where} pointer tag {pointer.tag:#x} wider than the "
                  f"{codec.fold_width}-bit fold", snapshot={"pointer": pointer})


def _check_set_shape(name: str, table, index: int, ways: Iterable) -> None:
    ways = list(ways)
    if len(ways) > table.assoc:
        raise InvariantViolation(
            name, f"set {index} holds {len(ways)} ways, associativity is "
                  f"{table.assoc}", snapshot={"set": ways})
    tags = [tag for tag, _ in ways]
    if len(tags) != len(set(tags)):
        raise InvariantViolation(
            name, f"set {index} holds duplicate tags", snapshot={"set": ways})
    for tag, _ in ways:
        if not 0 <= tag < (1 << table.codec.fold_width):
            raise InvariantViolation(
                name, f"set {index} tag {tag:#x} wider than the "
                      f"{table.codec.fold_width}-bit fold",
                snapshot={"set": ways})


def check_brslice_tab(brslice: BrsliceTab, conf: ConfTab,
                      name: str = "brslice-pointer-validity") -> None:
    """Every brslice entry is shape-legal and targets a legal conf_tab slot."""
    for index, ways in enumerate(brslice._sets):
        _check_set_shape(name, brslice, index, ways)
        for tag, conf_ptr in ways:
            _check_pointer(name, conf_ptr, conf.codec,
                           f"brslice set {index} (tag {tag:#x})")


def check_def_tab(def_tab: DefTab, brslice: BrsliceTab,
                  name: str = "brslice-pointer-validity") -> None:
    """Every recorded last-writer pointer addresses the brslice geometry."""
    for reg, pointer in enumerate(def_tab._entries):
        if pointer is not None:
            _check_pointer(name, pointer, brslice.codec, f"def_tab[{reg}]")


def check_conf_tab(conf: ConfTab, name: str = "conf-counter-range") -> None:
    """Every allocated counter obeys its range/saturation law."""
    for index, ways in enumerate(conf._sets):
        _check_set_shape(name, conf, index, ways)
        for tag, counter in ways:
            if not isinstance(counter, ResettingConfidenceCounter):
                raise InvariantViolation(
                    name, f"conf set {index} holds {type(counter).__name__}",
                    snapshot={"entry": (tag, counter)})
            if counter.bits != conf.counter_bits:
                raise InvariantViolation(
                    name, f"conf set {index} counter width {counter.bits} != "
                          f"configured {conf.counter_bits}",
                    snapshot={"counter": counter})
            if not 0 <= counter.value <= counter.maximum:
                raise InvariantViolation(
                    name, f"conf set {index} counter value {counter.value} "
                          f"outside [0, {counter.maximum}]",
                    snapshot={"counter": counter})
            if counter.confident != (counter.value == counter.maximum):
                raise InvariantViolation(
                    name, f"conf set {index} counter confident flag "
                          f"disagrees with saturation",
                    snapshot={"counter": counter})


# ======================================================================
# Pipeline-level invariants
# ======================================================================

def check_free_list_conservation(pipeline) -> None:
    """Free lists + map table + in-flight previous mappings partition the
    physical register space."""
    name = "free-list-conservation"
    r = pipeline.renamer
    cycle = pipeline.cycle
    free = list(r._free_int) + list(r._free_fp)
    for phys in r._free_int:
        if not 0 <= phys < r.int_phys:
            raise InvariantViolation(
                name, f"int free list holds out-of-class register {phys}",
                cycle=cycle, snapshot={"free_int": list(r._free_int)})
    for phys in r._free_fp:
        if not r.int_phys <= phys < r.num_phys:
            raise InvariantViolation(
                name, f"fp free list holds out-of-class register {phys}",
                cycle=cycle, snapshot={"free_fp": list(r._free_fp)})
    held = [u.prev_phys for u in pipeline.rob if u.prev_phys >= 0]
    population = sorted(free + list(r.map) + held)
    if population != list(range(r.num_phys)):
        seen: Dict[int, int] = {}
        for phys in population:
            seen[phys] = seen.get(phys, 0) + 1
        dupes = {p: n for p, n in seen.items() if n > 1}
        missing = [p for p in range(r.num_phys) if p not in seen]
        raise InvariantViolation(
            name,
            f"physical registers not conserved: {len(dupes)} duplicated, "
            f"{len(missing)} leaked",
            cycle=cycle,
            snapshot={"duplicated": dupes, "leaked": missing,
                      "free": sorted(free)})
    free_set = set(free)
    for uop in pipeline.rob:
        if uop.dest_phys >= 0 and uop.dest_phys in free_set:
            raise InvariantViolation(
                name,
                f"in-flight destination register {uop.dest_phys} is on a "
                f"free list", cycle=cycle, uop=uop,
                snapshot={"free": sorted(free)})


def check_occupancy_agreement(pipeline) -> None:
    """ROB, IQ and LSQ describe the same in-flight population."""
    name = "rob-iq-lsq-agreement"
    cycle = pipeline.cycle
    rob, iq, lsq = pipeline.rob, pipeline.iq, pipeline.lsq
    if len(rob) > rob.size:
        raise InvariantViolation(
            name, f"ROB occupancy {len(rob)} exceeds capacity {rob.size}",
            cycle=cycle)
    if len(lsq) > lsq.size:
        raise InvariantViolation(
            name, f"LSQ occupancy {len(lsq)} exceeds capacity {lsq.size}",
            cycle=cycle)
    prev_seq = -1
    rob_ids = set()
    iq_resident = 0
    mem_seqs = []
    for uop in rob:
        if uop.seq <= prev_seq:
            raise InvariantViolation(
                name, f"ROB out of fetch order at seq {uop.seq}",
                cycle=cycle, uop=uop)
        prev_seq = uop.seq
        rob_ids.add(id(uop))
        if uop.iq_slot != -1:
            iq_resident += 1
        if uop.inst.is_mem:
            mem_seqs.append(uop.seq)
            if not uop.in_lsq:
                raise InvariantViolation(
                    name, "in-flight memory uop not marked LSQ-resident",
                    cycle=cycle, uop=uop)
    lsq_seqs = [u.seq for u in lsq]
    if lsq_seqs != mem_seqs:
        raise InvariantViolation(
            name,
            f"LSQ population disagrees with the ROB's memory uops "
            f"({len(lsq_seqs)} vs {len(mem_seqs)})",
            cycle=cycle, snapshot={"lsq_seqs": lsq_seqs,
                                   "rob_mem_seqs": mem_seqs})
    if iq.occupancy != iq_resident:
        raise InvariantViolation(
            name,
            f"IQ occupancy {iq.occupancy} disagrees with the ROB's "
            f"dispatched-unissued population {iq_resident}", cycle=cycle)
    occupied = 0
    for slot, uop in iq.occupied():
        occupied += 1
        if id(uop) not in rob_ids:
            raise InvariantViolation(
                name, "IQ entry holds a uop absent from the ROB",
                cycle=cycle, uop=uop, snapshot={"slot": slot})
        if uop.squashed:
            raise InvariantViolation(
                name, "IQ entry holds a squashed uop", cycle=cycle, uop=uop,
                snapshot={"slot": slot})
        if uop.issue_cycle >= 0:
            raise InvariantViolation(
                name, "IQ entry holds an already-issued uop", cycle=cycle,
                uop=uop, snapshot={"slot": slot})
        if uop.iq_slot != slot:
            raise InvariantViolation(
                name,
                f"IQ entry {slot} holds a uop whose handle says "
                f"{uop.iq_slot}", cycle=cycle, uop=uop)
    if occupied != iq.occupancy:
        raise InvariantViolation(
            name,
            f"IQ slot array holds {occupied} uops but its occupancy "
            f"count is {iq.occupancy}", cycle=cycle)


def _component_queues(iq) -> Iterable[Tuple[str, IssueQueue]]:
    if isinstance(iq, DistributedIssueQueue):
        for fu, queue in iq.queues.items():
            yield f"{fu.name} queue", queue
    elif isinstance(iq, IssueQueue):
        yield "IQ", iq


def check_priority_partition(pipeline) -> None:
    """PUBS split free lists conserve their partitions; stall accounting."""
    name = "priority-partition-bounds"
    cycle = pipeline.cycle
    for label, q in _component_queues(pipeline.iq):
        fp, fn = list(q._free_priority), list(q._free_normal)
        if len(set(fp)) != len(fp) or len(set(fn)) != len(fn):
            raise InvariantViolation(
                name, f"{label} free lists hold duplicate slots",
                cycle=cycle, snapshot={"free_priority": fp, "free_normal": fn})
        for slot in fp:
            if not 0 <= slot < q.priority_entries:
                raise InvariantViolation(
                    name,
                    f"{label} priority free list holds slot {slot}, outside "
                    f"the {q.priority_entries}-entry partition",
                    cycle=cycle, snapshot={"free_priority": fp})
            if q._slots[slot] is not None:
                raise InvariantViolation(
                    name, f"{label} slot {slot} is both free and occupied",
                    cycle=cycle, snapshot={"free_priority": fp})
        for slot in fn:
            if not q.priority_entries <= slot < q.size:
                raise InvariantViolation(
                    name,
                    f"{label} normal free list holds slot {slot}, inside the "
                    f"priority partition", cycle=cycle,
                    snapshot={"free_normal": fn})
            if q._slots[slot] is not None:
                raise InvariantViolation(
                    name, f"{label} slot {slot} is both free and occupied",
                    cycle=cycle, snapshot={"free_normal": fn})
        occupied_priority = sum(
            1 for s in range(q.priority_entries) if q._slots[s] is not None)
        occupied_normal = sum(
            1 for s in range(q.priority_entries, q.size)
            if q._slots[s] is not None)
        if occupied_priority + len(fp) != q.priority_entries:
            raise InvariantViolation(
                name,
                f"{label} priority partition leaks entries: {occupied_priority}"
                f" occupied + {len(fp)} free != {q.priority_entries}",
                cycle=cycle)
        if occupied_normal + len(fn) != q.size - q.priority_entries:
            raise InvariantViolation(
                name,
                f"{label} normal partition leaks entries: {occupied_normal} "
                f"occupied + {len(fn)} != {q.size - q.priority_entries}",
                cycle=cycle)
    stats = pipeline.stats
    if stats.priority_dispatches > stats.unconfident_dispatches:
        raise InvariantViolation(
            name,
            f"more priority dispatches ({stats.priority_dispatches}) than "
            f"unconfident decodes requesting them "
            f"({stats.unconfident_dispatches})", cycle=cycle)


def check_slice_tables(pipeline) -> None:
    """brslice/def pointer validity against the live table geometries."""
    tracker = pipeline.slice_tracker
    check_brslice_tab(tracker.brslice_tab, tracker.conf_tab)
    check_def_tab(tracker.def_tab, tracker.brslice_tab)


def check_confidence_counters(pipeline) -> None:
    """Resetting-counter range/saturation laws over the whole conf_tab."""
    check_conf_tab(pipeline.slice_tracker.conf_tab)


def check_scheduler_wakeup(pipeline) -> None:
    """Incremental ready-set bookkeeping matches pending-source counts."""
    name = "scheduler-wakeup-consistency"
    cycle = pipeline.cycle
    num_phys = pipeline.renamer.num_phys
    registrations: Dict[int, int] = {}
    for phys, waiters in pipeline._wakeup.items():
        if not 0 <= phys < num_phys:
            raise InvariantViolation(
                name, f"wakeup list keyed by invalid register {phys}",
                cycle=cycle)
        for uop in waiters:
            if uop.squashed:
                continue  # dropped lazily at wake time, by design
            registrations[id(uop)] = registrations.get(id(uop), 0) + 1
    for slot, uop in pipeline.iq.occupied():
        if uop.pending_srcs < 0:
            raise InvariantViolation(
                name, f"negative pending-source count {uop.pending_srcs}",
                cycle=cycle, uop=uop)
        waiting = registrations.get(id(uop), 0)
        if waiting != uop.pending_srcs:
            raise InvariantViolation(
                name,
                f"uop registered in {waiting} wakeup list(s) but "
                f"pending_srcs={uop.pending_srcs}", cycle=cycle, uop=uop,
                snapshot={"slot": slot})


def check_topdown_accounting(pipeline) -> None:
    """Topdown slot buckets partition the machine's issue slots exactly."""
    name = "topdown-cycle-accounting"
    cycle = pipeline.cycle
    s = pipeline.stats
    width = pipeline.config.decode_width
    slot_sum = (s.td_retire_slots + s.td_wrongpath_slots
                + s.td_recovery_slots + s.td_fe_fetch_slots
                + s.td_fe_l1i_slots + s.td_be_rob_slots + s.td_be_iq_slots
                + s.td_be_lsq_slots + s.td_be_regs_slots
                + s.td_be_priority_slots)
    total = width * s.cycles
    if slot_sum != total:
        raise InvariantViolation(
            name,
            f"topdown buckets hold {slot_sum} slots, the machine issued "
            f"{total} (decode_width {width} x {s.cycles} cycles)",
            cycle=cycle,
            snapshot={"retire": s.td_retire_slots,
                      "wrongpath": s.td_wrongpath_slots,
                      "recovery": s.td_recovery_slots,
                      "fe_fetch": s.td_fe_fetch_slots,
                      "fe_l1i": s.td_fe_l1i_slots,
                      "be_rob": s.td_be_rob_slots,
                      "be_iq": s.td_be_iq_slots,
                      "be_lsq": s.td_be_lsq_slots,
                      "be_regs": s.td_be_regs_slots,
                      "be_priority": s.td_be_priority_slots})
    per_cause = (s.rob_full_stall_cycles + s.iq_full_stall_cycles
                 + s.lsq_full_stall_cycles + s.regs_full_stall_cycles
                 + s.priority_stall_cycles)
    if s.dispatch_stall_cycles != per_cause:
        raise InvariantViolation(
            name,
            f"per-cause stall cycles sum to {per_cause}, aggregate says "
            f"{s.dispatch_stall_cycles} -- the causes overlap or leak",
            cycle=cycle,
            snapshot={"rob": s.rob_full_stall_cycles,
                      "iq": s.iq_full_stall_cycles,
                      "lsq": s.lsq_full_stall_cycles,
                      "regs": s.regs_full_stall_cycles,
                      "priority": s.priority_stall_cycles})
    components = (s.missspec_frontend_cycles + s.missspec_iq_wait_cycles
                  + s.missspec_execute_cycles)
    if components != s.missspec_penalty_cycles:
        raise InvariantViolation(
            name,
            f"E_wait components sum to {components}, the recorded penalty "
            f"is {s.missspec_penalty_cycles}",
            cycle=cycle,
            snapshot={"frontend": s.missspec_frontend_cycles,
                      "iq_wait": s.missspec_iq_wait_cycles,
                      "execute": s.missspec_execute_cycles})


def check_trace_sequence(pipeline) -> None:
    """In-flight correct-path uops hold consecutive trace records, fetch
    resumes right after the last of them, and its memory-record cursor
    ranks that resume point."""
    name = "trace-sequence-continuity"
    cycle = pipeline.cycle
    expected = None
    for where, uops in (("ROB", pipeline.rob),
                        ("front end", pipeline._frontend)):
        for uop in uops:
            if not uop.on_correct_path:
                continue
            if expected is not None and uop.trace_seq != expected:
                raise InvariantViolation(
                    name,
                    f"{where} uop holds trace record {uop.trace_seq}, "
                    f"expected {expected}", cycle=cycle, uop=uop)
            expected = uop.trace_seq + 1
    if expected is not None and pipeline._next_trace_seq != expected:
        raise InvariantViolation(
            name,
            f"fetch resumes at trace record {pipeline._next_trace_seq}, "
            f"one past the last in flight is {expected}", cycle=cycle)
    rank = pipeline.trace.mem_rank(pipeline._next_trace_seq)
    if pipeline._next_mem_seq != rank:
        raise InvariantViolation(
            name,
            f"fetch reads the next address at memory record "
            f"{pipeline._next_mem_seq}, trace record "
            f"{pipeline._next_trace_seq} ranks {rank}", cycle=cycle)


def default_registry() -> InvariantRegistry:
    """A fresh registry holding every built-in invariant."""
    registry = InvariantRegistry()
    registry.register("free-list-conservation", check_free_list_conservation)
    registry.register("rob-iq-lsq-agreement", check_occupancy_agreement)
    registry.register("priority-partition-bounds", check_priority_partition)
    registry.register("brslice-pointer-validity", check_slice_tables)
    registry.register("conf-counter-range", check_confidence_counters)
    registry.register("scheduler-wakeup-consistency", check_scheduler_wakeup)
    registry.register("topdown-cycle-accounting", check_topdown_accounting)
    registry.register("trace-sequence-continuity", check_trace_sequence)
    return registry
