"""Unit tests for the decode-stage slice tracker (the heart of PUBS)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Opcode, StaticInst
from repro.pubs import PubsConfig, SliceTracker

from tests.reference_slice_tracker import ReferenceSliceTracker, table_state


def _add(pc, dest, src1, src2):
    return StaticInst(pc, Opcode.ADD, dest=dest, src1=src1, src2=src2)


def _addi(pc, dest, src):
    return StaticInst(pc, Opcode.ADDI, dest=dest, src1=src, imm=1)


def _beqz(pc, src, target=0):
    return StaticInst(pc, Opcode.BEQZ, src1=src, target=target)


def _decode_loop(tracker, insts, iterations):
    """Decode the same instruction sequence repeatedly; returns the marks of
    the final iteration, one bool per instruction."""
    marks = []
    for _ in range(iterations):
        marks = [tracker.on_decode(inst) for inst in insts]
    return marks


class TestSliceDiscovery:
    def test_direct_producer_linked_after_one_iteration(self):
        """Iteration 1 links the branch's direct producer; iteration 2 can
        then classify it."""
        tracker = SliceTracker()
        insts = [_addi(0, 1, 2), _beqz(4, 1)]
        tracker.on_branch_resolved(4, correct=False)  # make it unconfident
        marks = _decode_loop(tracker, insts, 2)
        assert marks == [True, True]

    def test_transitive_closure_builds_over_iterations(self):
        """A depth-3 chain needs three decode passes to be fully linked:
        producers propagate one level per pass (Sec. III-A2 steps 2-3)."""
        tracker = SliceTracker()
        chain = [
            _addi(0, 1, 5),    # level 3 (linked on pass 3)
            _addi(4, 2, 1),    # level 2 (linked on pass 2)
            _addi(8, 3, 2),    # level 1 (linked on pass 1)
            _beqz(12, 3),
        ]
        tracker.on_branch_resolved(12, correct=False)
        marks1 = [tracker.on_decode(i) for i in chain]
        assert marks1 == [False, False, False, True]
        marks2 = [tracker.on_decode(i) for i in chain]
        assert marks2 == [False, False, True, True]
        marks4 = _decode_loop(tracker, chain, 2)
        assert marks4 == [True, True, True, True]

    def test_non_slice_instruction_never_marked(self):
        tracker = SliceTracker()
        insts = [
            _addi(0, 1, 2),    # feeds the branch
            _addi(4, 9, 10),   # independent filler
            _beqz(8, 1),
        ]
        tracker.on_branch_resolved(8, correct=False)
        marks = _decode_loop(tracker, insts, 4)
        assert marks == [True, False, True]

    def test_two_source_branch_links_both(self):
        tracker = SliceTracker()
        insts = [
            _addi(0, 1, 5),
            _addi(4, 2, 6),
            StaticInst(8, Opcode.BEQ, src1=1, src2=2, target=0),
        ]
        tracker.on_branch_resolved(8, correct=False)
        marks = _decode_loop(tracker, insts, 3)
        assert marks == [True, True, True]

    def test_jump_is_not_tracked(self):
        tracker = SliceTracker()
        insts = [
            _addi(0, 1, 2),
            StaticInst(4, Opcode.JUMP, target=0),
        ]
        marks = _decode_loop(tracker, insts, 3)
        assert marks == [False, False]


class TestConfidenceGating:
    def test_confident_branch_slice_not_marked(self):
        tracker = SliceTracker()
        insts = [_addi(0, 1, 2), _beqz(4, 1)]
        tracker.on_branch_resolved(4, correct=True)  # confident allocation
        marks = _decode_loop(tracker, insts, 3)
        assert marks == [False, False]

    def test_unallocated_branch_not_marked(self):
        tracker = SliceTracker()
        insts = [_addi(0, 1, 2), _beqz(4, 1)]
        marks = _decode_loop(tracker, insts, 3)
        assert marks == [False, False]

    def test_confidence_recovery_unmarks_slice(self):
        cfg = PubsConfig(conf_counter_bits=1)  # saturates after one correct
        tracker = SliceTracker(cfg)
        insts = [_addi(0, 1, 2), _beqz(4, 1)]
        tracker.on_branch_resolved(4, correct=False)
        assert _decode_loop(tracker, insts, 2) == [True, True]
        tracker.on_branch_resolved(4, correct=True)
        assert _decode_loop(tracker, insts, 1) == [False, False]

    def test_blind_mode_marks_everything_linked(self):
        tracker = SliceTracker(PubsConfig(blind=True))
        insts = [_addi(0, 1, 2), _addi(4, 9, 10), _beqz(8, 1)]
        marks = _decode_loop(tracker, insts, 3)
        assert marks == [True, False, True]  # slice + branch, not filler

    def test_blind_mode_skips_training(self):
        tracker = SliceTracker(PubsConfig(blind=True))
        tracker.on_branch_resolved(4, correct=False)
        assert tracker.stats.trainings == 0


class TestDataflowCorrectness:
    def test_register_overwrite_breaks_stale_link(self):
        """If another instruction overwrites the source register, the new
        writer (not the old one) is in the slice."""
        tracker = SliceTracker()
        insts = [
            _addi(0, 1, 5),   # old writer of r1
            _addi(4, 1, 6),   # new writer of r1 (this is the producer)
            _beqz(8, 1),
        ]
        tracker.on_branch_resolved(8, correct=False)
        marks = _decode_loop(tracker, insts, 3)
        assert marks[1] is True
        # The stale writer got linked on iteration boundaries only if the
        # def_tab still pointed at it when the branch decoded -- it did not.
        assert marks[0] is False

    def test_self_loop_register(self):
        """r1 = r1 + 1 feeding a branch: the accumulator is its own producer
        and stays in the slice."""
        tracker = SliceTracker()
        insts = [_addi(0, 1, 1), _beqz(4, 1)]
        tracker.on_branch_resolved(4, correct=False)
        marks = _decode_loop(tracker, insts, 3)
        assert marks == [True, True]

    def test_stats_accumulate(self):
        tracker = SliceTracker()
        insts = [_addi(0, 1, 2), _beqz(4, 1)]
        tracker.on_branch_resolved(4, correct=False)
        _decode_loop(tracker, insts, 5)
        s = tracker.stats
        assert s.decoded == 10
        assert s.branch_decodes == 5
        assert s.unconfident_branch_decodes == 5
        assert s.unconfident_branch_rate == 1.0
        assert s.slice_hits >= 4

    def test_reset_tables_clears_state_keeps_stats(self):
        tracker = SliceTracker()
        insts = [_addi(0, 1, 2), _beqz(4, 1)]
        tracker.on_branch_resolved(4, correct=False)
        _decode_loop(tracker, insts, 2)
        decoded_before = tracker.stats.decoded
        tracker.reset_tables()
        assert tracker.stats.decoded == decoded_before
        # After reset, the producer is no longer classified as slice.
        assert tracker.on_decode(insts[0]) is False


# ----------------------------------------------------------------------
# The fast decode path against the method-chain reference
# ----------------------------------------------------------------------

#: Few registers and PCs: dense dataflow, and (on the small geometries
#: below) constant set conflicts and tag aliasing.
_regs = st.integers(min_value=0, max_value=7)
_pcs = st.integers(min_value=0, max_value=63).map(lambda n: n * 4)


@st.composite
def _instructions(draw):
    pc = draw(_pcs)
    kind = draw(st.sampled_from(
        ["beq", "beqz", "jump", "add", "addi", "movi", "load", "store",
         "nop"]))
    if kind == "beq":
        return StaticInst(pc, Opcode.BEQ, src1=draw(_regs),
                          src2=draw(_regs), target=0)
    if kind == "beqz":
        return StaticInst(pc, Opcode.BEQZ, src1=draw(_regs), target=0)
    if kind == "jump":
        return StaticInst(pc, Opcode.JUMP, target=0)
    if kind == "add":
        return StaticInst(pc, Opcode.ADD, dest=draw(_regs),
                          src1=draw(_regs), src2=draw(_regs))
    if kind == "addi":
        return _addi(pc, draw(_regs), draw(_regs))
    if kind == "movi":
        return StaticInst(pc, Opcode.MOVI, dest=draw(_regs), imm=1)
    if kind == "load":
        return StaticInst(pc, Opcode.LOAD, dest=draw(_regs),
                          src1=draw(_regs))
    if kind == "store":
        return StaticInst(pc, Opcode.STORE, src1=draw(_regs),
                          src2=draw(_regs))
    return StaticInst(pc, Opcode.NOP)


_configs = st.builds(
    PubsConfig,
    blind=st.booleans(),
    conf_counter_bits=st.integers(1, 6),
    conf_sets=st.sampled_from([1, 2, 4]),
    conf_assoc=st.integers(1, 4),
    conf_fold_width=st.integers(1, 8),
    brslice_sets=st.sampled_from([1, 2, 4]),
    brslice_assoc=st.integers(1, 4),
    brslice_fold_width=st.integers(1, 8),
)

#: One step: decode pool[i % len(pool)]; when ``resolve`` is not None,
#: first resolve that instruction's PC as a branch with that outcome;
#: ``reload`` swaps the fast tracker for a pickled copy of itself.
_steps = st.lists(
    st.tuples(st.integers(0, 63), st.sampled_from([None, True, False]),
              st.booleans()),
    max_size=160)


class TestMatchesReference:
    """``SliceTracker`` against ``tests/reference_slice_tracker.py``."""

    @given(config=_configs,
           pool=st.lists(_instructions(), min_size=1, max_size=24),
           steps=_steps)
    @settings(max_examples=150)
    def test_random_streams_on_alias_heavy_geometries(self, config, pool,
                                                      steps):
        # The pool may hold different instructions at one PC: the
        # per-PC resolution must notice the instruction changed.
        fast, reference = SliceTracker(config), ReferenceSliceTracker(config)
        for index, resolve, reload in steps:
            inst = pool[index % len(pool)]
            if resolve is not None:
                fast.on_branch_resolved(inst.pc, resolve)
                reference.on_branch_resolved(inst.pc, resolve)
            if reload and index % 8 == 0:
                fast = pickle.loads(pickle.dumps(fast))
            assert fast.on_decode(inst) == reference.on_decode(inst)
            assert table_state(fast) == table_state(reference)

    def test_matches_on_a_workload_stream(self):
        """A real program's correct path, trained like the pipeline."""
        from repro import build_program, spec2006_profiles
        from repro.isa.executor import FunctionalExecutor
        profile = spec2006_profiles()["sjeng"]
        program = build_program(profile)
        executor = FunctionalExecutor(program, mem_seed=profile.mem_seed)
        config = PubsConfig(conf_sets=16, brslice_sets=16)
        fast, reference = SliceTracker(config), ReferenceSliceTracker(config)
        for n in range(6000):
            pc, _, taken, _ = executor.step_raw()
            inst = program.insts[pc >> 2]
            assert fast.on_decode(inst) == reference.on_decode(inst)
            if inst.is_conditional_branch:
                correct = taken == (n % 3 != 0)
                fast.on_branch_resolved(pc, correct)
                reference.on_branch_resolved(pc, correct)
        assert table_state(fast) == table_state(reference)
        assert fast.stats.unconfident_marks > 0

    def test_pickle_drops_the_resolution_memo(self):
        tracker = SliceTracker()
        tracker.on_decode(_addi(0, 1, 2))
        assert tracker._resolved
        restored = pickle.loads(pickle.dumps(tracker))
        assert restored._resolved == {}
        assert "_resolved" not in tracker.__getstate__()
