"""Unit and property tests for register renaming."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NEVER, Renamer, Uop
from repro.isa import NUM_LOGICAL_REGS, Opcode, StaticInst, fp_reg, int_reg


def _uop(inst, seq=0):
    return Uop(seq, inst, fetch_cycle=0, on_correct_path=True, trace_seq=seq)


def _addi(dest, src, pc=0):
    return StaticInst(pc, Opcode.ADDI, dest=dest, src1=src, imm=1)


class TestInitialState:
    def test_identity_initial_mapping(self):
        r = Renamer(128, 128)
        assert r.map[int_reg(5)] == 5
        assert r.map[fp_reg(5)] == 128 + 5

    def test_free_counts(self):
        r = Renamer(128, 128)
        assert r.free_int_count == 96
        assert r.free_fp_count == 96

    def test_initial_registers_ready(self):
        r = Renamer(128, 128)
        uop = _uop(_addi(int_reg(1), int_reg(2)))
        r.rename(uop)
        assert uop.src_phys
        assert all(r.ready_cycle[phys] <= 0 for phys in uop.src_phys)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(ValueError):
            Renamer(31, 128)


class TestRename:
    def test_dest_gets_fresh_register(self):
        r = Renamer(128, 128)
        uop = _uop(_addi(int_reg(1), int_reg(2)))
        r.rename(uop)
        assert uop.dest_phys == 32  # first free int phys
        assert uop.prev_phys == 1
        assert r.map[int_reg(1)] == 32
        assert r.ready_cycle[32] == NEVER

    def test_sources_read_current_mapping(self):
        r = Renamer(128, 128)
        first = _uop(_addi(int_reg(1), int_reg(2)))
        r.rename(first)
        second = _uop(_addi(int_reg(3), int_reg(1)), seq=1)
        r.rename(second)
        assert second.src_phys == (first.dest_phys,)

    def test_fp_dest_uses_fp_free_list(self):
        r = Renamer(128, 128)
        uop = _uop(StaticInst(0, Opcode.FADD, dest=fp_reg(1), src1=fp_reg(2),
                              src2=fp_reg(3)))
        r.rename(uop)
        assert uop.dest_phys >= 128

    def test_no_dest_instruction(self):
        r = Renamer(128, 128)
        uop = _uop(StaticInst(0, Opcode.BEQZ, src1=int_reg(1), target=0))
        assert r.can_rename(uop)
        r.rename(uop)
        assert uop.dest_phys == -1
        assert uop.src_phys == (1,)

    def test_exhaustion_detected_by_can_rename(self):
        r = Renamer(33, 32)  # one spare int register
        uop1 = _uop(_addi(int_reg(1), int_reg(2)))
        assert r.can_rename(uop1)
        r.rename(uop1)
        uop2 = _uop(_addi(int_reg(3), int_reg(4)), seq=1)
        assert not r.can_rename(uop2)

    def test_fp_exhaustion_independent_of_int(self):
        r = Renamer(128, 33)
        fp_uop = _uop(StaticInst(0, Opcode.FMOVI, dest=fp_reg(0), imm=1))
        r.rename(fp_uop)
        assert not r.can_rename(_uop(StaticInst(4, Opcode.FMOVI, dest=fp_reg(1), imm=1)))
        assert r.can_rename(_uop(_addi(int_reg(1), int_reg(2))))


class TestCommitAndSquash:
    def test_commit_frees_previous_mapping(self):
        r = Renamer(33, 32)
        uop = _uop(_addi(int_reg(1), int_reg(2)))
        r.rename(uop)
        assert r.free_int_count == 0
        r.release_committed(uop)
        assert r.free_int_count == 1  # phys 1 (old r1) returned

    def test_squash_frees_new_mapping_and_restores_map(self):
        r = Renamer(128, 128)
        cp = r.checkpoint()
        uop = _uop(_addi(int_reg(1), int_reg(2)))
        r.rename(uop)
        assert r.map[1] != cp[1]
        r.release_squashed(uop)
        r.restore(cp)
        assert r.map[1] == cp[1]
        assert r.free_int_count == 96
        assert r.invariant_free_disjoint()

    def test_checkpoint_is_immutable_snapshot(self):
        r = Renamer(128, 128)
        cp = r.checkpoint()
        r.rename(_uop(_addi(int_reg(1), int_reg(2))))
        assert cp[1] == 1

    def test_ready_cycle_tracking(self):
        r = Renamer(128, 128)
        uop = _uop(_addi(int_reg(1), int_reg(2)))
        r.rename(uop)
        consumer = _uop(_addi(int_reg(3), int_reg(1)), seq=1)
        r.rename(consumer)
        assert consumer.src_phys == (uop.dest_phys,)
        assert r.ready_cycle[uop.dest_phys] == NEVER  # producer in flight
        r.ready_cycle[uop.dest_phys] = 50  # the producer issues
        assert r.ready_cycle[consumer.src_phys[0]] == 50


@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_property_rename_commit_conserves_registers(dests):
    """Renaming then committing any sequence conserves the physical
    register pool and keeps free/mapped sets disjoint."""
    r = Renamer(128, 128)
    uops = []
    for i, d in enumerate(dests):
        uop = _uop(_addi(int_reg(d), int_reg((d + 1) % 32), pc=i * 4), seq=i)
        if not r.can_rename(uop):
            break
        r.rename(uop)
        uops.append(uop)
    for uop in uops:
        r.release_committed(uop)
    assert r.free_int_count == 96
    assert r.invariant_free_disjoint()


@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_property_squash_rollback_restores_pool(dests):
    """Checkpoint, rename a burst, squash it all: pool and map fully
    restored."""
    r = Renamer(128, 128)
    cp = r.checkpoint()
    free_before = r.free_int_count
    map_before = list(r.map)
    uops = []
    for i, d in enumerate(dests):
        uop = _uop(_addi(int_reg(d), int_reg((d + 7) % 32), pc=i * 4), seq=i)
        if not r.can_rename(uop):
            break
        r.rename(uop)
        uops.append(uop)
    for uop in reversed(uops):
        r.release_squashed(uop)
    r.restore(cp)
    assert r.free_int_count == free_before
    assert r.map == map_before
    assert r.invariant_free_disjoint()
