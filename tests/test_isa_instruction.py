"""Unit tests for static instructions, programs, and the builder."""

import dataclasses

import pytest

from repro.isa import opcodes
from repro.isa import (
    INST_BYTES,
    Opcode,
    Program,
    ProgramBuilder,
    StaticInst,
    int_reg,
)


def _mov(pc, dest, imm=0):
    return StaticInst(pc, Opcode.MOVI, dest=dest, imm=imm)


class TestStaticInst:
    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.BEQZ, src1=1)

    def test_non_branch_rejects_target(self):
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.ADD, dest=1, src1=2, src2=3, target=4)

    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.ADD, dest=64, src1=0, src2=1)
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.ADD, dest=1, src1=-1, src2=1)

    def test_sources_in_operand_order(self):
        inst = StaticInst(0, Opcode.ADD, dest=3, src1=7, src2=9)
        assert inst.srcs == (7, 9)

    def test_sources_skips_missing(self):
        inst = StaticInst(0, Opcode.BEQZ, src1=5, target=0)
        assert inst.srcs == (5,)
        assert _mov(0, 1).srcs == ()

    def test_predicates(self):
        br = StaticInst(0, Opcode.BNE, src1=1, src2=2, target=0)
        assert br.is_branch and br.is_conditional_branch
        ld = StaticInst(0, Opcode.LOAD, dest=1, src1=2)
        assert ld.is_load and ld.is_mem and not ld.is_store

    def test_str_contains_opcode_and_registers(self):
        inst = StaticInst(0, Opcode.ADD, dest=3, src1=33, src2=9)
        text = str(inst)
        assert "add" in text and "r3" in text and "f1" in text and "r9" in text


class TestDecodeAttributes:
    """Construction installs per-opcode decode attributes that mirror the
    opcode tables, without becoming dataclass fields (content keys
    canonicalize fields only, so they must not see them)."""

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    def test_attributes_match_opcode_tables(self, op):
        target = 0 if opcodes.is_branch(op) else None
        inst = StaticInst(0, op, dest=3, src1=1, src2=2, target=target)
        assert inst.is_branch == opcodes.is_branch(op)
        assert inst.is_conditional_branch == opcodes.is_conditional_branch(op)
        assert inst.is_load == opcodes.is_load(op)
        assert inst.is_store == opcodes.is_store(op)
        assert inst.is_mem == opcodes.is_mem(op)
        assert inst.fu == opcodes.fu_class(op)
        assert inst.latency == opcodes.latency(op)
        assert inst.srcs == (1, 2)

    def test_fields_unchanged(self):
        assert [f.name for f in dataclasses.fields(StaticInst)] == [
            "pc", "opcode", "dest", "src1", "src2", "imm", "target"]

    def test_equality_and_replace_see_fields_only(self):
        inst = StaticInst(0, Opcode.ADD, dest=3, src1=7, src2=9)
        assert inst == StaticInst(0, Opcode.ADD, dest=3, src1=7, src2=9)
        assert dataclasses.asdict(inst) == {
            "pc": 0, "opcode": Opcode.ADD, "dest": 3, "src1": 7, "src2": 9,
            "imm": 0, "target": None}
        load = dataclasses.replace(inst, opcode=Opcode.LOAD, src2=None)
        assert load.is_load and load.srcs == (7,)

    def test_attributes_are_frozen(self):
        inst = StaticInst(0, Opcode.ADD, dest=3, src1=7, src2=9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.is_mem = True


class TestProgram:
    def test_pcs_must_be_sequential(self):
        with pytest.raises(ValueError):
            Program("p", [_mov(0, 1), _mov(8, 2)])

    def test_branch_target_must_exist(self):
        insts = [
            _mov(0, 1),
            StaticInst(4, Opcode.BEQZ, src1=1, target=100),
        ]
        with pytest.raises(ValueError):
            Program("p", insts)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program("p", [])

    def test_lookup_and_next_pc(self):
        prog = Program("p", [_mov(0, 1), _mov(4, 2), _mov(8, 3)])
        assert prog.at(4).dest == 2
        assert prog.next_pc(0) == 4
        assert prog.next_pc(8) == 0  # wraps to entry
        assert prog.contains(8) and not prog.contains(12)
        assert prog.entry_pc == 0 and prog.last_pc == 8

    def test_listing_has_one_line_per_instruction(self):
        prog = Program("p", [_mov(0, 1), _mov(4, 2)])
        assert len(prog.listing().splitlines()) == 2

    def test_warm_regions_default_empty(self):
        prog = Program("p", [_mov(0, 1)])
        assert prog.warm_regions == ()


class TestProgramBuilder:
    def test_forward_label_patching(self):
        b = ProgramBuilder("p")
        b.emit(Opcode.BEQZ, src1=int_reg(1), target_label="done")
        b.emit(Opcode.MOVI, dest=int_reg(2), imm=5)
        b.mark_label("done")
        b.emit(Opcode.NOP)
        prog = b.build()
        assert prog.at(0).target == 2 * INST_BYTES

    def test_backward_label(self):
        b = ProgramBuilder("p")
        b.mark_label("top")
        b.emit(Opcode.NOP)
        b.emit(Opcode.JUMP, target_label="top")
        prog = b.build()
        assert prog.at(INST_BYTES).target == 0

    def test_undefined_label_raises(self):
        b = ProgramBuilder("p")
        b.emit(Opcode.JUMP, target_label="nowhere")
        with pytest.raises(ValueError, match="undefined label"):
            b.build()

    def test_duplicate_label_raises(self):
        b = ProgramBuilder("p")
        b.mark_label("x")
        with pytest.raises(ValueError, match="twice"):
            b.mark_label("x")

    def test_emit_returns_pc(self):
        b = ProgramBuilder("p")
        assert b.emit(Opcode.NOP) == 0
        assert b.emit(Opcode.NOP) == INST_BYTES

    def test_warm_regions_pass_through(self):
        b = ProgramBuilder("p")
        b.emit(Opcode.NOP)
        prog = b.build(warm_regions=[(1 << 20, 4096)])
        assert prog.warm_regions == ((1 << 20, 4096),)
