"""Unit and property tests for the functional executor."""

from hypothesis import given, strategies as st

from repro.isa import (
    FunctionalExecutor,
    Opcode,
    Program,
    ProgramBuilder,
    SparseMemory,
    StaticInst,
    int_reg,
    mix64,
    to_signed,
)


def _prog(*insts):
    return Program("t", list(insts))


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_spreads_nearby_inputs(self):
        assert mix64(1) != mix64(2)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_stays_in_64_bits(self, x):
        assert 0 <= mix64(x) < (1 << 64)


class TestToSigned:
    def test_positive_passthrough(self):
        assert to_signed(5) == 5

    def test_negative_wraps(self):
        assert to_signed((1 << 64) - 1) == -1
        assert to_signed(1 << 63) == -(1 << 63)


class TestSparseMemory:
    def test_written_value_read_back(self):
        mem = SparseMemory()
        mem.write(0x1000, 42)
        assert mem.read(0x1000) == 42

    def test_default_contents_deterministic(self):
        a, b = SparseMemory(seed=7), SparseMemory(seed=7)
        assert a.read(0x2000) == b.read(0x2000)

    def test_seed_changes_defaults(self):
        assert SparseMemory(seed=1).read(0x2000) != SparseMemory(seed=2).read(0x2000)

    def test_word_aligned(self):
        mem = SparseMemory()
        mem.write(0x1004, 99)  # aligns down to 0x1000
        assert mem.read(0x1000) == 99

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_read_after_write_roundtrip(self, addr, value):
        mem = SparseMemory()
        mem.write(addr, value)
        assert mem.read(addr) == value


class TestExecution:
    def test_movi_add(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=10),
            StaticInst(4, Opcode.MOVI, dest=2, imm=32),
            StaticInst(8, Opcode.ADD, dest=3, src1=1, src2=2),
        )
        ex = FunctionalExecutor(prog)
        ex.run(3)
        assert ex.regs[3] == 42

    def test_sub_wraps_to_64_bits(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=0),
            StaticInst(4, Opcode.SUBI, dest=2, src1=1, imm=1),
        )
        ex = FunctionalExecutor(prog)
        ex.run(2)
        assert ex.regs[2] == (1 << 64) - 1

    def test_div_by_zero_yields_zero(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=7),
            StaticInst(4, Opcode.MOVI, dest=2, imm=0),
            StaticInst(8, Opcode.DIV, dest=3, src1=1, src2=2),
        )
        ex = FunctionalExecutor(prog)
        ex.run(3)
        assert ex.regs[3] == 0

    def test_shift_amount_masked(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=1),
            StaticInst(4, Opcode.MOVI, dest=2, imm=65),  # 65 & 63 == 1
            StaticInst(8, Opcode.SHL, dest=3, src1=1, src2=2),
        )
        ex = FunctionalExecutor(prog)
        ex.run(3)
        assert ex.regs[3] == 2

    def test_load_store_roundtrip(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=0x1000),  # address base
            StaticInst(4, Opcode.MOVI, dest=2, imm=777),     # data
            StaticInst(8, Opcode.STORE, src1=2, src2=1, imm=8),
            StaticInst(12, Opcode.LOAD, dest=3, src1=1, imm=8),
        )
        ex = FunctionalExecutor(prog)
        records = ex.run(4)
        assert ex.regs[3] == 777
        assert records[2].mem_addr == 0x1008
        assert records[3].mem_addr == 0x1008

    def test_taken_branch_redirects(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=0),
            StaticInst(4, Opcode.BEQZ, src1=1, target=12),
            StaticInst(8, Opcode.MOVI, dest=2, imm=1),  # skipped
            StaticInst(12, Opcode.NOP),
        )
        ex = FunctionalExecutor(prog)
        records = ex.run(3)
        assert records[1].taken and records[1].next_pc == 12
        assert records[2].inst.pc == 12
        assert ex.regs[2] == 0

    def test_not_taken_branch_falls_through(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=3),
            StaticInst(4, Opcode.BEQZ, src1=1, target=12),
            StaticInst(8, Opcode.NOP),
            StaticInst(12, Opcode.NOP),
        )
        ex = FunctionalExecutor(prog)
        records = ex.run(3)
        assert not records[1].taken
        assert records[2].inst.pc == 8

    def test_blt_is_signed(self):
        prog = _prog(
            StaticInst(0, Opcode.MOVI, dest=1, imm=0),
            StaticInst(4, Opcode.SUBI, dest=2, src1=1, imm=1),  # -1
            StaticInst(8, Opcode.BLT, src1=2, src2=1, target=16),  # -1 < 0
            StaticInst(12, Opcode.NOP),
            StaticInst(16, Opcode.NOP),
        )
        ex = FunctionalExecutor(prog)
        records = ex.run(3)
        assert records[2].taken

    def test_jump_is_always_taken(self):
        prog = _prog(
            StaticInst(0, Opcode.JUMP, target=8),
            StaticInst(4, Opcode.NOP),
            StaticInst(8, Opcode.NOP),
        )
        ex = FunctionalExecutor(prog)
        records = ex.run(2)
        assert records[0].taken and records[0].next_pc == 8

    def test_wraparound_at_program_end(self):
        prog = _prog(StaticInst(0, Opcode.NOP), StaticInst(4, Opcode.NOP))
        ex = FunctionalExecutor(prog)
        records = ex.run(3)
        assert records[2].inst.pc == 0

    def test_sequence_numbers_monotonic(self):
        prog = _prog(StaticInst(0, Opcode.NOP))
        ex = FunctionalExecutor(prog)
        records = ex.run(5)
        assert [r.seq for r in records] == list(range(5))


class TestTraceCursor:
    """The timing model reads its captured stream straight from the
    trace arrays; no executor-stepping cursor remains."""

    def test_live_cursor_removed(self):
        """Replay is the only timed front end: the executor-stepping
        cursor is gone from the ISA package."""
        import repro.isa
        import repro.isa.executor

        assert not hasattr(repro.isa.executor, "TraceCursor")
        assert "TraceCursor" not in repro.isa.__all__
