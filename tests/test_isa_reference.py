"""The compiled executor and trace capture against the reference stepper.

:mod:`tests.reference_executor` keeps the opcode-chain interpretation
the compiled closures replaced.  Every record ``step()`` returns, the
register file after every step, every trace array ``capture_trace``
fills and every checkpoint it takes must equal what the reference
produces, on the SPEC-like profiles, on the stress kernels and on random
programs that use every opcode.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import FunctionalExecutor, Opcode, Program, StaticInst
from repro.trace import capture_trace, extend_trace
from repro.trace.format import encode_trace
from repro.workloads import build_program, get_profile, spec2006_profiles
from repro.workloads.stress import FAMILIES
from tests.reference_executor import ReferenceExecutor, reference_capture

RECORDS = 4096


def _programs():
    for name in sorted(spec2006_profiles()):
        profile = get_profile(name)
        yield pytest.param(build_program(profile), profile.mem_seed, id=name)
    for name, family in sorted(FAMILIES.items()):
        yield pytest.param(family.build(family.default), 0,
                           id=f"stress-{name}")


def _assert_same_state(executor, reference):
    assert executor.seq == reference.seq
    assert executor.pc == reference.pc
    assert executor.regs == reference.regs
    assert executor.memory.words() == reference.memory.words()


def _assert_capture_matches(program, mem_seed, length, skip, interval):
    trace = capture_trace(program, mem_seed, length, skip=skip,
                          checkpoint_interval=interval)
    inner = list(range(interval, length, interval)) if interval else []
    ref = reference_capture(program, mem_seed, length,
                            snapshot_at=inner + [skip])
    assert trace.pcs == ref.pcs
    assert trace.flags == ref.flags
    assert trace.mem_addrs == ref.mem_addrs
    if skip:
        assert trace.skip_checkpoint == ref.checkpoints[skip]
    assert trace.interval_checkpoints == tuple(
        ref.checkpoints[seq] for seq in inner)
    assert trace.end_checkpoint == ref.checkpoints[length]
    return trace


@pytest.mark.parametrize("program,mem_seed", _programs())
def test_step_matches_reference(program, mem_seed):
    executor = FunctionalExecutor(program, mem_seed=mem_seed)
    reference = ReferenceExecutor(program, mem_seed=mem_seed)
    for _ in range(RECORDS):
        assert executor.step() == reference.step()
        assert executor.regs == reference.regs
    _assert_same_state(executor, reference)


@pytest.mark.parametrize("program,mem_seed", _programs())
def test_capture_matches_reference(program, mem_seed):
    _assert_capture_matches(program, mem_seed, RECORDS, skip=1000,
                            interval=1024)


#: ``encode_trace(capture_trace(p, mem_seed, 12288, skip=4000))``
#: checksums recorded with the opcode-chain executor (format 3).
PINNED_CHECKSUMS = {
    "sjeng": "04a3910842a34045ec67841e73b05ee3d9b8087697cae9c4eb19f306d3934f2a",
    "mcf": "cc9fe3504a186f4274aa1f2fb462099bc6f8cc770acc2543f496802eefd895ad",
    "gcc": "d0eddc4c44bfb2e1d5cabaa9bae32fff0db91bb23ec8373a5513216d13900c89",
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECKSUMS))
def test_capture_checksum_pinned(name):
    profile = get_profile(name)
    program = build_program(profile)
    trace = _assert_capture_matches(program, profile.mem_seed, 12288,
                                    skip=4000, interval=8192)
    assert encode_trace(trace)["checksum"] == PINNED_CHECKSUMS[name]
    # Extension resumes from the end checkpoint and lands on the same
    # bytes as the one-pass capture.
    short = capture_trace(program, profile.mem_seed, 6000, skip=4000)
    grown = extend_trace(short, program, 12288)
    assert encode_trace(grown) == encode_trace(trace)


# ----------------------------------------------------------------------
# Random programs over every opcode
# ----------------------------------------------------------------------

#: Values the prefix loads into r1..r11: zero divisors, shift amounts
#: at and past 64, and both sides of the signed boundary at 2**63.
CORNER_VALUES = (0, 1, 63, 64, 65, 200, (1 << 63) - 1, 1 << 63,
                 (1 << 63) + 1, (1 << 64) - 2, (1 << 64) - 1)
#: Sources read the corner registers and the results; destinations are
#: r0, r12 and r13, so the corner values stay live for the whole run.
SOURCES = st.integers(min_value=0, max_value=len(CORNER_VALUES) + 2)
DESTS = st.sampled_from([0, len(CORNER_VALUES) + 1, len(CORNER_VALUES) + 2])
IMMS = st.one_of(
    st.sampled_from([0, -1, 1, -8, 64, -(1 << 63), (1 << 64) - 1]),
    st.integers(min_value=-(1 << 40), max_value=1 << 40))
_TWO_SOURCE_BRANCHES = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}


@st.composite
def every_opcode_programs(draw):
    """A program using every opcode at least once, after a prefix that
    loads :data:`CORNER_VALUES` into r1..r11.

    Branches mostly target their own fall-through, so every instruction
    runs on every pass through the program; the rest jump anywhere.
    """
    prefix = [StaticInst(4 * i, Opcode.MOVI, dest=i + 1, imm=value)
              for i, value in enumerate(CORNER_VALUES)]
    ops = draw(st.permutations(list(Opcode)))
    ops += draw(st.lists(st.sampled_from(list(Opcode)), max_size=12))
    count = len(prefix) + len(ops)
    insts = list(prefix)
    for op in ops:
        pc = 4 * len(insts)
        target = draw(st.one_of(
            st.just(pc + 4 if pc + 4 < 4 * count else 0),
            st.integers(min_value=0, max_value=count - 1).map(
                lambda i: 4 * i)))
        if op is Opcode.NOP:
            inst = StaticInst(pc, op)
        elif op is Opcode.JUMP:
            inst = StaticInst(pc, op, target=target)
        elif op in _TWO_SOURCE_BRANCHES:
            inst = StaticInst(pc, op, src1=draw(SOURCES),
                              src2=draw(SOURCES), target=target)
        elif op in (Opcode.BEQZ, Opcode.BNEZ):
            inst = StaticInst(pc, op, src1=draw(SOURCES), target=target)
        elif op is Opcode.STORE:
            inst = StaticInst(pc, op, src1=draw(SOURCES),
                              src2=draw(SOURCES), imm=draw(IMMS))
        else:
            inst = StaticInst(pc, op, dest=draw(DESTS), src1=draw(SOURCES),
                              src2=draw(SOURCES), imm=draw(IMMS))
        insts.append(inst)
    return Program("random", insts)


@given(every_opcode_programs(), st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_random_programs_match_reference(program, mem_seed):
    executor = FunctionalExecutor(program, mem_seed=mem_seed)
    reference = ReferenceExecutor(program, mem_seed=mem_seed)
    for _ in range(300):
        assert executor.step() == reference.step()
        assert executor.regs == reference.regs
    _assert_same_state(executor, reference)
    _assert_capture_matches(program, mem_seed, 300, skip=50, interval=64)


# ----------------------------------------------------------------------
# Executor state
# ----------------------------------------------------------------------

_LOOP = Program("loop", [
    StaticInst(0, Opcode.ADDI, dest=1, src1=1, imm=3),
    StaticInst(4, Opcode.STORE, src1=1, src2=2, imm=8),
    StaticInst(8, Opcode.LOAD, dest=3, src1=2, imm=8),
    StaticInst(12, Opcode.JUMP, target=0),
])


@pytest.mark.parametrize("pc", [2, -4, 16, 1 << 20],
                         ids=["misaligned", "negative", "past-end", "far"])
def test_from_state_rejects_pc_outside_program(pc):
    with pytest.raises(ValueError, match=f"{pc:#x}"):
        FunctionalExecutor.from_state(_LOOP, 0, [0] * 64, pc, 0, {})


def test_replaced_state_is_what_runs():
    """Closures read the executor's current register list and memory
    words, so state swapped in after construction takes effect."""
    executor = FunctionalExecutor(_LOOP)
    executor.regs = [0] * 64
    executor.regs[1] = 100
    executor.memory._words = {}
    executor.run(3)
    assert executor.regs[1] == 103
    assert executor.regs[3] == 103
    assert executor.memory.words() == {8: 103}


def test_step_raw_leaves_the_state_step_would():
    raw = FunctionalExecutor(_LOOP)
    stepped = FunctionalExecutor(_LOOP)
    for _ in range(9):
        pc, next_pc, taken, mem_addr = raw.step_raw()
        record = stepped.step()
        assert (pc, next_pc, taken, mem_addr) == (
            record.inst.pc, record.next_pc, record.taken, record.mem_addr)
        assert (raw.pc, raw.seq) == (stepped.pc, stepped.seq)
