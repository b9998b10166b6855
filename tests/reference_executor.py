"""The reference stepper: the ISA's semantics as one opcode chain.

:class:`~repro.isa.executor.FunctionalExecutor` compiles each static
instruction into a closure.  This module keeps the straightforward
``if op is Opcode.X`` interpretation it replaced, so tests can require
the compiled executor -- and every trace captured with it -- to match
it record for record.  :func:`reference_capture` records a trace the
way capture did before: one :class:`~repro.isa.executor.DynamicOp` per
record, unpacked into the arrays (an address only for a memory record).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.isa import (
    NUM_LOGICAL_REGS,
    DynamicOp,
    Opcode,
    Program,
    SparseMemory,
    to_signed,
)
from repro.trace.format import (
    FLAG_COND_BRANCH,
    FLAG_MEM,
    FLAG_TAKEN,
    ArchCheckpoint,
)

_MASK64 = (1 << 64) - 1
_ADDR_MASK = (1 << 48) - 8


class ReferenceExecutor:
    """Steps a program by testing its opcode against every case in turn.

    Exposes the state :meth:`ArchCheckpoint.of` snapshots (``seq``,
    ``pc``, ``regs``, ``memory``), so checkpoints compare directly.
    """

    def __init__(self, program: Program, mem_seed: int = 0):
        self.program = program
        self.regs: List[int] = [0] * NUM_LOGICAL_REGS
        self.memory = SparseMemory(seed=mem_seed)
        self.pc = program.entry_pc
        self.seq = 0

    def step(self) -> DynamicOp:
        inst = self.program.at(self.pc)
        regs = self.regs
        op = inst.opcode
        taken = False
        mem_addr: Optional[int] = None
        next_pc = self.pc + 4
        if not self.program.contains(next_pc):
            next_pc = self.program.entry_pc

        if op is Opcode.NOP:
            pass
        elif op is Opcode.MOVI or op is Opcode.FMOVI:
            regs[inst.dest] = inst.imm & _MASK64
        elif op is Opcode.ADD or op is Opcode.FADD:
            regs[inst.dest] = (regs[inst.src1] + regs[inst.src2]) & _MASK64
        elif op is Opcode.SUB or op is Opcode.FSUB:
            regs[inst.dest] = (regs[inst.src1] - regs[inst.src2]) & _MASK64
        elif op is Opcode.AND:
            regs[inst.dest] = regs[inst.src1] & regs[inst.src2]
        elif op is Opcode.OR:
            regs[inst.dest] = regs[inst.src1] | regs[inst.src2]
        elif op is Opcode.XOR:
            regs[inst.dest] = regs[inst.src1] ^ regs[inst.src2]
        elif op is Opcode.SHL:
            regs[inst.dest] = (regs[inst.src1] << (regs[inst.src2] & 63)) & _MASK64
        elif op is Opcode.SHR:
            regs[inst.dest] = regs[inst.src1] >> (regs[inst.src2] & 63)
        elif op is Opcode.ADDI:
            regs[inst.dest] = (regs[inst.src1] + inst.imm) & _MASK64
        elif op is Opcode.SUBI:
            regs[inst.dest] = (regs[inst.src1] - inst.imm) & _MASK64
        elif op is Opcode.ANDI:
            regs[inst.dest] = regs[inst.src1] & (inst.imm & _MASK64)
        elif op is Opcode.XORI:
            regs[inst.dest] = regs[inst.src1] ^ (inst.imm & _MASK64)
        elif op is Opcode.MUL or op is Opcode.FMUL:
            regs[inst.dest] = (regs[inst.src1] * regs[inst.src2]) & _MASK64
        elif op is Opcode.DIV or op is Opcode.FDIV:
            divisor = regs[inst.src2]
            regs[inst.dest] = regs[inst.src1] // divisor if divisor else 0
        elif op is Opcode.LOAD:
            mem_addr = (regs[inst.src1] + inst.imm) & _ADDR_MASK
            regs[inst.dest] = self.memory.read(mem_addr)
        elif op is Opcode.STORE:
            mem_addr = (regs[inst.src2] + inst.imm) & _ADDR_MASK
            self.memory.write(mem_addr, regs[inst.src1])
        elif op is Opcode.JUMP:
            taken = True
            next_pc = inst.target
        elif op is Opcode.BEQ:
            taken = regs[inst.src1] == regs[inst.src2]
        elif op is Opcode.BNE:
            taken = regs[inst.src1] != regs[inst.src2]
        elif op is Opcode.BLT:
            taken = to_signed(regs[inst.src1]) < to_signed(regs[inst.src2])
        elif op is Opcode.BGE:
            taken = to_signed(regs[inst.src1]) >= to_signed(regs[inst.src2])
        elif op is Opcode.BEQZ:
            taken = regs[inst.src1] == 0
        elif op is Opcode.BNEZ:
            taken = regs[inst.src1] != 0
        else:
            raise NotImplementedError(op)

        if inst.is_conditional_branch and taken:
            next_pc = inst.target

        record = DynamicOp(self.seq, inst, taken, next_pc, mem_addr)
        self.seq += 1
        self.pc = next_pc
        return record


class ReferenceTrace:
    """What :func:`reference_capture` recorded: arrays and checkpoints."""

    def __init__(self):
        self.pcs = array("I")
        self.flags = bytearray()
        self.mem_addrs = array("Q")
        #: Architectural state by sequence number.
        self.checkpoints: Dict[int, ArchCheckpoint] = {}


def reference_capture(program: Program, mem_seed: int, length: int,
                      snapshot_at=()) -> ReferenceTrace:
    """Record ``length`` records with :class:`ReferenceExecutor`.

    The state is snapshotted before each sequence number in
    ``snapshot_at`` and at the end.
    """
    executor = ReferenceExecutor(program, mem_seed)
    out = ReferenceTrace()
    points = set(snapshot_at) | {length}
    while True:
        if executor.seq in points:
            out.checkpoints[executor.seq] = ArchCheckpoint.of(executor)
        if executor.seq == length:
            return out
        record = executor.step()
        inst = record.inst
        f = 0
        if record.taken:
            f |= FLAG_TAKEN
        if inst.is_conditional_branch:
            f |= FLAG_COND_BRANCH
        if record.mem_addr is not None:
            f |= FLAG_MEM
            out.mem_addrs.append(record.mem_addr)
        out.pcs.append(inst.pc)
        out.flags.append(f)
