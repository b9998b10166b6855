"""Functional (architectural) execution of programs.

The timing simulator in :mod:`repro.core` is trace-driven on the correct
path: a :class:`FunctionalExecutor` runs the program architecturally and
produces the true dynamic instruction stream (branch outcomes, memory
addresses), which trace capture records for replay and the verification
oracle re-executes independently.  Wrong-path instructions are fetched from the static code by the
timing model itself and never touch architectural state, exactly as in a
conventional oracle-assisted simulator.

Memory is sparse and word-addressed; unwritten locations read a deterministic
hash of their address, so pointer-chasing workloads see stable but
effectively random data without materializing gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from .instruction import Program, StaticInst
from .opcodes import Opcode
from .registers import NUM_LOGICAL_REGS

_MASK64 = (1 << 64) - 1
#: Addresses are confined to 48 bits and 8-byte aligned.
_ADDR_MASK = (1 << 48) - 8


def mix64(x: int) -> int:
    """Deterministic 64-bit mixer (splitmix64 finalizer).

    Used both as the default content of unwritten memory and by workload
    generators that need reproducible pseudo-random data values.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def to_signed(x: int) -> int:
    """Interpret a 64-bit unsigned value as signed."""
    return x - (1 << 64) if x >= (1 << 63) else x


class SparseMemory:
    """Word-granular (8-byte) sparse memory with deterministic defaults."""

    def __init__(self, seed: int = 0):
        self._seed = seed & _MASK64
        self._words: Dict[int, int] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def words(self) -> Dict[int, int]:
        """Snapshot of every word ever written (verification/state diffing)."""
        return dict(self._words)

    def read(self, addr: int) -> int:
        addr &= _ADDR_MASK
        word = self._words.get(addr)
        if word is None:
            return mix64(addr ^ self._seed)
        return word

    def write(self, addr: int, value: int) -> None:
        self._words[addr & _ADDR_MASK] = value & _MASK64

    def __len__(self) -> int:
        """Number of words ever written."""
        return len(self._words)


@dataclass
class DynamicOp:
    """One architecturally-executed instruction (a trace record)."""

    __slots__ = ("seq", "inst", "taken", "next_pc", "mem_addr")

    seq: int  #: dynamic sequence number, 0-based
    inst: StaticInst
    taken: bool  #: branch outcome (False for non-branches)
    next_pc: int  #: architectural successor PC
    mem_addr: Optional[int]  #: effective address of loads/stores, else None


class FunctionalExecutor:
    """Steps a :class:`Program` architecturally, yielding the true trace."""

    def __init__(self, program: Program, mem_seed: int = 0):
        self.program = program
        self.regs: List[int] = [0] * NUM_LOGICAL_REGS
        self.memory = SparseMemory(seed=mem_seed)
        self.pc = program.entry_pc
        self._seq = 0

    @classmethod
    def from_state(cls, program: Program, mem_seed: int,
                   regs: "Iterable[int]", pc: int, seq: int,
                   mem_words: Dict[int, int]) -> "FunctionalExecutor":
        """An executor resumed mid-stream from a captured state.

        Execution is deterministic, so an executor restored from the state
        after record ``seq`` produces exactly the records a fresh executor
        would produce from that point on (this is what makes architectural
        checkpoints and trace extension sound).
        """
        executor = cls(program, mem_seed=mem_seed)
        executor.regs[:] = regs
        executor.pc = pc
        executor._seq = seq
        executor.memory._words = dict(mem_words)
        return executor

    @property
    def seq(self) -> int:
        """Dynamic sequence number of the *next* instruction to execute."""
        return self._seq

    def step(self) -> DynamicOp:
        """Execute one instruction and return its trace record."""
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
        else:  # pragma: no cover - enum is exhaustive
            raise NotImplementedError(op)

        if inst.is_conditional_branch and taken:
            next_pc = inst.target

        record = DynamicOp(self._seq, inst, taken, next_pc, mem_addr)
        self._seq += 1
        self.pc = next_pc
        return record

    def run(self, count: int) -> List[DynamicOp]:
        """Execute ``count`` instructions and return their records."""
        return [self.step() for _ in range(count)]

    def trace(self) -> Iterator[DynamicOp]:
        """Endless iterator over the dynamic instruction stream."""
        while True:
            yield self.step()

