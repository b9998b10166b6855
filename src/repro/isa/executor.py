"""Functional (architectural) execution of programs.

The timing simulator in :mod:`repro.core` is trace-driven on the correct
path: a :class:`FunctionalExecutor` runs the program architecturally and
produces the true dynamic instruction stream (branch outcomes, memory
addresses), which trace capture records for replay and the verification
oracle re-executes independently.  Wrong-path instructions are fetched from the static code by the
timing model itself and never touch architectural state, exactly as in a
conventional oracle-assisted simulator.

Each executor compiles its program once into one closure per static
instruction (:func:`_compile_inst`, the single definition of the ISA's
semantics); :meth:`FunctionalExecutor.step` and trace capture both run
them.

Memory is sparse and word-addressed; unwritten locations read a deterministic
hash of their address, so pointer-chasing workloads see stable but
effectively random data without materializing gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .instruction import Program, StaticInst
from .opcodes import Opcode
from .registers import NUM_LOGICAL_REGS

_MASK64 = (1 << 64) - 1
_SIGN = 1 << 63
#: Addresses are confined to 48 bits and 8-byte aligned.
_ADDR_MASK = (1 << 48) - 8

#: A compiled instruction: ``run(regs) -> (next_pc, taken, mem_addr)``.
_Op = Callable[[List[int]], Tuple[int, bool, Optional[int]]]


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


def _compile_inst(inst: StaticInst, fall: int, read, write) -> _Op:
    """The closure executing ``inst``: ``run(regs) -> (next_pc, taken,
    mem_addr)``.

    Operand registers, the immediate, the fall-through PC ``fall`` and
    the branch target are closure variables; the register file is an
    argument.  Results without a memory address are built once here.
    Register values are 64-bit unsigned, so a signed compare flips the
    sign bit and compares unsigned.
    """
    op = inst.opcode
    d, a, b, imm = inst.dest, inst.src1, inst.src2, inst.imm
    uimm = imm & _MASK64  # MOVI, ANDI and XORI take it unsigned
    nxt = (fall, False, None)
    jmp = (inst.target, True, None)

    if op is Opcode.NOP:
        def run(regs):
            return nxt
    elif op is Opcode.MOVI or op is Opcode.FMOVI:
        def run(regs):
            regs[d] = uimm
            return nxt
    elif op is Opcode.ADD or op is Opcode.FADD:
        def run(regs):
            regs[d] = (regs[a] + regs[b]) & _MASK64
            return nxt
    elif op is Opcode.SUB or op is Opcode.FSUB:
        def run(regs):
            regs[d] = (regs[a] - regs[b]) & _MASK64
            return nxt
    elif op is Opcode.AND:
        def run(regs):
            regs[d] = regs[a] & regs[b]
            return nxt
    elif op is Opcode.OR:
        def run(regs):
            regs[d] = regs[a] | regs[b]
            return nxt
    elif op is Opcode.XOR:
        def run(regs):
            regs[d] = regs[a] ^ regs[b]
            return nxt
    elif op is Opcode.SHL:
        def run(regs):
            regs[d] = (regs[a] << (regs[b] & 63)) & _MASK64
            return nxt
    elif op is Opcode.SHR:
        def run(regs):
            regs[d] = regs[a] >> (regs[b] & 63)
            return nxt
    elif op is Opcode.ADDI:
        def run(regs):
            regs[d] = (regs[a] + imm) & _MASK64
            return nxt
    elif op is Opcode.SUBI:
        def run(regs):
            regs[d] = (regs[a] - imm) & _MASK64
            return nxt
    elif op is Opcode.ANDI:
        def run(regs):
            regs[d] = regs[a] & uimm
            return nxt
    elif op is Opcode.XORI:
        def run(regs):
            regs[d] = regs[a] ^ uimm
            return nxt
    elif op is Opcode.MUL or op is Opcode.FMUL:
        def run(regs):
            regs[d] = (regs[a] * regs[b]) & _MASK64
            return nxt
    elif op is Opcode.DIV or op is Opcode.FDIV:
        def run(regs):
            divisor = regs[b]
            regs[d] = regs[a] // divisor if divisor else 0
            return nxt
    elif op is Opcode.LOAD:
        def run(regs):
            addr = (regs[a] + imm) & _ADDR_MASK
            regs[d] = read(addr)
            return fall, False, addr
    elif op is Opcode.STORE:
        def run(regs):
            addr = (regs[b] + imm) & _ADDR_MASK
            write(addr, regs[a])
            return fall, False, addr
    elif op is Opcode.JUMP:
        def run(regs):
            return jmp
    elif op is Opcode.BEQ:
        def run(regs):
            return jmp if regs[a] == regs[b] else nxt
    elif op is Opcode.BNE:
        def run(regs):
            return jmp if regs[a] != regs[b] else nxt
    elif op is Opcode.BLT:
        def run(regs):
            return jmp if regs[a] ^ _SIGN < regs[b] ^ _SIGN else nxt
    elif op is Opcode.BGE:
        def run(regs):
            return jmp if regs[a] ^ _SIGN >= regs[b] ^ _SIGN else nxt
    elif op is Opcode.BEQZ:
        def run(regs):
            return nxt if regs[a] else jmp
    elif op is Opcode.BNEZ:
        def run(regs):
            return jmp if regs[a] else nxt
    else:  # pragma: no cover - enum is exhaustive
        raise NotImplementedError(op)
    return run


class FunctionalExecutor:
    """Steps a :class:`Program` architecturally, yielding the true trace.

    Construction compiles the program into one closure per static
    instruction (:func:`_compile_inst`); :meth:`step_raw` runs the one at
    the current PC.  The closures hold this executor's
    :class:`SparseMemory` ``read``/``write`` methods and take the
    register file as an argument, so ``regs`` and ``memory._words`` may
    be replaced after construction (as :meth:`from_state` does) but
    ``memory`` itself must not be rebound.  For the same reason an
    executor cannot be pickled, and must not be deep-copied (the copy's
    closures would still write the original's memory); copy its state
    into a new executor instead.
    """

    def __init__(self, program: Program, mem_seed: int = 0):
        self.program = program
        self.regs: List[int] = [0] * NUM_LOGICAL_REGS
        self.memory = SparseMemory(seed=mem_seed)
        self.pc = program.entry_pc
        self._seq = 0
        read, write = self.memory.read, self.memory.write
        #: One closure per static instruction, in PC order.
        self._ops: List[_Op] = [
            _compile_inst(inst, program.next_pc(inst.pc), read, write)
            for inst in program.insts]

    @classmethod
    def from_state(cls, program: Program, mem_seed: int,
                   regs: "Iterable[int]", pc: int, seq: int,
                   mem_words: Dict[int, int]) -> "FunctionalExecutor":
        """An executor resumed mid-stream from a captured state.

        Execution is deterministic, so an executor restored from the state
        after record ``seq`` produces exactly the records a fresh executor
        would produce from that point on (this is what makes architectural
        checkpoints and trace extension sound).  Raises ``ValueError``
        when ``pc`` is not one of the program's instructions.
        """
        if not program.contains(pc):
            raise ValueError(
                f"pc {pc:#x} is not an instruction of program "
                f"{program.name!r}")
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

    def step_raw(self) -> Tuple[int, int, bool, Optional[int]]:
        """Execute one instruction; return ``(pc, next_pc, taken,
        mem_addr)`` without building a :class:`DynamicOp`."""
        pc = self.pc
        # Instruction i sits at pc 4*i (Program checks it on construction).
        next_pc, taken, mem_addr = self._ops[pc >> 2](self.regs)
        self.pc = next_pc
        self._seq += 1
        return pc, next_pc, taken, mem_addr

    def step(self) -> DynamicOp:
        """Execute one instruction and return its trace record."""
        seq = self._seq
        pc, next_pc, taken, mem_addr = self.step_raw()
        return DynamicOp(seq, self.program.insts[pc >> 2], taken, next_pc,
                         mem_addr)

    def run(self, count: int) -> List[DynamicOp]:
        """Execute ``count`` instructions and return their records."""
        return [self.step() for _ in range(count)]
