"""Opcodes, function-unit classes, and execution latencies.

The ISA is a small load/store register machine, rich enough to express the
workloads the paper evaluates: integer ALU chains, multiplies/divides,
loads/stores, floating-point arithmetic, and conditional branches whose
outcome depends on computed register values (so branch slices are real
dataflow, not annotations).

Latencies follow common SimpleScalar-era defaults; the function-unit mix the
timing model enforces (2 iALU, 1 iMULT/DIV, 2 Ld/St, 2 FPU) comes from the
paper's Table I (ARM Cortex-A72-like).
"""

from __future__ import annotations

import enum


class FuClass(enum.IntEnum):
    """Function-unit class an opcode issues to (Table I's FU mix)."""

    IALU = 0  #: integer ALU; also executes branches
    IMULT = 1  #: integer multiply/divide
    LDST = 2  #: load/store port (address generation + cache access)
    FPU = 3  #: floating-point unit


class Opcode(enum.IntEnum):
    """All opcodes of the reproduction ISA."""

    NOP = 0
    # Integer register-register / register-immediate.
    MOVI = 1  # dest <- imm
    ADD = 2
    SUB = 3
    AND = 4
    OR = 5
    XOR = 6
    SHL = 7
    SHR = 8
    ADDI = 9
    SUBI = 10
    ANDI = 11
    XORI = 12
    MUL = 13
    DIV = 14
    # Memory.
    LOAD = 15  # dest <- mem[src1 + imm]
    STORE = 16  # mem[src2 + imm] <- src1
    # Floating point (modeled on 64-bit integer payloads; the timing model
    # only cares about the FU class and latency).
    FADD = 17
    FSUB = 18
    FMUL = 19
    FDIV = 20
    FMOVI = 21
    # Control flow.  Conditional branches test register values; JUMP is
    # unconditional direct.
    BEQ = 22  # taken iff src1 == src2
    BNE = 23
    BLT = 24  # signed less-than
    BGE = 25
    BEQZ = 26  # taken iff src1 == 0
    BNEZ = 27
    JUMP = 28


_CONDITIONAL_BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BEQZ, Opcode.BNEZ}
)
_BRANCHES = _CONDITIONAL_BRANCHES | {Opcode.JUMP}
_LOADS = frozenset({Opcode.LOAD})
_STORES = frozenset({Opcode.STORE})
_MEMORY = _LOADS | _STORES

_FU_CLASS = {
    Opcode.NOP: FuClass.IALU,
    Opcode.MOVI: FuClass.IALU,
    Opcode.ADD: FuClass.IALU,
    Opcode.SUB: FuClass.IALU,
    Opcode.AND: FuClass.IALU,
    Opcode.OR: FuClass.IALU,
    Opcode.XOR: FuClass.IALU,
    Opcode.SHL: FuClass.IALU,
    Opcode.SHR: FuClass.IALU,
    Opcode.ADDI: FuClass.IALU,
    Opcode.SUBI: FuClass.IALU,
    Opcode.ANDI: FuClass.IALU,
    Opcode.XORI: FuClass.IALU,
    Opcode.MUL: FuClass.IMULT,
    Opcode.DIV: FuClass.IMULT,
    Opcode.LOAD: FuClass.LDST,
    Opcode.STORE: FuClass.LDST,
    Opcode.FADD: FuClass.FPU,
    Opcode.FSUB: FuClass.FPU,
    Opcode.FMUL: FuClass.FPU,
    Opcode.FDIV: FuClass.FPU,
    Opcode.FMOVI: FuClass.FPU,
    Opcode.BEQ: FuClass.IALU,
    Opcode.BNE: FuClass.IALU,
    Opcode.BLT: FuClass.IALU,
    Opcode.BGE: FuClass.IALU,
    Opcode.BEQZ: FuClass.IALU,
    Opcode.BNEZ: FuClass.IALU,
    Opcode.JUMP: FuClass.IALU,
}

#: Execution latency in cycles once issued (loads add cache access time on
#: top of this address-generation cycle).
_LATENCY = {
    Opcode.MUL: 3,
    Opcode.DIV: 12,
    Opcode.FADD: 3,
    Opcode.FSUB: 3,
    Opcode.FMUL: 4,
    Opcode.FDIV: 12,
    Opcode.FMOVI: 1,
}


def is_branch(op: Opcode) -> bool:
    """True for all control-transfer opcodes (conditional and JUMP)."""
    return op in _BRANCHES


def is_conditional_branch(op: Opcode) -> bool:
    """True for conditional branches only (the ones PUBS cares about)."""
    return op in _CONDITIONAL_BRANCHES


def is_load(op: Opcode) -> bool:
    return op in _LOADS


def is_store(op: Opcode) -> bool:
    return op in _STORES


def is_mem(op: Opcode) -> bool:
    return op in _MEMORY


def fu_class(op: Opcode) -> FuClass:
    """The function-unit class ``op`` issues to."""
    return _FU_CLASS[op]


def latency(op: Opcode) -> int:
    """Base execution latency of ``op`` in cycles (1 unless overridden)."""
    return _LATENCY.get(op, 1)
