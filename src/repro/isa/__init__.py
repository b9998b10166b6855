"""Instruction set architecture of the reproduction.

Public surface: opcodes and their properties, the register file layout,
static instructions / programs / the program builder, and the functional
executor that generates architectural traces for the timing model.
"""

from .executor import (
    DynamicOp,
    FunctionalExecutor,
    SparseMemory,
    mix64,
    to_signed,
)
from .instruction import INST_BYTES, Program, ProgramBuilder, StaticInst
from .opcodes import (
    FuClass,
    Opcode,
    fu_class,
    is_branch,
    is_conditional_branch,
    is_load,
    is_mem,
    is_store,
    latency,
)
from .registers import (
    FP_BASE,
    NUM_FP_REGS,
    NUM_INT_REGS,
    NUM_LOGICAL_REGS,
    fp_reg,
    int_reg,
    is_fp_reg,
    reg_name,
)

__all__ = [
    "DynamicOp",
    "FunctionalExecutor",
    "SparseMemory",
    "mix64",
    "to_signed",
    "INST_BYTES",
    "Program",
    "ProgramBuilder",
    "StaticInst",
    "FuClass",
    "Opcode",
    "fu_class",
    "is_branch",
    "is_conditional_branch",
    "is_load",
    "is_mem",
    "is_store",
    "latency",
    "FP_BASE",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "NUM_LOGICAL_REGS",
    "fp_reg",
    "int_reg",
    "is_fp_reg",
    "reg_name",
]
