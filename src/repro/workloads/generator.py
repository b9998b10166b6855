"""Synthetic benchmark program generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into an actual
:class:`~repro.isa.instruction.Program`: one infinite outer loop whose body
contains, per iteration,

* an LCG update producing fresh pseudo-random state (real dataflow: the
  multiply/add chain becomes part of every hard branch's slice),
* ``hard_branch_sites`` data-dependent branches, each fed by a load from
  the branch-data region through a ``slice_depth`` ALU chain,
* ``predictable_branch_sites`` periodic branches on the loop counter,
* independent random loads, unit-stride streaming loads, a serialized
  pointer chase, and stores, each in its own region of the address space,
* independent ALU / multiply / FP filler (computation-slice work).

Register convention: r1 loop counter, r2 LCG state, r3 memory base, r4
stream offset, r5 pointer-chase state, r6 LCG multiplier; r16..r30 rotate
as temporaries; f0..f11 hold FP filler state.

All data regions are disjoint (branch data, random, streaming, pointer,
store), so store traffic never perturbs branch entropy, and region sizes
are the power-of-two footprints from the profile.
"""

from __future__ import annotations

import functools
from typing import List

from ..isa.instruction import Program, ProgramBuilder
from ..isa.opcodes import Opcode
from ..isa.registers import fp_reg, int_reg
from .profiles import WorkloadProfile

#: Virtual base address of the data segment.
_BASE_ADDR = 1 << 30
#: LCG constants (64-bit MMIX-style).
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407

_R_COUNTER = int_reg(1)
_R_LCG = int_reg(2)
_R_BASE = int_reg(3)
_R_STREAM = int_reg(4)
_R_CHASE = int_reg(5)
_R_LCG_MULT = int_reg(6)

_TEMP_FIRST, _TEMP_LAST = 16, 30


class _TempPool:
    """Rotating pool of temporary integer registers."""

    def __init__(self) -> None:
        self._next = _TEMP_FIRST

    def take(self) -> int:
        reg = int_reg(self._next)
        self._next += 1
        if self._next > _TEMP_LAST:
            self._next = _TEMP_FIRST
        return reg


def _aligned_mask(size: int) -> int:
    """Mask selecting an 8-byte-aligned offset within a power-of-two region."""
    return (size - 1) & ~7


@functools.lru_cache(maxsize=256)
def build_program(profile: WorkloadProfile) -> Program:
    """Generate the synthetic program for ``profile``.

    Memoized per profile: a :class:`Program` is an immutable value, so
    every run of a workload shares one build -- and with it the
    fingerprint :func:`~repro.trace.store.program_fingerprint` memoizes
    on the program -- instead of regenerating and re-hashing it.
    """
    b = ProgramBuilder(profile.name)
    temps = _TempPool()

    # Region layout (byte offsets from _BASE_ADDR).
    branch_off = 0
    random_off = profile.branch_data_bytes
    stream_off = random_off + profile.data_footprint_bytes
    chase_off = stream_off + profile.data_footprint_bytes
    store_off = chase_off + profile.data_footprint_bytes
    cold_off = store_off + 16 * 1024 * 1024
    cold_bytes = 64 * 1024 * 1024  # always-cold region for periodic misses

    # ------------------------------------------------------------------
    # One-time initialization
    # ------------------------------------------------------------------
    b.emit(Opcode.MOVI, dest=_R_COUNTER, imm=0)
    b.emit(Opcode.MOVI, dest=_R_LCG, imm=0x243F6A8885A308D3 + profile.mem_seed)
    b.emit(Opcode.MOVI, dest=_R_BASE, imm=_BASE_ADDR)
    b.emit(Opcode.MOVI, dest=_R_STREAM, imm=0)
    b.emit(Opcode.MOVI, dest=_R_CHASE, imm=0)
    b.emit(Opcode.MOVI, dest=_R_LCG_MULT, imm=_LCG_MULT)
    for f in range(12):
        b.emit(Opcode.FMOVI, dest=fp_reg(f), imm=0x9E3779B9 * (f + 1))

    b.mark_label("loop")

    # ------------------------------------------------------------------
    # Fresh pseudo-random state for this iteration
    # ------------------------------------------------------------------
    b.emit(Opcode.MUL, dest=_R_LCG, src1=_R_LCG, src2=_R_LCG_MULT)
    b.emit(Opcode.ADDI, dest=_R_LCG, src1=_R_LCG, imm=_LCG_INC)

    filler_counter = 0

    def emit_filler(count: int, chain: int = 1) -> None:
        """Independent work; ``chain`` > 1 links it into dependent runs."""
        nonlocal filler_counter
        t = None
        for i in range(count):
            if chain <= 1 or i % chain == 0:
                t = temps.take()
                src = _R_COUNTER
            else:
                src = t
            b.emit(Opcode.ADDI, dest=t, src1=src,
                   imm=0x1234 + filler_counter)
            filler_counter += 1

    # ------------------------------------------------------------------
    # Hard (data-dependent) branches with their slices
    # ------------------------------------------------------------------
    for site in range(profile.hard_branch_sites):
        addr = temps.take()
        val = temps.take()
        cond = temps.take()
        b.emit(Opcode.XORI, dest=addr, src1=_R_LCG,
               imm=0x9E3779B97F4A7C15 * (site + 1))
        b.emit(Opcode.ANDI, dest=addr, src1=addr,
               imm=_aligned_mask(profile.branch_data_bytes))
        b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
        b.emit(Opcode.LOAD, dest=val, src1=addr, imm=branch_off)
        for d in range(profile.slice_depth):
            op = Opcode.XORI if d % 2 else Opcode.ADDI
            b.emit(op, dest=val, src1=val, imm=0x5DEECE66D + d)
        b.emit(Opcode.ANDI, dest=cond, src1=val,
               imm=(1 << profile.hard_branch_bias_bits) - 1)
        label = f"hard_{site}"
        b.emit(Opcode.BEQZ, src1=cond, target_label=label)
        emit_filler(2)  # conditionally-skipped work
        b.mark_label(label)

    # ------------------------------------------------------------------
    # Predictable (periodic) branches
    # ------------------------------------------------------------------
    for site in range(profile.predictable_branch_sites):
        cond = temps.take()
        b.emit(Opcode.ANDI, dest=cond, src1=_R_COUNTER,
               imm=profile.predictable_period - 1)
        label = f"pred_{site}"
        b.emit(Opcode.BNEZ, src1=cond, target_label=label)
        emit_filler(2)
        b.mark_label(label)

    # ------------------------------------------------------------------
    # Independent random loads (MLP / LLC pressure)
    # ------------------------------------------------------------------
    for site in range(profile.random_loads):
        addr = temps.take()
        val = temps.take()
        b.emit(Opcode.XORI, dest=addr, src1=_R_LCG,
               imm=0xBF58476D1CE4E5B9 * (site + 3))
        b.emit(Opcode.ANDI, dest=addr, src1=addr,
               imm=_aligned_mask(profile.data_footprint_bytes))
        b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
        b.emit(Opcode.LOAD, dest=val, src1=addr, imm=random_off)

    # ------------------------------------------------------------------
    # Streaming loads (one shared advancing offset; sites spaced apart so
    # each forms its own unit-stride stream)
    # ------------------------------------------------------------------
    if profile.streaming_loads:
        b.emit(Opcode.ADDI, dest=_R_STREAM, src1=_R_STREAM, imm=64)
        b.emit(Opcode.ANDI, dest=_R_STREAM, src1=_R_STREAM,
               imm=_aligned_mask(profile.data_footprint_bytes))
        spacing = profile.data_footprint_bytes // max(1, profile.streaming_loads)
        spacing &= ~63
        for site in range(profile.streaming_loads):
            addr = temps.take()
            val = temps.take()
            b.emit(Opcode.ADD, dest=addr, src1=_R_STREAM, src2=_R_BASE)
            b.emit(Opcode.LOAD, dest=val, src1=addr,
                   imm=stream_off + site * spacing)

    # ------------------------------------------------------------------
    # Pointer chasing (serialized loads: r5 <- mem[f(r5)])
    # ------------------------------------------------------------------
    for _ in range(profile.pointer_chase_loads):
        addr = temps.take()
        b.emit(Opcode.ANDI, dest=addr, src1=_R_CHASE,
               imm=_aligned_mask(profile.data_footprint_bytes))
        b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
        b.emit(Opcode.LOAD, dest=_R_CHASE, src1=addr, imm=chase_off)

    # ------------------------------------------------------------------
    # Periodic cold loads (every cold_period-th iteration, guarded by a
    # predictable branch): fractional LLC misses per iteration
    # ------------------------------------------------------------------
    if profile.periodic_cold_loads:
        guard = temps.take()
        b.emit(Opcode.ANDI, dest=guard, src1=_R_COUNTER,
               imm=profile.cold_period - 1)
        b.emit(Opcode.BNEZ, src1=guard, target_label="cold_skip")
        for site in range(profile.periodic_cold_loads):
            addr = temps.take()
            val = temps.take()
            b.emit(Opcode.XORI, dest=addr, src1=_R_LCG,
                   imm=0x94D049BB133111EB * (site + 5))
            b.emit(Opcode.ANDI, dest=addr, src1=addr,
                   imm=_aligned_mask(cold_bytes))
            b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
            b.emit(Opcode.LOAD, dest=val, src1=addr, imm=cold_off)
        b.mark_label("cold_skip")

    # ------------------------------------------------------------------
    # Stores (to their own region; strided by the loop counter)
    # ------------------------------------------------------------------
    for site in range(profile.store_sites):
        addr = temps.take()
        b.emit(Opcode.ANDI, dest=addr, src1=_R_COUNTER,
               imm=_aligned_mask(64 * 1024) >> 3 << 3)
        b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
        b.emit(Opcode.STORE, src1=_R_COUNTER, src2=addr,
               imm=store_off + site * 64 * 1024)

    # ------------------------------------------------------------------
    # Filler: independent integer / multiply / FP work
    # ------------------------------------------------------------------
    emit_filler(profile.filler_alu, chain=profile.filler_chain)
    for site in range(profile.filler_mul):
        t = temps.take()
        b.emit(Opcode.MUL, dest=t, src1=_R_COUNTER, src2=_R_LCG_MULT)
    for site in range(profile.filler_fp):
        dest = fp_reg(site % 6)
        a = fp_reg(6 + site % 3)
        bb = fp_reg(9 + site % 3)
        op = Opcode.FMUL if site % 3 == 2 else Opcode.FADD
        b.emit(op, dest=dest, src1=a, src2=bb)

    # ------------------------------------------------------------------
    # Loop back
    # ------------------------------------------------------------------
    b.emit(Opcode.ADDI, dest=_R_COUNTER, src1=_R_COUNTER, imm=1)
    b.emit(Opcode.JUMP, target_label="loop")

    warm_regions = [
        (_BASE_ADDR + branch_off, profile.branch_data_bytes),
        (_BASE_ADDR + random_off, profile.data_footprint_bytes),
    ]
    if profile.streaming_loads:
        warm_regions.append((_BASE_ADDR + stream_off, profile.data_footprint_bytes))
    if profile.pointer_chase_loads:
        warm_regions.append((_BASE_ADDR + chase_off, profile.data_footprint_bytes))
    return b.build(warm_regions=warm_regions)


def build_all(profiles=None) -> "dict[str, Program]":
    """Build programs for a profile collection (defaults to all 28)."""
    from .profiles import spec2006_profiles

    profiles = profiles or spec2006_profiles()
    return {name: build_program(p) for name, p in profiles.items()}
