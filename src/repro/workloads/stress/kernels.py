"""Per-resource stress kernels (ustress-style microbenchmark generators).

Each builder turns one knob value into a :class:`~repro.isa.instruction.
Program` that hammers exactly one CPU resource, so the family's
:class:`~repro.workloads.stress.assertions.ExpectedBottleneck` contract can
assert that the simulator's bottleneck moves where microarchitecture theory
says it must.  The kernels reuse the synthetic-workload idiom
(:mod:`repro.workloads.generator`): an infinite outer loop, an LCG for real
data-dependent entropy, disjoint power-of-two data regions, rotating
temporary registers.

Two families model resources the ISA cannot express directly:

* ``branch_btb`` -- the ISA has no indirect branches, so indirect-target
  pressure is modelled as a ladder of always-taken *direct* branches whose
  PCs alias into a deliberately small BTB: the target working set exceeds
  the target-store capacity exactly as an indirect-heavy workload's does.
* ``callret_depth`` -- no call/return opcodes either, so deep call chains
  become chains of taken JUMPs (call path down, return path back up): the
  front end pays the taken-transfer fetch break of every call and return,
  which is the non-RAS cost of call-chain depth.
"""

from __future__ import annotations

from ...isa.instruction import Program, ProgramBuilder
from ...isa.opcodes import Opcode
from ...isa.registers import int_reg
from ..generator import _LCG_INC, _LCG_MULT, _TempPool, _aligned_mask

#: Virtual base address of the data segment (as the generator uses).
_BASE_ADDR = 1 << 30

_R_COUNTER = int_reg(1)
_R_LCG = int_reg(2)
_R_BASE = int_reg(3)
_R_LCG_MULT = int_reg(6)
_R_ONE = int_reg(7)

KIB = 1024


def _prologue(b: ProgramBuilder, seed: int = 0, mark_loop: bool = True) -> None:
    b.emit(Opcode.MOVI, dest=_R_COUNTER, imm=0)
    b.emit(Opcode.MOVI, dest=_R_LCG, imm=0x243F6A8885A308D3 + seed)
    b.emit(Opcode.MOVI, dest=_R_BASE, imm=_BASE_ADDR)
    b.emit(Opcode.MOVI, dest=_R_LCG_MULT, imm=_LCG_MULT)
    b.emit(Opcode.MOVI, dest=_R_ONE, imm=1)
    if mark_loop:
        b.mark_label("loop")


def _lcg_step(b: ProgramBuilder) -> None:
    b.emit(Opcode.MUL, dest=_R_LCG, src1=_R_LCG, src2=_R_LCG_MULT)
    b.emit(Opcode.ADDI, dest=_R_LCG, src1=_R_LCG, imm=_LCG_INC)


def _epilogue(b: ProgramBuilder) -> None:
    b.emit(Opcode.ADDI, dest=_R_COUNTER, src1=_R_COUNTER, imm=1)
    b.emit(Opcode.JUMP, target_label="loop")


def build_branch_h2p(bias_bits: int) -> Program:
    """Hard-to-predict data-dependent branches with deep slices.

    Four branch sites test random loaded data through a 4-op ALU chain;
    ``bias_bits`` sets the taken probability to ``2**-bias_bits`` (1 =>
    50/50, unlearnable; larger => increasingly predictable), so
    misprediction rate falls monotonically as the knob grows.  The knob
    is the width of a mask over a 64-bit register, so it stops at 64.
    """
    if not 0 <= bias_bits <= 64:
        raise ValueError("branch_h2p bias bits must be in 0..64")
    data_bytes = 16 * KIB  # cache-resident: the branches, not memory, stall
    b = ProgramBuilder(f"stress_branch_h2p_{bias_bits}")
    temps = _TempPool()
    _prologue(b)
    _lcg_step(b)
    for site in range(4):
        addr = temps.take()
        val = temps.take()
        cond = temps.take()
        b.emit(Opcode.XORI, dest=addr, src1=_R_LCG,
               imm=0x9E3779B97F4A7C15 * (site + 1))
        b.emit(Opcode.ANDI, dest=addr, src1=addr, imm=_aligned_mask(data_bytes))
        b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
        b.emit(Opcode.LOAD, dest=val, src1=addr)
        for d in range(4):
            op = Opcode.XORI if d % 2 else Opcode.ADDI
            b.emit(op, dest=val, src1=val, imm=0x5DEECE66D + d)
        b.emit(Opcode.ANDI, dest=cond, src1=val, imm=(1 << bias_bits) - 1)
        label = f"hard_{site}"
        b.emit(Opcode.BEQZ, src1=cond, target_label=label)
        b.emit(Opcode.ADDI, dest=temps.take(), src1=_R_COUNTER, imm=site)
        b.emit(Opcode.ADDI, dest=temps.take(), src1=_R_COUNTER, imm=site + 1)
        b.mark_label(label)
    _epilogue(b)
    return b.build(warm_regions=[(_BASE_ADDR, data_bytes)])


#: Instruction spacing between branch-ladder sites.  With ``btb_sets=16``
#: the BTB index is ``(pc >> 2) & 15``; a site stride of 17 instructions
#: steps the index by one per site, spreading the ladder evenly over all
#: 16 sets (a stride divisible by 16 would pile every site into one set).
BTB_LADDER_STRIDE = 17


def build_branch_btb(targets: int) -> Program:
    """Taken-branch target working set exceeding a small BTB.

    ``targets`` always-taken direct branches form a ladder, each jumping
    over its padding to the next site.  Run against a 16-set 2-way BTB
    (:data:`~repro.workloads.stress.families.SMALL_BTB`), sites map
    round-robin onto the 16 sets: up to 32 targets fit, and every target
    past that thrashes its set cyclically -- a 100% miss pattern for the
    overflowing sets, so taken-BTB misses rise monotonically with the
    knob.  Each miss squashes the fall-through fetch, recovery-penalty
    style, exactly like an indirect branch without a target.
    """
    b = ProgramBuilder(f"stress_branch_btb_{targets}")
    _prologue(b)
    for site in range(targets):
        label = f"site_{site + 1}" if site + 1 < targets else "ladder_done"
        b.emit(Opcode.BNEZ, src1=_R_ONE, target_label=label)
        for _ in range(BTB_LADDER_STRIDE - 1):
            b.emit(Opcode.NOP)  # padding: spaces the sites; never executed
        if site + 1 < targets:
            b.mark_label(f"site_{site + 1}")
    b.mark_label("ladder_done")
    _epilogue(b)
    return b.build()


def build_callret(depth: int) -> Program:
    """Call/return chains of ``depth`` modelled as taken-JUMP chains.

    The call path descends ``depth`` levels (one taken JUMP each), a leaf
    body does 16 independent ALU ops, and the return path ascends through
    ``depth`` more JUMPs.  Every hop is a taken-transfer fetch break --
    one fetch cycle for one instruction -- so CPI rises monotonically
    with depth toward the 1-instruction-per-cycle jump-chain bound while
    branch MPKI stays ~0 (direct targets never mispredict).
    """
    b = ProgramBuilder(f"stress_callret_{depth}")
    temps = _TempPool()
    _prologue(b)
    for k in range(depth):
        b.emit(Opcode.JUMP, target_label=f"call_{k}")
        for _ in range(3):
            b.emit(Opcode.NOP)  # padding: keeps each hop a real transfer
        b.mark_label(f"call_{k}")
    for i in range(16):
        b.emit(Opcode.ADDI, dest=temps.take(), src1=_R_COUNTER, imm=i)
    for k in range(depth):
        b.emit(Opcode.JUMP, target_label=f"ret_{k}")
        for _ in range(3):
            b.emit(Opcode.NOP)
        b.mark_label(f"ret_{k}")
    _epilogue(b)
    return b.build()


def build_l1i_pressure(code_kib: int) -> Program:
    """Straight-line code footprint of ``code_kib`` KiB, looped.

    At 4 bytes per instruction the loop body holds ``code_kib * 256``
    independent ALU ops.  Footprints within the 32 KB L1I run from the
    cache after the first pass; larger ones evict themselves before the
    loop returns, so every line misses every iteration and L1I MPKI
    rises monotonically with the knob.
    """
    b = ProgramBuilder(f"stress_l1i_{code_kib}")
    temps = _TempPool()
    _prologue(b)
    for i in range(code_kib * 256):
        b.emit(Opcode.ADDI, dest=temps.take(), src1=_R_COUNTER, imm=i & 0xFFFF)
    _epilogue(b)
    return b.build()


def build_cache_thrash(footprint_kib: int) -> Program:
    """Random loads over a ``footprint_kib`` KiB region (TLB/cache thrash).

    Four independent random loads per iteration (full memory-level
    parallelism) span the footprint uniformly.  Regions that fit in 3/4
    of the LLC are checkpoint-prewarmed and stay resident; beyond that
    the working set exceeds the hierarchy and LLC MPKI climbs toward the
    every-load-misses ceiling.  (The model has no TLB; footprints far
    past the LLC stand in for page-walk thrash as well.)
    """
    bytes_ = footprint_kib * KIB
    if bytes_ & (bytes_ - 1):
        raise ValueError("cache_thrash footprint must be a power of two KiB")
    b = ProgramBuilder(f"stress_thrash_{footprint_kib}")
    temps = _TempPool()
    _prologue(b)
    _lcg_step(b)
    for site in range(4):
        addr = temps.take()
        val = temps.take()
        b.emit(Opcode.XORI, dest=addr, src1=_R_LCG,
               imm=0xBF58476D1CE4E5B9 * (site + 3))
        b.emit(Opcode.ANDI, dest=addr, src1=addr, imm=_aligned_mask(bytes_))
        b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
        b.emit(Opcode.LOAD, dest=val, src1=addr)
    _epilogue(b)
    return b.build(warm_regions=[(_BASE_ADDR, bytes_)])


#: Data region of the store-buffer kernel's commit-blocking load: far
#: larger than the LLC, so the load at the ROB head always misses.
STORE_BLOCK_REGION = 64 * 1024 * KIB


def build_store_buffer(stores: int) -> Program:
    """Store bursts behind a commit-blocking load (store-buffer-full).

    Each iteration issues one random load that misses all the way to
    memory, then ``stores`` single-instruction stores to a shared
    register-held address.  Stores hold their LSQ entries until commit,
    and commit is blocked by the missing load, so a large enough burst
    fills the 64-entry LSQ before the 128-entry ROB fills -- flipping
    the dominant dispatch stall from ROB-full to LSQ-full as the knob
    grows.
    """
    store_bytes = 64 * KIB
    b = ProgramBuilder(f"stress_storebuf_{stores}")
    temps = _TempPool()
    _prologue(b)
    _lcg_step(b)
    addr = temps.take()
    val = temps.take()
    b.emit(Opcode.XORI, dest=addr, src1=_R_LCG, imm=0x94D049BB133111EB)
    b.emit(Opcode.ANDI, dest=addr, src1=addr,
           imm=_aligned_mask(STORE_BLOCK_REGION))
    b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
    b.emit(Opcode.LOAD, dest=val, src1=addr)
    st = temps.take()
    b.emit(Opcode.ANDI, dest=st, src1=_R_COUNTER,
           imm=_aligned_mask(store_bytes))
    b.emit(Opcode.ADD, dest=st, src1=st, src2=_R_BASE)
    for k in range(stores):
        b.emit(Opcode.STORE, src1=_R_COUNTER, src2=st,
               imm=STORE_BLOCK_REGION + k * 8)
    for i in range(8):
        b.emit(Opcode.ADDI, dest=temps.take(), src1=_R_COUNTER, imm=i)
    _epilogue(b)
    return b.build()


def build_load_after_store(pairs: int) -> Program:
    """Store-to-load forwarding pairs: each load reads the prior store.

    ``pairs`` store/load couples per iteration hit the same 8-byte slot
    while the store still occupies the LSQ, so the load forwards instead
    of accessing the cache; the forwarded fraction of commits rises
    monotonically with the knob.
    """
    region = 64 * KIB
    b = ProgramBuilder(f"stress_fwd_{pairs}")
    temps = _TempPool()
    _prologue(b)
    addr = temps.take()
    b.emit(Opcode.ANDI, dest=addr, src1=_R_COUNTER, imm=_aligned_mask(region))
    b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
    for k in range(pairs):
        val = temps.take()
        b.emit(Opcode.STORE, src1=_R_COUNTER, src2=addr, imm=k * 64)
        b.emit(Opcode.LOAD, dest=val, src1=addr, imm=k * 64)
    _epilogue(b)
    return b.build()


def build_dep_chain(length: int) -> Program:
    """A loop-carried serial chain of dependent multiplies.

    The chain register is seeded once before the loop and every MUL
    (3-cycle latency) feeds the next *across* iterations, so the whole
    program is one serial dependence chain no amount of window can
    parallelize; 4 independent ALU ops ride along as slack.  CPI rises
    monotonically with chain length toward the latency bound
    ``3 * length / (length + overhead)``.  (Re-seeding the chain inside
    the loop would let the ~4 in-flight iterations run their chains in
    parallel and collapse CPI to the iMULT throughput bound.)
    """
    b = ProgramBuilder(f"stress_depchain_{length}")
    temps = _TempPool()
    _prologue(b, mark_loop=False)
    chain = temps.take()
    b.emit(Opcode.ADDI, dest=chain, src1=_R_COUNTER, imm=1)
    b.mark_label("loop")
    for _ in range(length):
        b.emit(Opcode.MUL, dest=chain, src1=chain, src2=_R_LCG_MULT)
    for i in range(4):
        b.emit(Opcode.ADDI, dest=temps.take(), src1=_R_COUNTER, imm=i)
    _epilogue(b)
    return b.build()


#: Data region of the IQ-pressure kernel's long-latency loads: far larger
#: than the LLC, so every load misses to memory.
IQ_BLOCK_REGION = 64 * 1024 * KIB


def build_iq_pressure(deps: int) -> Program:
    """Dependents of an LLC-missing load flooding the issue queue.

    Each iteration launches one random load that misses to memory, then
    ``deps`` independent ALU ops that all consume the loaded value: they
    dispatch into the IQ and sit unissuable for the full memory latency.
    With a high enough dependent fraction the 64-entry IQ fills long
    before the 128-entry ROB or the physical registers run out, so
    IQ-full dominates the dispatch stalls and occupancy pins near
    capacity.  (A flood of *independent* long-latency ops would not do
    this: those issue promptly and it is the register file / ROB that
    backs up instead.)
    """
    b = ProgramBuilder(f"stress_iq_{deps}")
    temps = _TempPool()
    _prologue(b)
    _lcg_step(b)
    addr = temps.take()
    val = temps.take()
    b.emit(Opcode.XORI, dest=addr, src1=_R_LCG, imm=0xD6E8FEB86659FD93)
    b.emit(Opcode.ANDI, dest=addr, src1=addr,
           imm=_aligned_mask(IQ_BLOCK_REGION))
    b.emit(Opcode.ADD, dest=addr, src1=addr, src2=_R_BASE)
    b.emit(Opcode.LOAD, dest=val, src1=addr)
    for i in range(deps):
        op = Opcode.XORI if i % 2 else Opcode.ADDI
        b.emit(op, dest=temps.take(), src1=val, imm=i)
    _epilogue(b)
    return b.build()


__all__ = [
    "BTB_LADDER_STRIDE",
    "IQ_BLOCK_REGION",
    "STORE_BLOCK_REGION",
    "build_branch_btb",
    "build_branch_h2p",
    "build_callret",
    "build_cache_thrash",
    "build_dep_chain",
    "build_iq_pressure",
    "build_l1i_pressure",
    "build_load_after_store",
]
