"""Static instruction and program representations.

A :class:`Program` is a flat list of :class:`StaticInst` with PCs assigned
4 bytes apart, mirroring a fixed-width RISC encoding (the paper's SimpleScalar
setup uses the Alpha ISA).  Branch targets are PCs into the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import opcodes
from .opcodes import Opcode
from .registers import NUM_LOGICAL_REGS, reg_name

#: Byte distance between consecutive instructions.
INST_BYTES = 4

#: Per-opcode decode attributes, installed on every :class:`StaticInst`.
_DECODE = {
    op: {
        "is_branch": opcodes.is_branch(op),
        "is_conditional_branch": opcodes.is_conditional_branch(op),
        "is_load": opcodes.is_load(op),
        "is_store": opcodes.is_store(op),
        "is_mem": opcodes.is_mem(op),
        "fu": opcodes.fu_class(op),
        "latency": opcodes.latency(op),
    }
    for op in Opcode
}


@dataclass(frozen=True)
class StaticInst:
    """One static instruction.

    ``dest`` and the sources are flat logical register indices (0..63) or
    ``None``.  ``imm`` is the immediate operand (also the address offset of
    loads/stores).  ``target`` is the taken-path PC of branches.

    Construction also installs the decode attributes the timing model
    reads on every dynamic instance -- ``is_branch``,
    ``is_conditional_branch``, ``is_load``, ``is_store``, ``is_mem``,
    ``fu`` (the :class:`~repro.isa.opcodes.FuClass`), ``latency`` and
    ``srcs`` (the source registers in operand order) -- as plain
    instance attributes.  They are not dataclass fields, so equality,
    hashing and every content key (which canonicalize fields only) are
    unaffected by them.
    """

    pc: int
    opcode: Opcode
    dest: Optional[int] = None
    src1: Optional[int] = None
    src2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None

    def __post_init__(self) -> None:
        for r in (self.dest, self.src1, self.src2):
            if r is not None and not 0 <= r < NUM_LOGICAL_REGS:
                raise ValueError(f"register index out of range: {r}")
        attrs = self.__dict__  # frozen: bypass __setattr__
        attrs.update(_DECODE[self.opcode])
        if self.is_branch and self.target is None:
            raise ValueError(f"branch at pc={self.pc:#x} lacks a target")
        if self.target is not None and not self.is_branch:
            raise ValueError(f"non-branch at pc={self.pc:#x} has a target")
        attrs["srcs"] = tuple([r for r in (self.src1, self.src2)
                               if r is not None])

    def __str__(self) -> str:
        parts = [f"{self.pc:#06x}: {self.opcode.name.lower()}"]
        if self.dest is not None:
            parts.append(reg_name(self.dest))
        for s in self.srcs:
            parts.append(reg_name(s))
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"-> {self.target:#06x}")
        return " ".join(parts)


class Program:
    """A fully-resolved program: instructions with PCs and branch targets.

    Construction validates that every branch target lands on an instruction
    boundary inside the program, so the fetch engine can always decode a
    wrong-path walk without bounds checks.

    A program is an immutable value: ``insts`` and ``warm_regions`` are
    tuples, so one built program can be shared by every run of its
    workload (:func:`~repro.workloads.generator.build_program` memoizes
    them) and content keys computed from it never go stale.
    """

    def __init__(self, name: str, insts: Iterable[StaticInst],
                 warm_regions: Optional[Iterable[Tuple[int, int]]] = None):
        insts = tuple(insts)
        if not insts:
            raise ValueError("a program needs at least one instruction")
        self.name = name
        self.insts: Tuple[StaticInst, ...] = insts
        #: (start address, size) data regions a simulator may pre-warm into
        #: large caches before timing starts (checkpoint-style warm-up).
        self.warm_regions: Tuple[Tuple[int, int], ...] = tuple(
            tuple(region) for region in warm_regions or ())
        self._by_pc: Dict[int, StaticInst] = {}
        for i, inst in enumerate(self.insts):
            expected_pc = i * INST_BYTES
            if inst.pc != expected_pc:
                raise ValueError(
                    f"instruction {i} has pc {inst.pc:#x}, expected {expected_pc:#x}"
                )
            self._by_pc[inst.pc] = inst
        for inst in self.insts:
            if inst.target is not None and inst.target not in self._by_pc:
                raise ValueError(
                    f"branch at {inst.pc:#x} targets {inst.target:#x}, "
                    "which is outside the program"
                )

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self):
        return iter(self.insts)

    @property
    def entry_pc(self) -> int:
        return self.insts[0].pc

    @property
    def last_pc(self) -> int:
        return self.insts[-1].pc

    def at(self, pc: int) -> StaticInst:
        """The instruction at ``pc`` (raises ``KeyError`` when outside)."""
        return self._by_pc[pc]

    def contains(self, pc: int) -> bool:
        return pc in self._by_pc

    def next_pc(self, pc: int) -> int:
        """Fall-through successor of ``pc`` (wraps to the entry at the end)."""
        nxt = pc + INST_BYTES
        return nxt if nxt in self._by_pc else self.entry_pc

    def listing(self) -> str:
        """Full disassembly, one instruction per line."""
        return "\n".join(str(inst) for inst in self.insts)


@dataclass
class ProgramBuilder:
    """Incremental builder that assigns PCs and patches branch targets.

    Branches may be emitted with a label instead of a concrete target;
    ``mark_label`` later binds the label to the next emitted instruction.
    """

    name: str
    _insts: List[StaticInst] = field(default_factory=list)
    _labels: Dict[str, int] = field(default_factory=dict)
    _patches: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def next_pc(self) -> int:
        return len(self._insts) * INST_BYTES

    def mark_label(self, label: str) -> None:
        if label in self._labels:
            raise ValueError(f"label defined twice: {label}")
        self._labels[label] = self.next_pc

    def emit(
        self,
        opcode: Opcode,
        dest: Optional[int] = None,
        src1: Optional[int] = None,
        src2: Optional[int] = None,
        imm: int = 0,
        target_label: Optional[str] = None,
    ) -> int:
        """Append an instruction; returns its PC."""
        pc = self.next_pc
        if target_label is not None:
            # Temporary self-target, patched at build() time.
            self._patches.append((len(self._insts), target_label))
            inst = StaticInst(pc, opcode, dest, src1, src2, imm, target=pc)
        else:
            inst = StaticInst(pc, opcode, dest, src1, src2, imm)
        self._insts.append(inst)
        return pc

    def build(self, warm_regions: Optional[List[Tuple[int, int]]] = None) -> Program:
        insts = list(self._insts)
        for index, label in self._patches:
            if label not in self._labels:
                raise ValueError(f"undefined label: {label}")
            old = insts[index]
            insts[index] = StaticInst(
                old.pc, old.opcode, old.dest, old.src1, old.src2, old.imm,
                target=self._labels[label],
            )
        return Program(self.name, insts, warm_regions=warm_regions)
