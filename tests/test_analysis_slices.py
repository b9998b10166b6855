"""Tests for the offline slice analysis, including cross-validation of the
hardware slice tracker against the exact dataflow ground truth."""

import pytest

from repro.analysis.slices import (
    branch_slices,
    build_dataflow_graph,
    characterize_window,
    dynamic_slice,
    slice_depth,
)
from repro.isa import FunctionalExecutor, Opcode, Program, StaticInst
from repro.pubs import SliceTracker
from repro.workloads import build_program, get_profile


def _kernel():
    """The Fig. 2-style example: a branch slice and a computation slice."""
    return Program("kernel", [
        StaticInst(0, Opcode.MOVI, dest=1, imm=3),          # -> branch slice
        StaticInst(4, Opcode.ADDI, dest=2, src1=1, imm=1),  # -> branch slice
        StaticInst(8, Opcode.MOVI, dest=5, imm=7),          # -> comp slice
        StaticInst(12, Opcode.ADDI, dest=6, src1=5, imm=2), # comp slice leaf
        StaticInst(16, Opcode.BEQZ, src1=2, target=0),      # branch leaf
    ])


class TestGraphConstruction:
    def test_edges_follow_register_dataflow(self):
        records = FunctionalExecutor(_kernel()).run(5)
        graph = build_dataflow_graph(records)
        assert 0 in graph.producers[1]   # movi r1 -> addi r2
        assert 1 in graph.producers[4]   # addi r2 -> beqz
        assert 2 in graph.producers[3]   # movi r5 -> addi r6
        assert 2 not in graph.producers[4]

    def test_overwrite_breaks_dependence(self):
        prog = Program("p", [
            StaticInst(0, Opcode.MOVI, dest=1, imm=1),
            StaticInst(4, Opcode.MOVI, dest=1, imm=2),   # overwrites
            StaticInst(8, Opcode.ADDI, dest=2, src1=1, imm=0),
        ])
        graph = build_dataflow_graph(FunctionalExecutor(prog).run(3))
        assert 1 in graph.producers[2]
        assert 0 not in graph.producers[2]


class TestSlices:
    def test_branch_slice_members(self):
        records = FunctionalExecutor(_kernel()).run(5)
        graph = build_dataflow_graph(records)
        assert dynamic_slice(graph, 4) == {0, 1, 4}

    def test_computation_slice_members(self):
        records = FunctionalExecutor(_kernel()).run(5)
        graph = build_dataflow_graph(records)
        assert dynamic_slice(graph, 3) == {2, 3}

    def test_slices_exclusive_in_fig2_example(self):
        records = FunctionalExecutor(_kernel()).run(5)
        graph = build_dataflow_graph(records)
        assert dynamic_slice(graph, 4).isdisjoint(dynamic_slice(graph, 3))

    def test_overlapping_slices_allowed(self):
        """Sec. II-B: a branch slice and computation slice may overlap."""
        prog = Program("p", [
            StaticInst(0, Opcode.MOVI, dest=1, imm=1),
            StaticInst(4, Opcode.ADDI, dest=2, src1=1, imm=1),  # shared
            StaticInst(8, Opcode.ADDI, dest=3, src1=2, imm=1),  # comp leaf
            StaticInst(12, Opcode.BEQZ, src1=2, target=0),      # branch leaf
        ])
        graph = build_dataflow_graph(FunctionalExecutor(prog).run(4))
        overlap = dynamic_slice(graph, 3) & dynamic_slice(graph, 2)
        assert overlap == {0, 1}

    def test_branch_slices_enumerates_all(self):
        records = FunctionalExecutor(_kernel()).run(10)  # two iterations
        graph = build_dataflow_graph(records)
        assert len(branch_slices(graph)) == 2

    def test_slice_depth(self):
        records = FunctionalExecutor(_kernel()).run(5)
        graph = build_dataflow_graph(records)
        assert slice_depth(graph, 4) == 2  # movi -> addi -> beqz

    def test_unknown_seq_raises(self):
        graph = build_dataflow_graph(FunctionalExecutor(_kernel()).run(5))
        with pytest.raises(KeyError):
            dynamic_slice(graph, 99)


class TestCharacterization:
    def test_workload_statistics_sane(self):
        stats = characterize_window(build_program(get_profile("sjeng")),
                                    instructions=1500, skip=500,
                                    mem_seed=107, window=128)
        assert stats.instructions == 1500
        assert stats.branches > 20
        assert 1.0 < stats.mean_slice_size < 60
        assert 0.0 < stats.branch_slice_coverage < 1.0
        assert stats.mean_slice_depth >= 1.0
        assert "branch slices" in str(stats)

    def test_branchless_window(self):
        prog = Program("p", [StaticInst(0, Opcode.MOVI, dest=1, imm=1)])
        stats = characterize_window(prog, instructions=50)
        assert stats.branches == 0
        assert stats.branch_slice_coverage == 0.0


class TestTrackerCrossValidation:
    def test_tracker_converges_to_exact_static_slice(self):
        """After enough decode passes, the hardware tracker's marks equal
        the exact dataflow slice (projected to static PCs) for a loop
        whose branch is unconfident."""
        prog = Program("loop", [
            StaticInst(0, Opcode.MOVI, dest=1, imm=0),           # slice
            StaticInst(4, Opcode.ADDI, dest=2, src1=1, imm=1),   # slice
            StaticInst(8, Opcode.ADDI, dest=3, src1=2, imm=1),   # slice
            StaticInst(12, Opcode.ADDI, dest=8, src1=9, imm=1),  # filler
            StaticInst(16, Opcode.BNEZ, src1=3, target=0),       # leaf
        ])
        # Exact ground truth from one iteration's dataflow.
        records = FunctionalExecutor(prog).run(5)
        graph = build_dataflow_graph(records)
        truth_pcs = {records[s].inst.pc for s in dynamic_slice(graph, 4)}

        tracker = SliceTracker()
        tracker.on_branch_resolved(16, correct=False)
        marks = {}
        for _ in range(6):  # enough passes for transitive closure
            marks = {
                inst.pc: tracker.on_decode(inst) for inst in prog
            }
        tracked_pcs = {pc for pc, marked in marks.items() if marked}
        assert tracked_pcs == truth_pcs
