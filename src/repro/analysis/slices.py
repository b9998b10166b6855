"""Offline branch/computation slice analysis (the paper's Sec. II / Fig. 2).

A *branch slice* is the sub-graph of the dynamic dataflow graph containing
a branch (as the leaf) and every instruction it directly or indirectly
depends on; a *computation slice* is the same rooted at a non-branch.  The
hardware slice tracker of :mod:`repro.pubs` discovers branch slices
incrementally through ``def_tab``/``brslice_tab``; this module computes
them *exactly* on an executed instruction window, providing ground truth
for tests and a workload-characterization tool (average slice size/depth,
the fraction of the dynamic stream inside branch slices -- the quantity
that sizes the priority partition).

Graphs are :class:`networkx.DiGraph` with dynamic sequence numbers as nodes
and producer -> consumer edges for register dataflow.  networkx is the
optional ``analysis`` extra: it is imported by the functions that build or
walk a graph, so ``import repro`` works without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from ..isa.executor import DynamicOp, FunctionalExecutor
from ..isa.instruction import Program

if TYPE_CHECKING:
    import networkx as nx


def build_dataflow_graph(records: Iterable[DynamicOp]) -> "nx.DiGraph":
    """The dynamic register-dataflow graph of an executed window.

    Node ``seq`` carries attributes ``pc`` and ``is_branch``; an edge
    ``p -> c`` means instruction ``c`` reads a register whose last writer
    in the window is ``p``.  Memory dependences are *not* edges (the paper
    defines slices over register dataflow tracked by ``def_tab``).
    """
    import networkx as nx
    graph = nx.DiGraph()
    last_writer: Dict[int, int] = {}
    for record in records:
        inst = record.inst
        graph.add_node(record.seq, pc=inst.pc,
                       is_branch=inst.is_conditional_branch)
        for src in inst.srcs:
            producer = last_writer.get(src)
            if producer is not None:
                graph.add_edge(producer, record.seq)
        if inst.dest is not None:
            last_writer[inst.dest] = record.seq
    return graph


def dynamic_slice(graph: "nx.DiGraph", seq: int) -> Set[int]:
    """The slice rooted at node ``seq``: its ancestors plus itself."""
    import networkx as nx
    if seq not in graph:
        raise KeyError(f"no instruction with seq {seq} in the window")
    members = set(nx.ancestors(graph, seq))
    members.add(seq)
    return members


def branch_slices(graph: "nx.DiGraph") -> Dict[int, Set[int]]:
    """All branch slices in the window, keyed by branch seq."""
    return {
        seq: dynamic_slice(graph, seq)
        for seq, data in graph.nodes(data=True)
        if data["is_branch"]
    }


def slice_depth(graph: "nx.DiGraph", seq: int) -> int:
    """Length of the longest dependence chain ending at ``seq``.

    This is the number of extra cycles a one-cycle-per-step issue delay
    adds to the branch's resolution -- the paper's five-instruction-chain
    example in Sec. I.
    """
    import networkx as nx
    members = dynamic_slice(graph, seq)
    sub = graph.subgraph(members)
    return int(nx.dag_longest_path_length(sub))


@dataclass(frozen=True)
class SliceStatistics:
    """Aggregate slice characterization of an executed window."""

    instructions: int
    branches: int
    mean_slice_size: float
    max_slice_size: int
    mean_slice_depth: float
    #: Fraction of dynamic instructions belonging to >= 1 branch slice.
    branch_slice_coverage: float

    def __str__(self) -> str:
        return (
            f"{self.branches} branch slices over {self.instructions} "
            f"instructions: mean size {self.mean_slice_size:.1f}, max "
            f"{self.max_slice_size}, mean depth {self.mean_slice_depth:.1f}, "
            f"coverage {self.branch_slice_coverage:.0%}"
        )


def characterize_window(
    program: Program,
    instructions: int,
    skip: int = 0,
    mem_seed: int = 0,
    window: Optional[int] = None,
) -> SliceStatistics:
    """Execute ``program`` and characterize its branch slices.

    ``window`` bounds the dependence horizon (default: the whole run);
    realistic hardware only sees slices within the instruction window, so
    128 (the ROB size) approximates what PUBS can act on.
    """
    executor = FunctionalExecutor(program, mem_seed=mem_seed)
    for _ in range(skip):
        executor.step_raw()
    records: List[DynamicOp] = executor.run(instructions)
    if window is None:
        window = instructions
    sizes: List[int] = []
    depths: List[int] = []
    covered: Set[int] = set()
    branches = 0
    # Slide non-overlapping windows to bound ancestor computation.
    for start in range(0, len(records), window):
        chunk = records[start:start + window]
        graph = build_dataflow_graph(chunk)
        for seq, members in branch_slices(graph).items():
            branches += 1
            sizes.append(len(members))
            depths.append(slice_depth(graph, seq))
            covered.update(members)
    return SliceStatistics(
        instructions=len(records),
        branches=branches,
        mean_slice_size=sum(sizes) / len(sizes) if sizes else 0.0,
        max_slice_size=max(sizes) if sizes else 0,
        mean_slice_depth=sum(depths) / len(depths) if depths else 0.0,
        branch_slice_coverage=len(covered) / len(records) if records else 0.0,
    )
