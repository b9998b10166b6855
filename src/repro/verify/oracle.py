"""The differential architectural oracle.

The timing pipeline is trace-driven: its committed stream *should* be the
in-order architectural execution of the program.  :class:`CommitOracle`
checks that claim from the outside.  It owns a second, completely
independent :class:`~repro.isa.executor.FunctionalExecutor` (same program,
same memory seed) and co-executes it one instruction per commit, comparing
everything the pipeline recorded about the committing uop -- PC, opcode,
branch direction and successor PC, effective memory address, misprediction
flag -- against what in-order execution actually produces.  Sequence
numbers are checked for gaplessness, so a dropped, duplicated or reordered
commit is caught on the spot.

At the end of a run, :meth:`finish_against_checkpoint` advances the
oracle to the trace's end checkpoint and diffs the full architectural
state (registers, PC, every memory word ever written); :meth:`finish` does
the same against any functional executor.  A capture that disagrees with
independent in-order execution -- the failure mode that turns into
silently wrong IPC numbers -- shows up as a concrete register or word
mismatch.
"""

from __future__ import annotations

from ..isa.executor import FunctionalExecutor
from ..isa.instruction import Program
from .violations import OracleMismatch


class CommitOracle:
    """In-order co-execution cross-check of the committed stream."""

    def __init__(self, program: Program, mem_seed: int = 0):
        self.executor = FunctionalExecutor(program, mem_seed=mem_seed)
        self.commits_checked = 0
        self.final_state_checked = False

    # ------------------------------------------------------------------
    # Run protocol
    # ------------------------------------------------------------------

    def skip(self, count: int) -> None:
        """Mirror the pipeline's warm-up fast-forward (untimed commits)."""
        for _ in range(count):
            self.executor.step_raw()

    def restore_checkpoint(self, checkpoint) -> None:
        """Re-seat the oracle at a recorded architectural state.

        ``checkpoint`` is a :class:`~repro.trace.format.ArchCheckpoint`
        of the same (program, mem_seed) stream; sampled-region replay
        uses the nearest one below the region start so only the residue
        needs functional stepping.
        """
        self.executor = checkpoint.restore(self.executor.program)

    def check_commit(self, uop, cycle: int) -> None:
        """Verify one committing uop against the next in-order instruction."""
        if not uop.on_correct_path:
            raise OracleMismatch(
                "commit-oracle", "a wrong-path uop reached commit",
                cycle=cycle, uop=uop)
        if uop.squashed:
            raise OracleMismatch(
                "commit-oracle", "a squashed uop reached commit",
                cycle=cycle, uop=uop)
        if not uop.completed:
            raise OracleMismatch(
                "commit-oracle", "an incomplete uop reached commit",
                cycle=cycle, uop=uop)
        expected_seq = self.executor.seq
        if uop.trace_seq != expected_seq:
            raise OracleMismatch(
                "commit-oracle",
                f"commit stream gap: expected trace_seq {expected_seq}, "
                f"got {uop.trace_seq}",
                cycle=cycle, uop=uop)
        record = self.executor.step()
        inst = uop.inst
        if inst.pc != record.inst.pc or inst.opcode is not record.inst.opcode:
            raise OracleMismatch(
                "commit-oracle",
                f"committed {inst.opcode.name}@{inst.pc:#x} but in-order "
                f"execution is at {record.inst.opcode.name}@{record.inst.pc:#x}",
                cycle=cycle, uop=uop,
                snapshot={"record": record})
        if inst.is_mem and uop.mem_addr != record.mem_addr:
            raise OracleMismatch(
                "commit-oracle",
                f"memory effect mismatch at {inst.pc:#x}: pipeline address "
                f"{uop.mem_addr!r}, architectural address {record.mem_addr!r}",
                cycle=cycle, uop=uop, snapshot={"record": record})
        if inst.is_conditional_branch:
            if uop.actual_taken != record.taken:
                raise OracleMismatch(
                    "commit-oracle",
                    f"branch direction mismatch at {inst.pc:#x}: pipeline "
                    f"recorded taken={uop.actual_taken}, oracle says "
                    f"{record.taken}",
                    cycle=cycle, uop=uop, snapshot={"record": record})
            if uop.actual_next_pc != record.next_pc:
                raise OracleMismatch(
                    "commit-oracle",
                    f"branch successor mismatch at {inst.pc:#x}: pipeline "
                    f"{uop.actual_next_pc:#x}, oracle {record.next_pc:#x}",
                    cycle=cycle, uop=uop, snapshot={"record": record})
            if uop.mispredicted != (uop.predicted_next_pc != record.next_pc):
                raise OracleMismatch(
                    "commit-oracle",
                    f"misprediction flag inconsistent at {inst.pc:#x}: "
                    f"flag={uop.mispredicted}, predicted "
                    f"{uop.predicted_next_pc:#x} vs actual {record.next_pc:#x}",
                    cycle=cycle, uop=uop, snapshot={"record": record})
        self.commits_checked += 1

    def finish(self, main_executor: FunctionalExecutor,
               cycle: int = None) -> None:
        """End-of-run differential state check against the main executor.

        The main executor runs ahead of commit (it has also executed the
        in-flight records); the oracle is advanced to the same sequence
        number and the complete architectural state is compared.
        """
        self._finish_against(main_executor.seq, main_executor.pc,
                             list(main_executor.regs),
                             main_executor.memory.words(),
                             "pipeline executor", cycle)

    def finish_against_checkpoint(self, checkpoint, cycle: int = None) -> None:
        """End-of-run state check against the recorded trace.

        ``checkpoint`` is the trace's end
        :class:`~repro.trace.format.ArchCheckpoint`; the oracle is
        advanced to its sequence number (at or past everything the
        pipeline committed) and diffed against the recorded state, proving
        the oracle's independent execution agrees with the capture pass.
        """
        self._finish_against(checkpoint.seq, checkpoint.pc,
                             list(checkpoint.regs), dict(checkpoint.mem_words),
                             "trace checkpoint", cycle)

    def _finish_against(self, seq: int, pc: int, regs, words,
                        what: str, cycle) -> None:
        executor = self.executor
        if executor.seq > seq:
            raise OracleMismatch(
                "commit-oracle",
                f"oracle ran ahead of the {what} "
                f"({executor.seq} > {seq})", cycle=cycle)
        while executor.seq < seq:
            executor.step_raw()
        if executor.pc != pc:
            raise OracleMismatch(
                "commit-oracle",
                f"final PC mismatch: oracle {executor.pc:#x}, "
                f"{what} {pc:#x}", cycle=cycle)
        if executor.regs != regs:
            diffs = {f"r{i}": (a, b) for i, (a, b)
                     in enumerate(zip(executor.regs, regs))
                     if a != b}
            raise OracleMismatch(
                "commit-oracle",
                f"final register state mismatch in {len(diffs)} register(s)",
                cycle=cycle, snapshot=diffs)
        oracle_words = executor.memory.words()
        main_words = words
        if oracle_words != main_words:
            bad = {hex(a): (oracle_words.get(a), main_words.get(a))
                   for a in set(oracle_words) ^ set(main_words)
                   | {a for a in set(oracle_words) & set(main_words)
                      if oracle_words[a] != main_words[a]}}
            raise OracleMismatch(
                "commit-oracle",
                f"final memory state mismatch in {len(bad)} word(s)",
                cycle=cycle, snapshot=bad)
        self.final_state_checked = True
