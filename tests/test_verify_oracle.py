"""Tests for the differential architectural oracle (``repro.verify``).

Two angles:

* **agreement** -- a fully verified run over every scheduling path pinned in
  ``test_pipeline_golden.py`` completes with zero violations *and* the exact
  golden counters (verification must not perturb timing);
* **mutation** -- each oracle check fires when the cross-checked state is
  deliberately corrupted, and the raised :class:`OracleMismatch` carries the
  structured diagnostics (`invariant`, `cycle`, `uop`, bounded snapshot).
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.analysis import run_workload
from repro.core.pipeline import Pipeline
from repro.isa.executor import FunctionalExecutor
from repro.verify import CommitOracle, InvariantViolation, OracleMismatch
from repro.workloads import build_program, get_profile

from .test_pipeline_golden import CONFIGS, GOLDEN_STATS, INSTRUCTIONS, SKIP


# ======================================================================
# Agreement across the five pinned scheduling paths
# ======================================================================

class TestOracleAgreement:
    @pytest.mark.parametrize("tag", sorted(CONFIGS))
    def test_full_verification_passes_and_preserves_goldens(self, tag):
        workload, config = CONFIGS[tag]
        result = run_workload(workload, config.with_verification("full"),
                              instructions=INSTRUCTIONS, skip=SKIP,
                              cache=False)
        # Zero violations (run_workload would have raised) and every commit
        # cross-checked against in-order execution.
        assert result.verify_level == "full"
        assert result.verified_commits == result.stats.committed == INSTRUCTIONS
        assert result.invariant_sweeps > 0
        # Verification observes; it must not perturb the timing model.
        assert dataclasses.asdict(result.stats) == GOLDEN_STATS[tag]

    def test_commit_only_level_skips_sweeps(self):
        workload, config = CONFIGS["sjeng_base"]
        result = run_workload(workload, config.with_verification("commit-only"),
                              instructions=1000, skip=500, cache=False)
        assert result.verified_commits == 1000
        assert result.invariant_sweeps == 0

    def test_verifier_report_summarizes_run(self):
        program = build_program(get_profile("sjeng"))
        pipeline = Pipeline(program,
                            CONFIGS["sjeng_pubs"][1].with_verification("full"))
        pipeline.run(800, skip_instructions=400)
        report = pipeline.verifier.report()
        assert report.level == "full"
        assert report.commits_checked == 800
        assert report.final_state_checked
        assert "free-list-conservation" in report.invariants
        assert "commits=800" in report.summary()

    def test_skip_seats_oracle_at_the_skip_checkpoint(self, monkeypatch,
                                                      tmp_path):
        """A verified skip restores the trace's skip checkpoint instead
        of stepping the oracle functionally over the skipped records."""
        from repro.trace.store import TraceStore

        stepped = []
        real_skip = CommitOracle.skip
        monkeypatch.setattr(CommitOracle, "skip", lambda oracle, count: (
            stepped.append(count), real_skip(oracle, count)))
        pipeline = Pipeline(
            build_program(get_profile("sjeng")),
            CONFIGS["sjeng_base"][1].with_verification("commit-only"),
            trace_source=TraceStore(root=tmp_path, persistent=False))
        pipeline.run(300, skip_instructions=700)
        assert pipeline.verifier.commits_checked == 300
        assert stepped == [0]  # seated exactly at record 700


# ======================================================================
# Mutation: every oracle check fires on seeded corruption
# ======================================================================

def _verified_pipeline(level="commit-only"):
    program = build_program(get_profile("sjeng"))
    config = CONFIGS["sjeng_base"][1].with_verification(level)
    return Pipeline(program, config)


class TestCommitStreamMutations:
    def test_oracle_out_of_sync_detects_stream_gap(self):
        pipeline = _verified_pipeline()
        # Advance the oracle's independent executor one instruction: the
        # very first commit now presents trace_seq 0 where 1 is expected.
        pipeline.verifier.oracle.executor.step()
        with pytest.raises(OracleMismatch, match="commit stream gap"):
            pipeline.run(200, skip_instructions=0)

    def test_skip_mismatch_detected(self):
        pipeline = _verified_pipeline()
        # The pipeline fast-forwards 100 instructions but the oracle is
        # never seated past them -- equivalent to a dropped-commit bug.
        pipeline.verifier.on_seat = lambda trace, seat: None
        with pytest.raises(OracleMismatch, match="commit stream gap"):
            pipeline.run(200, skip_instructions=100)

    def _uop(self, inst, **overrides):
        fields = dict(seq=0, inst=inst, trace_seq=0, on_correct_path=True,
                      squashed=False, completed=True, mem_addr=None,
                      actual_taken=False, actual_next_pc=inst.pc + 4,
                      predicted_next_pc=inst.pc + 4, mispredicted=False,
                      fetch_cycle=1, dispatch_cycle=2, issue_cycle=3)
        fields.update(overrides)
        return SimpleNamespace(**fields)

    def test_wrong_path_uop_at_commit_rejected(self):
        program = build_program(get_profile("sjeng"))
        oracle = CommitOracle(program)
        uop = self._uop(program.insts[0], on_correct_path=False,
                        trace_seq=-1)
        with pytest.raises(OracleMismatch, match="wrong-path"):
            oracle.check_commit(uop, cycle=7)

    def test_squashed_and_incomplete_uops_rejected(self):
        program = build_program(get_profile("sjeng"))
        oracle = CommitOracle(program)
        with pytest.raises(OracleMismatch, match="squashed"):
            oracle.check_commit(
                self._uop(program.insts[0], squashed=True), cycle=1)
        with pytest.raises(OracleMismatch, match="incomplete"):
            oracle.check_commit(
                self._uop(program.insts[0], completed=False), cycle=1)

    def test_pc_divergence_detected(self):
        program = build_program(get_profile("sjeng"))
        oracle = CommitOracle(program)
        reference = FunctionalExecutor(program)
        reference.step()
        second = reference.step().inst  # not the in-order first instruction
        with pytest.raises(OracleMismatch, match="in-order execution is at"):
            oracle.check_commit(self._uop(second), cycle=1)

    def test_violation_payload_is_structured(self):
        pipeline = _verified_pipeline()
        pipeline.verifier.oracle.executor.step()
        with pytest.raises(OracleMismatch) as excinfo:
            pipeline.run(200, skip_instructions=0)
        exc = excinfo.value
        assert isinstance(exc, InvariantViolation)  # one except catches all
        assert exc.invariant == "commit-oracle"
        assert exc.cycle is not None and exc.cycle > 0
        assert exc.uop["trace_seq"] == 0 and exc.uop["on_correct_path"]
        assert f"@cycle {exc.cycle}" in str(exc)
        report = exc.report()
        assert "commit-oracle" in report and "trace_seq=0" in report


class TestFinalStateDiff:
    def _synced_pair(self, steps=200):
        program = build_program(get_profile("sjeng"))
        main = FunctionalExecutor(program)
        oracle = CommitOracle(program)
        for _ in range(steps):
            main.step()
        oracle.skip(steps)
        return oracle, main

    def test_agreeing_states_pass(self):
        oracle, main = self._synced_pair()
        oracle.finish(main)
        assert oracle.final_state_checked

    def test_oracle_lag_is_caught_up_before_diffing(self):
        program = build_program(get_profile("sjeng"))
        main = FunctionalExecutor(program)
        oracle = CommitOracle(program)
        for _ in range(300):
            main.step()
        oracle.skip(120)  # commit naturally trails the fetch-side executor
        oracle.finish(main)
        assert oracle.final_state_checked

    def test_register_corruption_detected(self):
        oracle, main = self._synced_pair()
        main.regs[3] ^= 0x1  # the timing model scribbled on a register
        with pytest.raises(OracleMismatch, match="register state mismatch"):
            oracle.finish(main)
        assert not oracle.final_state_checked

    def test_memory_corruption_detected(self):
        oracle, main = self._synced_pair()
        words = main.memory.words()
        assert words, "warm-up should have produced stores"
        addr = next(iter(words))
        main.memory._words[addr] += 1
        with pytest.raises(OracleMismatch, match="memory state mismatch"):
            oracle.finish(main)

    def test_oracle_ahead_of_executor_detected(self):
        oracle, main = self._synced_pair()
        oracle.executor.step()  # phantom extra commit
        with pytest.raises(OracleMismatch, match="ran ahead"):
            oracle.finish(main)
