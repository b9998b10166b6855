"""Corner-case and failure-injection tests for the pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Pipeline, ProcessorConfig, simulate
from repro.isa import Opcode, ProgramBuilder, int_reg
from repro.memory import CacheConfig, MemoryConfig
from repro.pubs import PubsConfig

from tests.microprograms import (
    counted_branch_program,
    dependent_chain_program,
    independent_alu_program,
    random_branch_program,
    store_load_forward_program,
)

BASE = ProcessorConfig.cortex_a72_like()


class TestTinyStructures:
    def test_tiny_rob_iq_lsq_still_correct(self):
        cfg = BASE.with_overrides(rob_size=8, iq_size=8, lsq_size=4)
        stats = Pipeline(store_load_forward_program(), cfg).run(1500)
        assert stats.committed == 1500

    def test_single_wide_machine(self):
        cfg = BASE.with_overrides(fetch_width=1, decode_width=1,
                                  issue_width=1, commit_width=1)
        stats = Pipeline(random_branch_program(), cfg).run(1200)
        assert stats.committed == 1200
        assert stats.ipc <= 1.0

    def test_minimal_physical_registers_stall_but_complete(self):
        cfg = BASE.with_overrides(int_phys_regs=36, fp_phys_regs=32)
        stats = Pipeline(independent_alu_program(), cfg).run(1200)
        assert stats.committed == 1200
        assert stats.dispatch_stall_cycles > 0

    def test_tiny_priority_partition_with_stall_policy(self):
        cfg = BASE.with_pubs(PubsConfig(priority_entries=1))
        stats = Pipeline(random_branch_program(), cfg).run(1500,
                                                           skip_instructions=500)
        assert stats.committed == 1500
        assert stats.priority_stall_cycles > 0


class TestInstructionCacheEffects:
    def test_tiny_icache_causes_fetch_misses(self):
        mem = MemoryConfig(
            l1i=CacheConfig("L1I", 512, 2, 64, hit_latency=1),
        )
        cfg = BASE.with_overrides(memory=mem)
        # The random-branch program body spans several 64-byte lines; with
        # a 512-byte L1I and the data footprint contending in L2 it still
        # mostly fits, so use a longer program to force capacity misses.
        big = independent_alu_program(n=400)  # > 1600 bytes of code
        pipe = Pipeline(big, cfg)
        stats = pipe.run(2000)
        assert stats.committed == 2000
        assert pipe.hierarchy.stats.l1i_misses > 0

    def test_icache_hits_after_warm(self):
        pipe = Pipeline(counted_branch_program())
        pipe.run(2000, skip_instructions=2000)
        assert pipe.hierarchy.stats.l1i_misses <= 2


class TestBtbEffects:
    def test_cold_btb_mispredicts_taken_branches(self):
        """Without warm-up, the first taken execution of a branch cannot
        redirect fetch (BTB miss) and resolves as a misprediction."""
        stats = Pipeline(counted_branch_program()).run(1000)
        assert stats.btb_misses_taken > 0

    def test_warmed_btb_avoids_cold_misses(self):
        cold = Pipeline(counted_branch_program()).run(1500)
        warm = Pipeline(counted_branch_program()).run(1500,
                                                      skip_instructions=4000)
        assert warm.btb_misses_taken <= cold.btb_misses_taken


class TestRunSemantics:
    def test_second_run_raises(self):
        pipe = Pipeline(independent_alu_program())
        pipe.run(800)
        with pytest.raises(RuntimeError, match="runs once"):
            pipe.run(700)
        assert pipe.stats.committed == 800

    def test_mem_seed_changes_data_dependent_behaviour(self):
        # The workload programs branch on *loaded* data, so the memory
        # seed changes the dynamic branch stream (the micro-programs here
        # use LCG state and are seed-independent by design).
        from repro.workloads import build_program, get_profile
        program = build_program(get_profile("sjeng"))
        a = simulate(program, BASE, 1500, mem_seed=1)
        b = simulate(build_program(get_profile("sjeng")), BASE, 1500,
                     mem_seed=2)
        assert (a.stats.cycles != b.stats.cycles
                or a.stats.mispredictions != b.stats.mispredictions)

    def test_wrong_path_fetch_bounded(self):
        stats = Pipeline(random_branch_program()).run(2500)
        assert 0 < stats.wrong_path_fetched < stats.fetched
        assert stats.fetched - stats.wrong_path_fetched >= stats.committed

    def test_stats_counts_consistent(self):
        stats = Pipeline(random_branch_program()).run(2500,
                                                      skip_instructions=500)
        assert stats.mispredictions <= stats.cond_branches
        assert stats.committed == 2500
        assert stats.cycles > stats.committed / BASE.issue_width


class TestPubsInteractions:
    def test_priority_entries_zero_pubs_enabled(self):
        """PUBS with a zero-size partition degenerates to the base queue
        (every unconfident dispatch stalls... unless non-stall)."""
        cfg = BASE.with_pubs(PubsConfig(priority_entries=0,
                                        stall_policy=False))
        stats = Pipeline(random_branch_program(), cfg).run(1200)
        assert stats.committed == 1200

    def test_mode_switch_toggles_do_not_corrupt_state(self):
        """A program whose LLC MPKI hovers near the threshold flips modes
        repeatedly; the IQ free lists must stay consistent throughout."""
        cfg = BASE.with_pubs(PubsConfig(mode_switch_interval=128,
                                        mode_switch_threshold_mpki=5.0))
        pipe = Pipeline(random_branch_program(), cfg)
        stats = pipe.run(2500)
        assert stats.committed == 2500
        iq = pipe.iq
        assert iq.occupancy + iq.free_priority_count + iq.free_normal_count \
            == iq.size

    def test_blind_and_nonstall_compose(self):
        cfg = BASE.with_pubs(PubsConfig(blind=True, stall_policy=False))
        stats = Pipeline(random_branch_program(), cfg).run(1500)
        assert stats.committed == 1500


class TestArchitecturalFidelity:
    def test_dependent_chain_unaffected_by_pubs(self):
        """A pure serial chain has no branch slices to prioritize; PUBS
        must leave its timing essentially untouched."""
        base_stats = Pipeline(dependent_chain_program(), BASE).run(2000)
        pubs_stats = Pipeline(dependent_chain_program(),
                              BASE.with_pubs()).run(2000)
        assert abs(pubs_stats.ipc - base_stats.ipc) / base_stats.ipc < 0.05

    def test_commit_exactly_target(self):
        for n in (1, 7, 100, 999):
            stats = Pipeline(independent_alu_program()).run(n)
            assert stats.committed == n


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=8, max_value=32),
       st.booleans(), st.booleans())
@settings(max_examples=10, deadline=None)
def test_property_any_machine_completes(width, iq_size, pubs, age):
    """Random small machine configurations always run to completion with
    exact commit counts (no deadlocks, no lost instructions)."""
    if pubs and age:
        age = False
    cfg = ProcessorConfig.cortex_a72_like(
        fetch_width=width, decode_width=width, issue_width=width,
        commit_width=width, iq_size=iq_size, rob_size=max(16, iq_size * 2),
        lsq_size=max(8, iq_size // 2),
    )
    if pubs:
        cfg = cfg.with_pubs(PubsConfig(
            priority_entries=min(4, iq_size - 4)))
    if age:
        cfg = cfg.with_age_matrix()
    stats = Pipeline(random_branch_program(), cfg).run(600)
    assert stats.committed == 600
