"""Integration tests for the out-of-order pipeline on micro-programs with
known timing behaviour."""

import dataclasses

import pytest

from repro.core import DeadlockError, Pipeline, ProcessorConfig, simulate
from repro.isa.instruction import Program
from repro.memory import CacheConfig
from repro.pubs import PubsConfig
from repro.workloads import build_program, spec2006_profiles

from tests.microprograms import (
    counted_branch_program,
    dependent_chain_program,
    independent_alu_program,
    mul_chain_program,
    pointer_chase_program,
    random_branch_program,
    store_load_forward_program,
)


BASE = ProcessorConfig.cortex_a72_like()
PUBS = BASE.with_pubs()


class TestThroughputLimits:
    def test_ilp_program_reaches_high_ipc(self):
        # The 2-iALU limit bounds this at 2.0; the random queue's position-
        # based select loses some of it to ROB-head starvation (the IPC
        # penalty Sec. III-B1 attributes to random queues).
        stats = Pipeline(independent_alu_program()).run(3000)
        assert stats.ipc > 1.4

    def test_dependent_chain_ipc_near_one(self):
        stats = Pipeline(dependent_chain_program()).run(3000)
        assert 0.8 < stats.ipc < 1.3

    def test_mul_chain_ipc_near_third(self):
        stats = Pipeline(mul_chain_program()).run(3000)
        assert 0.25 < stats.ipc < 0.45

    def test_ipc_never_exceeds_width(self):
        stats = Pipeline(independent_alu_program(16)).run(3000)
        assert stats.ipc <= BASE.issue_width


class TestBranchHandling:
    def test_predictable_branch_low_mpki(self):
        stats = Pipeline(counted_branch_program()).run(5000, skip_instructions=5000)
        assert stats.branch_mpki < 5

    def test_random_branch_high_mpki(self):
        stats = Pipeline(random_branch_program()).run(5000, skip_instructions=2000)
        # One 50/50 branch every ~11 committed instructions -> ~45 MPKI.
        assert stats.branch_mpki > 25

    def test_mispredictions_cause_wrong_path_fetch(self):
        stats = Pipeline(random_branch_program()).run(3000, skip_instructions=1000)
        assert stats.wrong_path_fetched > 0
        assert stats.missspec_penalty_cycles > 0

    def test_no_wrong_path_without_mispredictions(self):
        stats = Pipeline(independent_alu_program()).run(2000)
        assert stats.mispredictions == 0
        assert stats.wrong_path_fetched == 0

    def test_misprediction_decomposition_sums(self):
        stats = Pipeline(random_branch_program()).run(3000, skip_instructions=1000)
        total = (stats.missspec_frontend_cycles + stats.missspec_iq_wait_cycles
                 + stats.missspec_execute_cycles)
        assert total == stats.missspec_penalty_cycles

    def test_recovery_preserves_architectural_stream(self):
        """After many recoveries the committed count still reaches the
        target exactly (no lost or duplicated instructions)."""
        stats = Pipeline(random_branch_program()).run(4000)
        assert stats.committed == 4000


class TestMemoryBehaviour:
    def test_store_load_forwarding_used(self):
        pipe = Pipeline(store_load_forward_program())
        pipe.run(2000)
        assert pipe.lsq.forwards > 100

    def test_pointer_chase_is_memory_bound(self):
        stats = Pipeline(pointer_chase_program()).run(600)
        assert stats.ipc < 0.2
        assert stats.llc_mpki > 100

    def test_prewarm_regions_respected(self):
        chase = pointer_chase_program()
        # A program is immutable: warm a small window in a new one.
        prog = Program(chase.name, chase.insts,
                       chase.warm_regions + ((1 << 30, 64 * 1024),))
        stats = Pipeline(prog).run(300)
        assert stats.committed == 300


def _per_line_prewarm(pipe):
    """The reference prewarm: one ``install`` per line of every region that
    fits the 3/4-LLC budget, oldest region first."""
    l2 = pipe.hierarchy.l2
    budget = l2.config.size_bytes * 3 // 4
    warmed = 0
    for start, size in pipe.program.warm_regions:
        if warmed + size > budget:
            continue
        warmed += size
        for addr in range(start, start + size, l2.config.line_bytes):
            l2.install(addr)
    return l2._sets


class TestPrewarmImage:
    @pytest.mark.parametrize("name", sorted(spec2006_profiles()))
    def test_every_profile_matches_per_line_installs(self, name):
        program = build_program(spec2006_profiles()[name])
        pipe = Pipeline(program)
        pipe._prewarm_regions()
        assert pipe.hierarchy.l2._sets == _per_line_prewarm(Pipeline(program))

    def test_changed_layout_or_geometry_never_reuses_an_image(self):
        program = build_program(spec2006_profiles()["sjeng"])
        first = Pipeline(program)
        first._prewarm_regions()
        # The same program with one more region: the new region must be
        # warm, not the previous layout's image.
        program = Program(program.name, program.insts,
                          program.warm_regions + ((1 << 34, 64 * 1024),))
        grown = Pipeline(program)
        grown._prewarm_regions()
        assert grown.hierarchy.l2._sets != first.hierarchy.l2._sets
        assert grown.hierarchy.l2._sets == _per_line_prewarm(Pipeline(program))
        # Same layout, half the LLC: 1024 sets, so other sets and tags.
        small = dataclasses.replace(
            BASE, memory=dataclasses.replace(
                BASE.memory, l2=CacheConfig("L2", 1 << 20, 16, 64, 12)))
        halved = Pipeline(program, small)
        halved._prewarm_regions()
        assert len(halved.hierarchy.l2._sets) == 1024
        assert halved.hierarchy.l2._sets == _per_line_prewarm(
            Pipeline(program, small))


class TestDeterminism:
    def test_same_run_twice_identical(self):
        s1 = Pipeline(random_branch_program(), PUBS).run(2000)
        s2 = Pipeline(random_branch_program(), PUBS).run(2000)
        assert s1.cycles == s2.cycles
        assert s1.mispredictions == s2.mispredictions
        assert s1.iq_occupancy_sum == s2.iq_occupancy_sum


class TestPubsMechanics:
    def test_priority_dispatches_happen(self):
        pipe = Pipeline(random_branch_program(), PUBS)
        pipe.run(3000, skip_instructions=1000)
        assert pipe.iq.priority_dispatches > 0

    def test_base_never_uses_priority_entries(self):
        pipe = Pipeline(random_branch_program(), BASE)
        pipe.run(2000)
        assert pipe.iq.priority_dispatches == 0
        assert pipe.iq.priority_entries == 0

    def test_pubs_reduces_iq_wait_on_hard_branches(self):
        base_stats = Pipeline(random_branch_program(), BASE).run(
            4000, skip_instructions=1000)
        pubs_stats = Pipeline(random_branch_program(), PUBS).run(
            4000, skip_instructions=1000)
        assert pubs_stats.avg_missspec_iq_wait < base_stats.avg_missspec_iq_wait

    def test_nonstall_policy_runs(self):
        cfg = BASE.with_pubs(PubsConfig(stall_policy=False))
        stats = Pipeline(random_branch_program(), cfg).run(2000)
        assert stats.committed == 2000
        assert stats.priority_stall_cycles == 0

    def test_stall_policy_counts_stalls(self):
        cfg = BASE.with_pubs(PubsConfig(priority_entries=2))
        pipe = Pipeline(random_branch_program(), cfg)
        stats = pipe.run(3000, skip_instructions=500)
        assert stats.priority_stall_cycles > 0

    def test_blind_mode_runs(self):
        cfg = BASE.with_pubs(PubsConfig(blind=True))
        stats = Pipeline(random_branch_program(), cfg).run(2000)
        assert stats.committed == 2000

    def test_mode_switch_disables_on_memory_phase(self):
        cfg = BASE.with_pubs(PubsConfig(mode_switch_interval=256))
        pipe = Pipeline(pointer_chase_program(), cfg)
        pipe.run(600)
        assert pipe.mode_switch.stats.disabled_windows > 0


class TestAgeMatrixIntegration:
    def test_age_matrix_machine_runs(self):
        stats = Pipeline(random_branch_program(), BASE.with_age_matrix()).run(2000)
        assert stats.committed == 2000

    def test_age_grants_recorded(self):
        pipe = Pipeline(independent_alu_program(), BASE.with_age_matrix())
        pipe.run(2000)
        assert pipe.select_logic.stats.age_grants > 0

    def test_pubs_plus_age_runs(self):
        cfg = PUBS.with_age_matrix()
        stats = Pipeline(random_branch_program(), cfg).run(2000)
        assert stats.committed == 2000


class TestIqOrganizations:
    def test_all_organizations_run_to_completion(self):
        for org in ("random", "shifting", "circular"):
            cfg = BASE.with_overrides(iq_organization=org)
            stats = Pipeline(random_branch_program(), cfg).run(2000)
            assert stats.committed == 2000, org

    def test_shifting_beats_random_ipc(self):
        """Sec. III-B1: age-ordered selection has better IPC than random."""
        shifting = BASE.with_overrides(iq_organization="shifting")
        s_rand = Pipeline(random_branch_program(), BASE).run(
            3000, skip_instructions=500)
        s_shift = Pipeline(random_branch_program(), shifting).run(
            3000, skip_instructions=500)
        assert s_shift.ipc > s_rand.ipc

    def test_pubs_requires_random_queue(self):
        with pytest.raises(ValueError):
            PUBS.with_overrides(iq_organization="shifting")

    def test_age_matrix_requires_random_queue(self):
        with pytest.raises(ValueError):
            BASE.with_age_matrix().with_overrides(iq_organization="circular")

    def test_unknown_organization_rejected(self):
        with pytest.raises(ValueError):
            BASE.with_overrides(iq_organization="fifo")


class TestDriverApi:
    def test_simulate_returns_result(self):
        result = simulate(independent_alu_program(), BASE, max_instructions=1000)
        assert result.stats.committed == 1000
        assert result.program_name == "ilp"
        assert 0 <= result.predictor_accuracy <= 1
        assert "IPC" in result.summary()

    def test_max_cycles_deadlock_guard(self):
        with pytest.raises(DeadlockError):
            Pipeline(pointer_chase_program()).run(10_000, max_cycles=50)

    def test_invalid_instruction_count(self):
        with pytest.raises(ValueError):
            Pipeline(independent_alu_program()).run(0)

    def test_skip_fast_forwards_program_state(self):
        """Skipping trains the predictor: the counted branch is already
        learned when timing starts."""
        cold = Pipeline(counted_branch_program()).run(2000)
        warm = Pipeline(counted_branch_program()).run(2000, skip_instructions=8000)
        assert warm.mispredictions <= cold.mispredictions
