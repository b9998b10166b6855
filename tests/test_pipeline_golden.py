"""Golden-stats regression anchors for the timing model.

The hot-path optimizations in ``core/pipeline.py``, ``iq/queue.py`` and
``iq/select.py`` (slots, hoisted locals, the incremental ready set) carry a
hard requirement: **bit-identical** behaviour.  These goldens were captured
from the pre-optimization simulator on fixed-seed workloads covering every
scheduling path -- the random queue with and without PUBS, the age matrix,
the distributed IQ, the shifting organization and the circular one (whose
lingering holes block dispatch on astar).  Any timing-visible change to the
scheduler must reproduce these counters exactly or consciously update
them (and bump ``repro.exec.serialize.CACHE_SCHEMA_VERSION`` alongside).
"""

import dataclasses

import pytest

from repro import ProcessorConfig
from repro.analysis import run_workload

BASE = ProcessorConfig.cortex_a72_like()

CONFIGS = {
    "sjeng_base": ("sjeng", BASE),
    "sjeng_pubs": ("sjeng", BASE.with_pubs()),
    "gcc_age": ("gcc", BASE.with_age_matrix()),
    "mcf_dist_pubs": ("mcf",
                      BASE.with_overrides(distributed_iq=True).with_pubs()),
    "gobmk_shift": ("gobmk",
                    BASE.with_overrides(iq_organization="shifting")),
    "astar_circular": ("astar",
                       BASE.with_overrides(iq_organization="circular")),
}

INSTRUCTIONS = 3000
SKIP = 2000

#: SimStats captured from the seed (pre-optimization) simulator.  The
#: ``td_*`` topdown slot buckets and the disjoint stall-cause split
#: (priority stalls no longer double-counted into
#: ``iq_full_stall_cycles``) were captured when they landed; cycle
#: counts and every other counter still match the seed exactly.
GOLDEN_STATS = {
    "sjeng_base": {
        "cycles": 2883, "committed": 3000, "fetched": 7474,
        "wrong_path_fetched": 4386, "cond_branches": 174,
        "mispredictions": 40, "btb_misses_taken": 0,
        "missspec_penalty_cycles": 1624, "missspec_frontend_cycles": 231,
        "missspec_iq_wait_cycles": 1353, "missspec_execute_cycles": 40,
        "dispatch_stall_cycles": 595, "rob_full_stall_cycles": 462,
        "iq_full_stall_cycles": 0, "lsq_full_stall_cycles": 0,
        "regs_full_stall_cycles": 133, "priority_stall_cycles": 0,
        "priority_dispatches": 0, "unconfident_dispatches": 0,
        "td_retire_slots": 3088, "td_wrongpath_slots": 3378,
        "td_recovery_slots": 2400, "td_fe_fetch_slots": 481,
        "td_fe_l1i_slots": 0, "td_be_rob_slots": 1730,
        "td_be_iq_slots": 0, "td_be_lsq_slots": 0,
        "td_be_regs_slots": 455, "td_be_priority_slots": 0,
        "iq_occupancy_sum": 51336, "llc_misses": 1, "l1d_misses": 167, "l1i_misses": 0,
    },
    "sjeng_pubs": {
        "cycles": 2659, "committed": 3000, "fetched": 4953,
        "wrong_path_fetched": 1887, "cond_branches": 174,
        "mispredictions": 40, "btb_misses_taken": 0,
        "missspec_penalty_cycles": 1019, "missspec_frontend_cycles": 404,
        "missspec_iq_wait_cycles": 575, "missspec_execute_cycles": 40,
        "dispatch_stall_cycles": 1196, "rob_full_stall_cycles": 10,
        "iq_full_stall_cycles": 0, "lsq_full_stall_cycles": 0,
        "regs_full_stall_cycles": 0, "priority_stall_cycles": 1186,
        "priority_dispatches": 1114, "unconfident_dispatches": 2300,
        "td_retire_slots": 3038, "td_wrongpath_slots": 898,
        "td_recovery_slots": 2400, "td_fe_fetch_slots": 158,
        "td_fe_l1i_slots": 0, "td_be_rob_slots": 37,
        "td_be_iq_slots": 0, "td_be_lsq_slots": 0,
        "td_be_regs_slots": 0, "td_be_priority_slots": 4105,
        "iq_occupancy_sum": 19916, "llc_misses": 1, "l1d_misses": 170, "l1i_misses": 0,
    },
    "gcc_age": {
        "cycles": 3108, "committed": 3000, "fetched": 6142,
        "wrong_path_fetched": 3134, "cond_branches": 276,
        "mispredictions": 39, "btb_misses_taken": 0,
        "missspec_penalty_cycles": 1043, "missspec_frontend_cycles": 236,
        "missspec_iq_wait_cycles": 768, "missspec_execute_cycles": 39,
        "dispatch_stall_cycles": 1172, "rob_full_stall_cycles": 0,
        "iq_full_stall_cycles": 138, "lsq_full_stall_cycles": 0,
        "regs_full_stall_cycles": 1034, "priority_stall_cycles": 0,
        "priority_dispatches": 0, "unconfident_dispatches": 0,
        "td_retire_slots": 3008, "td_wrongpath_slots": 2296,
        "td_recovery_slots": 2340, "td_fe_fetch_slots": 611,
        "td_fe_l1i_slots": 0, "td_be_rob_slots": 0,
        "td_be_iq_slots": 238, "td_be_lsq_slots": 0,
        "td_be_regs_slots": 3939, "td_be_priority_slots": 0,
        "iq_occupancy_sum": 60252, "llc_misses": 4, "l1d_misses": 179, "l1i_misses": 0,
    },
    "mcf_dist_pubs": {
        "cycles": 25148, "committed": 3000, "fetched": 6033,
        "wrong_path_fetched": 2901, "cond_branches": 152,
        "mispredictions": 42, "btb_misses_taken": 0,
        "missspec_penalty_cycles": 13003, "missspec_frontend_cycles": 1755,
        "missspec_iq_wait_cycles": 11205, "missspec_execute_cycles": 43,
        "dispatch_stall_cycles": 23642, "rob_full_stall_cycles": 0,
        "iq_full_stall_cycles": 167, "lsq_full_stall_cycles": 0,
        "regs_full_stall_cycles": 21184, "priority_stall_cycles": 2291,
        "priority_dispatches": 1081, "unconfident_dispatches": 3372,
        "td_retire_slots": 3107, "td_wrongpath_slots": 1727,
        "td_recovery_slots": 2580, "td_fe_fetch_slots": 110,
        "td_fe_l1i_slots": 0, "td_be_rob_slots": 0,
        "td_be_iq_slots": 269, "td_be_lsq_slots": 0,
        "td_be_regs_slots": 84228, "td_be_priority_slots": 8571,
        "iq_occupancy_sum": 260198, "llc_misses": 314, "l1d_misses": 314, "l1i_misses": 0,
    },
    "gobmk_shift": {
        "cycles": 3081, "committed": 3000, "fetched": 8765,
        "wrong_path_fetched": 5694, "cond_branches": 208,
        "mispredictions": 58, "btb_misses_taken": 0,
        "missspec_penalty_cycles": 1687, "missspec_frontend_cycles": 312,
        "missspec_iq_wait_cycles": 1317, "missspec_execute_cycles": 58,
        "dispatch_stall_cycles": 393, "rob_full_stall_cycles": 0,
        "iq_full_stall_cycles": 312, "lsq_full_stall_cycles": 0,
        "regs_full_stall_cycles": 81, "priority_stall_cycles": 0,
        "priority_dispatches": 0, "unconfident_dispatches": 0,
        "td_retire_slots": 3071, "td_wrongpath_slots": 4401,
        "td_recovery_slots": 3480, "td_fe_fetch_slots": 621,
        "td_fe_l1i_slots": 0, "td_be_rob_slots": 0,
        "td_be_iq_slots": 549, "td_be_lsq_slots": 0,
        "td_be_regs_slots": 202, "td_be_priority_slots": 0,
        "iq_occupancy_sum": 80867, "llc_misses": 1, "l1d_misses": 180, "l1i_misses": 0,
    },
    "astar_circular": {
        "cycles": 5451, "committed": 3000, "fetched": 9698,
        "wrong_path_fetched": 6695, "cond_branches": 215,
        "mispredictions": 82, "btb_misses_taken": 0,
        "missspec_penalty_cycles": 3786, "missspec_frontend_cycles": 1634,
        "missspec_iq_wait_cycles": 2070, "missspec_execute_cycles": 82,
        "dispatch_stall_cycles": 2245, "rob_full_stall_cycles": 0,
        "iq_full_stall_cycles": 940, "lsq_full_stall_cycles": 0,
        "regs_full_stall_cycles": 1305, "priority_stall_cycles": 0,
        "priority_dispatches": 0, "unconfident_dispatches": 0,
        "td_retire_slots": 3003, "td_wrongpath_slots": 4552,
        "td_recovery_slots": 4920, "td_fe_fetch_slots": 782,
        "td_fe_l1i_slots": 0, "td_be_rob_slots": 0,
        "td_be_iq_slots": 3359, "td_be_lsq_slots": 0,
        "td_be_regs_slots": 5188, "td_be_priority_slots": 0,
        "iq_occupancy_sum": 49423, "llc_misses": 21, "l1d_misses": 219, "l1i_misses": 0,
    },
}

#: Derived/side-structure metrics (floats; still deterministic).
GOLDEN_EXTRA = {
    "sjeng_base": {"predictor_accuracy": 0.7389830508474576,
                   "select_avg_grants": 2.0242802636142905,
                   "iq_priority_dispatches": 0},
    "sjeng_pubs": {"predictor_accuracy": 0.7414965986394557,
                   "select_avg_grants": 1.27830011282437,
                   "iq_priority_dispatches": 1114},
    "gcc_age": {"predictor_accuracy": 0.8406113537117904,
                "select_avg_grants": 1.3178893178893178,
                "iq_priority_dispatches": 0},
    "mcf_dist_pubs": {"predictor_accuracy": 0.7126436781609196,
                      "select_avg_grants": 0.18601876888818197,
                      "iq_priority_dispatches": 1081},
    "gobmk_shift": {"predictor_accuracy": 0.7327586206896552,
                    "select_avg_grants": 1.5335929892891917,
                    "iq_priority_dispatches": 0},
    "astar_circular": {"predictor_accuracy": 0.6121883656509695,
                       "select_avg_grants": 1.2285819115758576,
                       "iq_priority_dispatches": 0},
}


def _check_against_golden(result, tag):
    assert dataclasses.asdict(result.stats) == GOLDEN_STATS[tag]
    extra = GOLDEN_EXTRA[tag]
    assert result.predictor_accuracy == pytest.approx(
        extra["predictor_accuracy"], rel=0, abs=0)
    assert result.select_avg_grants == pytest.approx(
        extra["select_avg_grants"], rel=0, abs=0)
    assert result.iq_priority_dispatches == extra["iq_priority_dispatches"]


@pytest.mark.parametrize("tag", sorted(CONFIGS))
def test_stats_match_seed_golden(tag):
    workload, config = CONFIGS[tag]
    result = run_workload(workload, config, instructions=INSTRUCTIONS,
                          skip=SKIP, cache=False)
    _check_against_golden(result, tag)


@pytest.fixture(scope="module")
def trace_store(tmp_path_factory):
    """A private trace store shared by the store-reuse goldens (one
    capture per workload, exercising warm-checkpoint reuse across
    configs)."""
    from repro.trace.store import TraceStore
    return TraceStore(root=tmp_path_factory.mktemp("traces"),
                      persistent=True)


@pytest.mark.parametrize("tag", sorted(CONFIGS))
def test_stats_match_seed_golden_replay(tag, trace_store):
    """The same goldens straight from ``simulate`` over one private store
    shared by every config: later configs of a workload replay its
    capture and restore its warm checkpoints instead of training them."""
    from repro.core.simulator import simulate
    from repro.workloads.generator import build_program
    from repro.workloads.profiles import get_profile

    workload, config = CONFIGS[tag]
    profile = get_profile(workload)
    result = simulate(
        build_program(profile), config,
        max_instructions=INSTRUCTIONS, skip_instructions=SKIP,
        mem_seed=profile.mem_seed, trace_source=trace_store)
    _check_against_golden(result, tag)
