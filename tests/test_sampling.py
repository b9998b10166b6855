"""Sampled simulation: region planning, aggregation, end-to-end accuracy.

The subsystem's contract: a session's plan is deterministic pure data,
each region runs as an ordinary independently-cached exec job, and the
weighted aggregate estimates the full run's metrics.  The keystone correctness
test is single-region bit-identity -- a region spanning the whole timed
window must reproduce the full replay run exactly, so any sampling error
comes from *coverage*, never from the region machinery.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core.config import ProcessorConfig
from repro.core.simulator import simulate
from repro.exec.jobs import SimJob, job_key
from repro.sampling import (
    DEFAULT_MAX_FRACTION,
    DEFAULT_REGIONS,
    DEFAULT_WARMUP,
    AdaptiveSession,
    Region,
    cluster_windows,
    estimate_cpi,
    estimate_misspec_penalty,
    sample_workload,
    sampled_vs_full_error,
    signature_distance,
    window_signature,
)
from repro.trace import capture_trace
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BASE = ProcessorConfig.cortex_a72_like()


def _result(cycles, committed, penalty=0, mispredictions=0):
    return SimpleNamespace(stats=SimpleNamespace(
        cycles=cycles, committed=committed,
        missspec_penalty_cycles=penalty, mispredictions=mispredictions))


# ----------------------------------------------------------------------
# Region and plan invariants
# ----------------------------------------------------------------------

class TestRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            Region(start=100, warmup=0, measure=0)
        with pytest.raises(ValueError):
            Region(start=100, warmup=-1, measure=10)
        with pytest.raises(ValueError):
            Region(start=100, warmup=90, detail=20, measure=10)
        with pytest.raises(ValueError):
            Region(start=100, warmup=50, measure=10, weight=0)
        region = Region(start=100, warmup=80, detail=20, measure=10)
        assert region.end == 110

    def test_region_changes_job_key(self):
        plain = BASE
        a = plain.with_region(1000, 500, 100)
        b = plain.with_region(2000, 500, 100)
        from repro.exec.jobs import SimJob
        keys = {job_key(SimJob.make("sjeng", cfg, 500, 0))
                for cfg in (plain, a, b)}
        assert len(keys) == 3


class TestSimPointPlan:
    """Fixed sampling: a session started at its region cap."""

    @pytest.fixture(scope="class")
    def store(self):
        return TraceStore(persistent=False)

    @staticmethod
    def _plan(store, workload="sjeng", instructions=20_000, skip=2000,
              **kwargs):
        return AdaptiveSession(
            workload, [BASE], instructions=instructions, skip=skip,
            start_regions=DEFAULT_REGIONS, regions=DEFAULT_REGIONS,
            jobs=1, cache=False, store=store, **kwargs).plan

    def test_deterministic(self, store):
        assert self._plan(store) == self._plan(store)

    def test_weights_cover_every_window(self, store):
        plan = self._plan(store, measure=1000)
        assert sum(r.weight for r in plan.regions) == 20_000 // 1000
        assert len(plan.regions) <= DEFAULT_REGIONS
        assert plan.coverage <= DEFAULT_MAX_FRACTION + 1e-9
        assert all(r.warmup <= DEFAULT_WARMUP for r in plan.regions)

    def test_distinct_job_keys_per_region(self, store):
        plan = self._plan(store)
        jobs = [SimJob.make("sjeng", BASE.with_region(r.start, r.warmup,
                                                      r.detail),
                            r.measure, 0) for r in plan.regions]
        keys = {job_key(job) for job in jobs}
        assert len(keys) == len(plan.regions)

    def test_tiny_span_shrinks_window(self, store):
        plan = self._plan(store, instructions=30, skip=0)
        assert len(plan.regions) == 1
        assert plan.simulated_records <= 10  # 1/3 of 30

    def test_full_prefix_warmup_when_uncapped(self, store):
        plan = self._plan(store, instructions=9000, skip=1000, warmup=None)
        for region in plan.regions:
            assert region.warmup + region.detail == region.start


# ----------------------------------------------------------------------
# Signatures and clustering
# ----------------------------------------------------------------------

class TestSignatures:
    @pytest.fixture(scope="class")
    def trace(self):
        profile = get_profile("gcc")
        return capture_trace(build_program(profile), profile.mem_seed, 4096)

    def test_signature_is_normalized_and_stable(self, trace):
        a = window_signature(trace, 0, 1024)
        b = window_signature(trace, 0, 1024)
        assert a == b
        pc_mass = sum(v for k, v in a.items() if k[0] == "pc")
        assert pc_mass == pytest.approx(1.0)

    def test_distance_metric_basics(self, trace):
        a = window_signature(trace, 0, 1024)
        b = window_signature(trace, 2048, 1024)
        assert signature_distance(a, a) == 0.0
        assert signature_distance(a, b) == signature_distance(b, a)
        assert signature_distance(a, b) >= 0.0

    def test_cluster_windows_partitions_population(self, trace):
        sigs = [window_signature(trace, i * 512, 512) for i in range(8)]
        medoids, weights = cluster_windows(sigs, 3)
        assert len(medoids) == len(weights) <= 3
        assert sorted(medoids) == sorted(set(medoids))
        assert sum(weights) == len(sigs)
        # k >= population: every window represents itself.
        medoids, weights = cluster_windows(sigs, 100)
        assert sorted(medoids) == list(range(8))
        assert all(w == 1 for w in weights)


# ----------------------------------------------------------------------
# Aggregation math
# ----------------------------------------------------------------------

class TestAggregate:
    def test_weighted_cpi_is_ratio_of_weighted_sums(self):
        results = [_result(100, 50), _result(300, 100)]
        est = estimate_cpi(results, weights=[1, 3])
        assert est.point == pytest.approx((100 + 900) / (50 + 300))
        # Spread stays unweighted: one value per region.
        assert est.summary.n == 2

    def test_unweighted_defaults_to_ones(self):
        results = [_result(100, 50), _result(300, 100)]
        assert estimate_cpi(results).point == pytest.approx(400 / 150)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_cpi([_result(1, 1)], weights=[1, 2])

    def test_single_region_has_no_error_claim(self):
        est = estimate_cpi([_result(100, 50)])
        assert est.point == 2.0
        assert math.isnan(est.stderr)
        assert all(math.isnan(v) for v in est.ci95)

    def test_misspec_penalty_skips_clean_regions(self):
        results = [_result(100, 50, penalty=40, mispredictions=4),
                   _result(100, 50, penalty=0, mispredictions=0)]
        est = estimate_misspec_penalty(results, weights=[2, 5])
        assert est.point == pytest.approx(80 / 8)
        assert est.summary.n == 1  # clean region contributes no spread value

    def test_all_clean_regions_yield_nan(self):
        est = estimate_misspec_penalty([_result(100, 50)])
        assert math.isnan(est.point)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------

class TestSampleWorkload:
    def test_whole_span_region_is_bit_identical_to_full_run(self):
        """A region covering the entire timed window == the full run."""
        profile = get_profile("sjeng")
        program = build_program(profile)
        store = TraceStore(persistent=False)
        full = simulate(program, BASE,
                        max_instructions=1500, skip_instructions=1000,
                        mem_seed=profile.mem_seed, trace_source=store)
        region = simulate(program,
                          BASE.with_region(start=1000, warmup=1000),
                          max_instructions=1500,
                          mem_seed=profile.mem_seed, trace_source=store)
        assert region.stats.cycles == full.stats.cycles
        assert region.stats.committed == full.stats.committed
        assert region.stats.mispredictions == full.stats.mispredictions

    @pytest.mark.parametrize("sampling", ["fixed", "adaptive"])
    def test_strategies_produce_estimates(self, sampling):
        run = sample_workload("mcf", BASE, instructions=6000, skip=1000,
                              sampling=sampling, jobs=1, cache=False,
                              store=TraceStore(persistent=False))
        assert run.coverage <= DEFAULT_MAX_FRACTION + 1e-9
        assert len(run.results) == len(run.plan.regions)
        assert run.cpi.point > 0
        assert all(r.weight >= 1 for r in run.plan.regions)

    def test_sampled_cpi_near_full_run(self):
        """Accuracy smoke at a small budget (the bench gates 3% at 60k)."""
        profile = get_profile("mcf")
        program = build_program(profile)
        store = TraceStore(persistent=False)
        full = simulate(program, BASE,
                        max_instructions=20_000, skip_instructions=2000,
                        mem_seed=profile.mem_seed, trace_source=store)
        run = sample_workload("mcf", BASE, instructions=20_000, skip=2000,
                              jobs=1, cache=False, store=store)
        assert sampled_vs_full_error(run, full) <= 0.05

    def test_unknown_strategy_rejected(self):
        for sampling in ("psychic", "off"):  # sample_workload always samples
            with pytest.raises(ValueError):
                sample_workload("mcf", sampling=sampling)
