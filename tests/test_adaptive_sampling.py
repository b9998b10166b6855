"""Adaptive variance-driven sampling, the run facade, and RunRequest.

Covers the escalation contract of a one-cell table (deterministic
schedule, CI-target convergence, region-cap respect), the jackknife/floor
error model behind
its stopping rule, the ``RunRequest`` precedence chain (explicit > env >
default), the sampled suite's honesty (full-budget goldens inside the
reported CIs, loud fallback when a trace is unavailable), and the
``repro.api`` facade.
"""

import math
from types import SimpleNamespace

import pytest

import repro.api as api
from repro.core.config import ProcessorConfig, RunRequest
from repro.core.simulator import simulate
from repro.sampling import (
    CI_RELATIVE_FLOOR,
    DEFAULT_CI_TARGET,
    AdaptiveRun,
    AdaptiveSession,
    TableController,
    estimate_cpi,
    sample_workload,
)
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BASE = ProcessorConfig.cortex_a72_like()
PUBS = BASE.with_pubs()


def _result(cycles, committed, penalty=0, mispredictions=0):
    return SimpleNamespace(stats=SimpleNamespace(
        cycles=cycles, committed=committed,
        missspec_penalty_cycles=penalty, mispredictions=mispredictions))


# ----------------------------------------------------------------------
# Error model: jackknife, CI floor, zero-point honesty
# ----------------------------------------------------------------------

class TestErrorModel:
    def test_jackknife_stderr_over_weighted_terms(self):
        # terms (100,50) and (900,300): leave-one-out ratios 3 and 2,
        # jackknife variance (n-1)/n * sum((v-mean)^2) = 0.25.
        est = estimate_cpi([_result(100, 50), _result(300, 100)],
                           weights=[1, 3])
        assert est.terms == ((100, 50), (900, 300))
        assert est.stderr == pytest.approx(0.5)

    def test_ci_floor_binds_on_identical_regions(self):
        # Identical regions: jackknife spread is exactly 0, but the
        # window-tiling truncation bias still exists -- the floor keeps
        # the reported interval from claiming impossible precision.
        est = estimate_cpi([_result(100, 50)] * 4)
        assert est.point == 2.0
        assert est.ci_halfwidth == pytest.approx(CI_RELATIVE_FLOOR * 2.0)
        assert est.relative_error == pytest.approx(CI_RELATIVE_FLOOR)

    def test_zero_point_relative_error_is_nan(self):
        # A 0.0 point estimate used to ZeroDivisionError; it now carries
        # no relative-error claim, like the n=1 stderr convention.
        est = estimate_cpi([_result(0, 50), _result(0, 100)])
        assert est.point == 0.0
        assert math.isnan(est.relative_error)

    def test_zero_point_renders_na(self):
        from repro.cli import _pct
        est = estimate_cpi([_result(0, 50), _result(0, 100)])
        assert _pct(est.relative_error) == "n/a"

    def test_single_region_still_nan(self):
        est = estimate_cpi([_result(100, 50)])
        assert math.isnan(est.stderr)
        assert math.isnan(est.relative_error)


# ----------------------------------------------------------------------
# The escalation loop
# ----------------------------------------------------------------------

class TestAdaptiveEscalation:
    def _run(self, name, **kwargs):
        """One adaptive cell: a one-config table."""
        kwargs.setdefault("instructions", 6000)
        kwargs.setdefault("skip", 1000)
        kwargs.setdefault("max_fraction", 1.0)
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("cache", False)
        kwargs.setdefault("store", TraceStore(persistent=False))
        kwargs.setdefault("ci_target", DEFAULT_CI_TARGET)
        session = AdaptiveSession(name, [BASE], **kwargs)
        controller = TableController(kwargs["ci_target"])
        controller.add(name, session)
        controller.run()
        return controller.results()[name][0]

    def test_returns_adaptive_run_with_rounds(self):
        run = self._run("mcf")
        assert isinstance(run, AdaptiveRun)
        assert run.rounds
        assert run.rounds[-1].regions == len(run.plan.regions)
        assert run.rounds[-1].relative_ci == pytest.approx(
            run.relative_ci, nan_ok=True)
        # Escalation only ever adds regions.
        counts = [r.regions for r in run.rounds]
        assert counts == sorted(counts)

    def test_converged_means_ci_target_met(self):
        run = self._run("mcf", ci_target=0.5)  # generous: must converge
        assert run.converged
        assert run.relative_ci <= 0.5

    def test_respects_region_cap(self):
        run = self._run("sjeng", ci_target=1e-6, regions=4,
                        max_fraction=1.0)
        assert not run.converged  # floor makes 1e-6 unreachable
        assert len(run.plan.regions) <= 4

    def test_cap_at_start_regions_never_escalates(self):
        run = self._run("sjeng", ci_target=1e-6, regions=3,
                        start_regions=3, max_fraction=1.0)
        assert len(run.plan.regions) == 3
        assert len(run.rounds) == 1

    def test_deterministic_for_fixed_trace(self):
        a = self._run("gcc", max_fraction=1.0)
        b = self._run("gcc", max_fraction=1.0)
        assert a.plan == b.plan
        assert a.cpi.point == b.cpi.point
        assert [(r.regions, r.relative_ci) for r in a.rounds] \
            == [(r.regions, r.relative_ci) for r in b.rounds]

    def test_weights_cover_every_window(self):
        run = self._run("sjeng", max_fraction=1.0)
        windows = 6000 // run.plan.regions[0].measure
        assert sum(r.weight for r in run.plan.regions) == windows

    def test_high_variance_workload_escalates_past_start(self):
        run = self._run("gcc", max_fraction=1.0, ci_target=0.02)
        assert len(run.plan.regions) > 3

    def test_validation(self):
        with pytest.raises(ValueError):
            self._run("mcf", ci_target=0.0)
        with pytest.raises(ValueError):
            self._run("mcf", start_regions=0)
        with pytest.raises(ValueError):
            self._run("mcf", batch=0)
        with pytest.raises(ValueError):
            self._run("mcf", regions=0)

    def test_cap_below_start_clamps_the_starting_set(self):
        run = self._run("sjeng", ci_target=1e-6, regions=2,
                        start_regions=3)
        assert len(run.plan.regions) == 2
        assert len(run.rounds) == 1
        run = self._run("sjeng", regions=1)
        assert len(run.plan.regions) == 1
        assert math.isnan(run.relative_ci)  # one region: no CI claim

    def test_strategy_dispatch_from_sample_workload(self):
        run = sample_workload("mcf", BASE, instructions=6000, skip=1000,
                              sampling="adaptive", jobs=1, cache=False,
                              store=TraceStore(persistent=False))
        assert isinstance(run, AdaptiveRun)
        assert run.ci_target == DEFAULT_CI_TARGET

    def test_ci_target_requires_adaptive(self):
        with pytest.raises(ValueError):
            sample_workload("mcf", sampling="fixed", ci_target=0.05)


# ----------------------------------------------------------------------
# RunRequest: validation and precedence (explicit > env > default)
# ----------------------------------------------------------------------

class TestRunRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunRequest(sampling="psychic")
        with pytest.raises(TypeError):  # replay is the only front end
            RunRequest(frontend="replay")
        with pytest.raises(ValueError):
            RunRequest(ci_target=-1.0)
        with pytest.raises(ValueError):
            RunRequest(sampling="fixed", ci_target=0.05)
        with pytest.raises(ValueError):
            RunRequest(instructions=0)
        with pytest.raises(ValueError):
            RunRequest(max_fraction=1.5)
        assert RunRequest(sampling="adaptive", ci_target=0.05)

    def test_env_fills_unset_sampling(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLING", "fixed")
        assert RunRequest().resolved().sampling == "fixed"

    def test_explicit_sampling_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLING", "adaptive")
        assert RunRequest(sampling="off").resolved().sampling == "off"

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLING", raising=False)
        assert RunRequest().resolved().sampling == "off"

    def test_env_ci_target(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLING", "adaptive")
        monkeypatch.setenv("REPRO_CI_TARGET", "0.02")
        assert RunRequest().resolved().ci_target == pytest.approx(0.02)

    def test_explicit_ci_target_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CI_TARGET", "0.02")
        req = RunRequest(sampling="adaptive", ci_target=0.1).resolved()
        assert req.ci_target == pytest.approx(0.1)

    def test_with_overrides_skips_none(self):
        req = RunRequest(jobs=2).with_overrides(jobs=None, sampling="fixed")
        assert req.jobs == 2 and req.sampling == "fixed"

    def test_cli_flags_map_onto_request(self):
        from repro.cli import _request_from_args, build_parser
        args = build_parser().parse_args(
            ["run", "sjeng", "-n", "5000", "--skip", "700", "--jobs", "2",
             "--no-cache",
             "--sampling", "adaptive", "--ci-target", "0.02"])
        req = _request_from_args(args)
        assert req.instructions == 5000 and req.skip == 700
        assert req.jobs == 2 and req.cache is False
        assert not hasattr(req, "frontend")
        assert req.sampling == "adaptive"
        assert req.ci_target == pytest.approx(0.02)

    def test_shared_flags_on_every_simulating_command(self):
        parser = build = None
        from repro.cli import build_parser
        for argv in (["run", "x"], ["compare", "x"], ["suite"],
                     ["sample"], ["verify"], ["profile", "x"]):
            args = build_parser().parse_args(argv + ["--sampling", "off",
                                                     "--jobs", "3"])
            assert args.sampling == "off" and args.jobs == 3


# ----------------------------------------------------------------------
# Sampled entry points
# ----------------------------------------------------------------------

class TestSampledRunners:
    def test_off_mode_keeps_classic_types(self, isolated_store):
        r = api.run_workload("hmmer", BASE, instructions=600, skip=300,
                             cache=False)
        assert not isinstance(r, api.WorkloadRun)
        assert r.stats.committed == 600

    def test_sampled_run_workload_returns_cell(self, isolated_store):
        cell = api.run_workload("mcf", BASE, instructions=20_000,
                                skip=2_000, cache=False,
                                sampling="fixed", jobs=1)
        assert isinstance(cell, api.WorkloadRun)
        assert cell.is_sampled and cell.fallback_reason is None
        assert cell.cpi > 0 and cell.ipc == pytest.approx(1 / cell.cpi)
        lo, hi = cell.cpi_ci95
        assert lo <= cell.cpi <= hi
        with pytest.raises(AttributeError):
            cell.stats  # estimates, not counters

    def test_request_object_routes_sampling(self, isolated_store):
        req = RunRequest(instructions=20_000, skip=2_000, cache=False,
                         jobs=1, sampling="adaptive", ci_target=0.5)
        cell = api.run_workload("mcf", BASE, request=req)
        assert isinstance(cell.sampled, AdaptiveRun)
        assert cell.sampled.converged

    def test_env_sampling_reaches_runner(self, isolated_store, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLING", "fixed")
        cell = api.run_workload("mcf", BASE, instructions=20_000,
                                skip=2_000, cache=False, jobs=1)
        assert isinstance(cell, api.WorkloadRun) and cell.is_sampled

    def test_sampled_pair_has_speedup_ci(self, isolated_store):
        pair = api.run_pair("sjeng", BASE, PUBS, instructions=20_000,
                            skip=2_000, cache=False, jobs=1,
                            sampling="fixed")
        assert pair.base is None and pair.base_cell.is_sampled
        rel = pair.speedup_relative_ci
        assert rel > 0
        lo, hi = pair.speedup_ci95
        assert lo <= pair.speedup <= hi

    def test_full_pair_has_no_ci_claim(self, isolated_store):
        pair = api.run_pair("sjeng", BASE, PUBS, instructions=800,
                            skip=400, cache=False)
        assert pair.base.stats.committed == 800  # classic access works
        assert math.isnan(pair.speedup_relative_ci)

    def test_fallback_is_loud_and_full(self, isolated_store, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("trace store unavailable")
        monkeypatch.setattr("repro.sampling.adaptive.acquire_span_trace",
                            refuse)
        cell = api.run_workload("mcf", BASE, instructions=800, skip=400,
                                cache=False, sampling="fixed")
        assert not cell.is_sampled
        assert "OSError" in cell.fallback_reason
        assert cell.full.stats.committed == 800
        assert math.isnan(cell.relative_ci)  # exact -> no CI claim

    def test_other_errors_propagate(self, isolated_store):
        with pytest.raises(ValueError):
            api.run_workload("mcf", BASE, instructions=800, skip=400,
                             sampling="fixed", request=None, cache=False,
                             ci_target=0.05)  # ci_target needs adaptive


class TestSampledSuiteGoldens:
    def test_cells_cover_full_budget_goldens(self, isolated_store):
        """Every sampled cell's CI must contain the full-budget value."""
        cfgs = {"base": BASE, "pubs": PUBS}
        names = ["mcf", "sjeng"]
        full = api.run_suite(cfgs, names, instructions=20_000, skip=2_000,
                             cache=False, jobs=1)
        sampled = api.run_suite(cfgs, names, instructions=20_000,
                                skip=2_000, cache=False, jobs=1,
                                sampling="adaptive")
        checked = 0
        for config_name in cfgs:
            for name in names:
                stats = full[config_name][name].stats
                golden = stats.cycles / stats.committed
                cell = sampled[config_name][name]
                assert cell.is_sampled, cell.fallback_reason
                lo, hi = cell.cpi_ci95
                assert lo <= golden <= hi, \
                    f"{config_name}/{name}: {golden} outside ({lo}, {hi})"
                # Sampling must actually save work.
                assert cell.simulated_records < 20_000
                checked += 1
        assert checked == 4


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------

class TestApiFacade:
    def test_exports(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_is_the_runner(self):
        from repro.analysis import runner
        assert api.run_workload is runner.run_workload
        assert api.run_pair is runner.run_pair
        assert api.run_suite is runner.run_suite

    def test_root_package_re_exports(self):
        import repro
        assert repro.RunRequest is RunRequest
        assert repro.sample_workload is sample_workload


class TestCliSamplingGuards:
    def test_verify_rejects_sampled_mode(self, capsys):
        from repro.cli import main
        assert main(["verify", "--workload", "sjeng", "--sampling",
                     "fixed", "-n", "400", "--skip", "200"]) == 2
        assert "--sampling must be off" in capsys.readouterr().err

    def test_sample_rejects_off(self, capsys):
        from repro.cli import main
        assert main(["sample", "mcf", "--sampling", "off"]) == 2
        assert "always samples" in capsys.readouterr().err
