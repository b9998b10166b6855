"""Paired speedup estimation and whole-table budget control.

Covers the paired jackknife's contract (point identical to the
independent ratio, CI at most the quadrature combination on shared
schedules, honest NaN/None degeneracy), the corrected
``AdaptiveRound.simulated_records`` accounting (plan-derived, clamps
included), the :class:`TableController` spend policy (worst
CI-to-target ratio first, deterministic ties, table-judged convergence
flags), and the CLI surface (``--ci-target`` validation, spend
summaries).
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.core.config import ProcessorConfig
from repro.sampling import (
    CI_RELATIVE_FLOOR,
    AdaptiveSession,
    TableController,
    estimate_cpi,
    paired_speedup,
    shared_schedule,
)
from repro.trace.store import TraceStore

BASE = ProcessorConfig.cortex_a72_like()


def _region(start, measure=512, detail=128, weight=1, warmup=0):
    return SimpleNamespace(start=start, measure=measure, detail=detail,
                           weight=weight, warmup=warmup)


def _result(cycles, committed):
    return SimpleNamespace(stats=SimpleNamespace(cycles=cycles,
                                                 committed=committed))


def _sampled(regions, results, relative_ci=0.01):
    """A SampledRun-shaped fake: a plan, its results, and a CPI claim."""
    cycles = sum(r.weight * res.stats.cycles
                 for r, res in zip(regions, results))
    committed = sum(r.weight * res.stats.committed
                    for r, res in zip(regions, results))
    point = cycles / committed if committed else math.nan
    return SimpleNamespace(
        plan=SimpleNamespace(regions=list(regions)),
        results=list(results),
        cpi=SimpleNamespace(point=point, relative_error=relative_ci),
        simulated_records=sum(r.measure + r.detail for r in regions))


def _pair(base_windows, variant_windows, weights=None):
    """Two fake runs over the same schedule from (cycles, committed)."""
    weights = weights or [1] * len(base_windows)
    regions = [_region(512 * i, weight=w) for i, w in enumerate(weights)]
    return (_sampled(regions, [_result(*w) for w in base_windows]),
            _sampled(regions, [_result(*w) for w in variant_windows]))


# ----------------------------------------------------------------------
# The paired estimator
# ----------------------------------------------------------------------

class TestPairedEstimate:
    def test_point_is_the_independent_ratio(self):
        # Pairing changes the error claim, never the headline number:
        # the point must equal base CPI / variant CPI computed from the
        # same weighted whole-span sums.
        base, variant = _pair([(100, 50), (300, 100)],
                              [(120, 50), (330, 100)], weights=[1, 3])
        est = paired_speedup(base, variant)
        assert est.point == pytest.approx(
            base.cpi.point / variant.cpi.point)
        assert est.n == 2

    def test_common_mode_variance_cancels(self):
        # Per-window CPIs differ 6x, but the variant is exactly 2% slower
        # everywhere -- the paired CI is (near) zero while either side's
        # own jackknife spread is enormous.
        base, variant = _pair([(100, 100), (600, 100), (250, 100)],
                              [(102, 100), (612, 100), (255, 100)])
        est = paired_speedup(base, variant)
        assert est.point == pytest.approx(1 / 1.02)
        assert est.relative_error == pytest.approx(0.0, abs=1e-12)

    def test_single_shared_window_has_no_error_claim(self):
        base, variant = _pair([(100, 50)], [(110, 50)])
        est = paired_speedup(base, variant)
        assert est.n == 1
        assert est.point == pytest.approx(100 / 110)
        assert math.isnan(est.stderr)
        assert math.isnan(est.ci_halfwidth)
        assert math.isnan(est.relative_error)
        assert "+/-" not in str(est)

    def test_mismatched_schedules_return_none(self):
        base, variant = _pair([(100, 50), (200, 80)],
                              [(110, 50), (210, 80)])
        variant.plan.regions[1] = _region(9999)
        assert paired_speedup(base, variant) is None
        weight_skew, _ = _pair([(100, 50), (200, 80)],
                               [(110, 50), (210, 80)])
        weight_skew.plan.regions[0] = _region(0, weight=7)
        assert not shared_schedule(weight_skew, base)

    def test_warmup_depth_does_not_break_pairing(self):
        # Warmup shapes the trained state, not which records are
        # measured; two sides differing only in warmup still pair.
        base, variant = _pair([(100, 50), (200, 80)],
                              [(110, 50), (210, 80)])
        variant.plan.regions[0].warmup = 4096
        assert shared_schedule(base, variant)
        assert paired_speedup(base, variant) is not None

    def test_degenerate_leave_one_out_is_nan(self):
        # Removing the only window with committed work zeroes a
        # leave-one-out denominator: no error claim, not a crash.
        base, variant = _pair([(100, 50), (10, 0)], [(110, 50), (12, 0)])
        est = paired_speedup(base, variant)
        assert math.isnan(est.stderr)

    def test_zero_denominator_point_is_nan(self):
        base, variant = _pair([(100, 0), (200, 0)], [(110, 0), (210, 0)])
        est = paired_speedup(base, variant)
        assert math.isnan(est.point)
        assert math.isnan(est.relative_error)

    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(st.floats(0.5, 5.0), st.integers(100, 1000)),
                 min_size=n, max_size=n),
        st.lists(st.floats(-1e-3, 1e-3), min_size=n, max_size=n),
        st.lists(st.integers(1, 5), min_size=n, max_size=n),
        st.floats(0.8, 1.25))))
    @settings(max_examples=60, deadline=None)
    def test_paired_ci_within_quadrature_on_correlated_sides(self, data):
        # The regime the estimator exists for: the variant is the base
        # scaled by a near-constant factor, so window variance is
        # common-mode.  The paired CI must then be no wider than the
        # quadrature combination of the two sides' own (floored) CIs.
        windows, noise, weights, ratio = data
        base_windows = [(cpi * n, n) for cpi, n in windows]
        variant_windows = [(c * ratio * (1.0 + e), n)
                           for (c, n), e in zip(base_windows, noise)]
        base, variant = _pair(base_windows, variant_windows,
                              weights=weights)
        est = paired_speedup(base, variant)
        rel_b = estimate_cpi(base.results, weights).relative_error
        rel_v = estimate_cpi(variant.results, weights).relative_error
        quadrature = math.sqrt(rel_b * rel_b + rel_v * rel_v)
        # Each side's CI is floored, so quadrature never collapses --
        # the paired CI, which has no floor, must fit inside it.
        assert quadrature >= CI_RELATIVE_FLOOR
        assert est.relative_error <= quadrature + 1e-12


# ----------------------------------------------------------------------
# PairedRun: method selection and fallback
# ----------------------------------------------------------------------

class TestPairedRunMethod:
    def _cells(self):
        from repro.analysis.runner import WorkloadRun

        base, variant = _pair([(100, 50), (600, 200), (250, 100)],
                              [(105, 50), (630, 200), (262, 100)])
        return (WorkloadRun(workload="w", sampled=base),
                WorkloadRun(workload="w", sampled=variant))

    def test_shared_schedules_use_the_paired_ci(self):
        from repro.analysis.runner import PairedRun

        bc, vc = self._cells()
        pair = PairedRun("w", bc, vc)
        assert pair.ci_method == "paired"
        assert pair.paired.point == pytest.approx(pair.speedup)
        assert pair.speedup_relative_ci == pair.paired.relative_error
        assert pair.speedup_relative_ci < math.sqrt(
            bc.relative_ci ** 2 + vc.relative_ci ** 2)

    def test_mixed_full_and_sampled_pair_is_quadrature(self):
        # A sampled cell against a full simulation cannot pair; the
        # full side contributes zero sampling error.
        from repro.analysis.runner import PairedRun, WorkloadRun

        bc, _ = self._cells()
        full = WorkloadRun(workload="w", full=SimpleNamespace(
            stats=SimpleNamespace(ipc=0.5)))
        pair = PairedRun("w", bc, full)
        assert pair.paired is None
        assert pair.ci_method == "quadrature"
        assert pair.speedup_relative_ci == pytest.approx(bc.relative_ci)

    def test_exact_pair_claims_no_sampling_error(self):
        from repro.analysis.runner import PairedRun, WorkloadRun

        cells = [WorkloadRun(workload="w", full=SimpleNamespace(
            stats=SimpleNamespace(ipc=ipc))) for ipc in (0.5, 0.6)]
        pair = PairedRun("w", *cells)
        assert pair.ci_method == "exact"
        assert math.isnan(pair.speedup_relative_ci)


# ----------------------------------------------------------------------
# Adaptive records accounting (the overcount fix)
# ----------------------------------------------------------------------

def _escalate_fully(name, session):
    """Drive ``session`` as a one-workload table to its region cap."""
    controller = TableController(session.ci_target)
    controller.add(name, session)
    controller.run()
    return controller.results()[name]


class TestRecordsAccounting:
    def test_simulated_records_reflect_the_detail_clamp(self):
        # With skip=0 the span's first window starts at record 0: no
        # room for a detailed-warmup prefix, so its region plans
        # detail=0.  The rounds must account the records actually
        # planned, not the nominal regions * (measure + detail).
        store = TraceStore(persistent=False)
        session = AdaptiveSession(
            "mcf", [None], instructions=4096, skip=0, measure=512,
            max_fraction=1.0, ci_target=1e-6, jobs=1, cache=False,
            store=store)
        run, = _escalate_fully("mcf", session)
        first = min(run.plan.regions, key=lambda r: r.start)
        assert first.start == 0 and first.detail == 0
        planned = sum(r.measure + r.detail for r in run.plan.regions)
        nominal = len(run.plan.regions) * (512 + 128)
        assert run.rounds[-1].simulated_records == planned
        assert session.simulated_records == planned
        assert planned < nominal

    def test_every_round_matches_its_own_plan(self):
        # Rounds snapshot a growing schedule; each must account exactly
        # the regions it had, so the per-round spend curve is honest.
        store = TraceStore(persistent=False)
        session = AdaptiveSession(
            "sjeng", [None], instructions=8192, skip=2048, measure=1024,
            max_fraction=1.0, ci_target=1e-6, jobs=1, cache=False,
            store=store)
        run, = _escalate_fully("sjeng", session)
        per_region = 1024 + 256
        for record in run.rounds:
            assert record.simulated_records == record.regions * per_region


# ----------------------------------------------------------------------
# TableController policy
# ----------------------------------------------------------------------

class _FakeSession:
    """Quacks like an AdaptiveSession for controller policy tests.

    ``schedule`` maps the escalation round to the per-cell relative CI
    the session reports; the last entry repeats once escalation is
    exhausted.
    """

    def __init__(self, schedule, records_per_round=100, name=None,
                 log=None):
        self.schedule = list(schedule)
        self.round = 0
        self.escalations = 0
        self.measures = 0
        self.states = [object()]
        self._records = records_per_round
        self._name = name
        self._log = log

    def measure_all(self):
        self.measures += 1

    def escalate_all(self):
        if self.round + 1 >= len(self.schedule):
            return False
        self.round += 1
        self.escalations += 1
        if self._log is not None:
            self._log.append(self._name)
        return True

    @property
    def can_escalate(self):
        return self.round + 1 < len(self.schedule)

    @property
    def simulated_records(self):
        return (self.round + 1) * self._records

    @property
    def regions(self):
        return self.round + 1

    def runs(self, converged=False):
        rel = self.schedule[self.round]
        return [SimpleNamespace(
            cpi=SimpleNamespace(relative_error=rel), converged=converged)]


class TestTableController:
    def test_non_positive_ci_target_rejected(self):
        with pytest.raises(ValueError):
            TableController(0.0)
        with pytest.raises(ValueError):
            TableController(-0.05)

    def test_duplicate_workload_rejected(self):
        controller = TableController(0.05)
        controller.add("mcf", _FakeSession([0.01]))
        with pytest.raises(ValueError, match="duplicate"):
            controller.add("mcf", _FakeSession([0.01]))

    def test_spend_goes_to_the_worst_ratio_first(self):
        # "tight" is already inside the target: zero escalations.  The
        # controller alternates between the two loose workloads as the
        # worst ratio flips, stopping each exactly when it converges.
        controller = TableController(0.05)
        tight = _FakeSession([0.01])
        loose = _FakeSession([0.20, 0.08, 0.04])
        looser = _FakeSession([0.30, 0.06, 0.02])
        controller.add("tight", tight)
        controller.add("loose", loose)
        controller.add("looser", looser)
        controller.run()
        assert tight.escalations == 0
        assert loose.escalations == 2 and looser.escalations == 2
        assert controller.simulated_records == 100 + 300 + 300

    def test_ties_break_toward_insertion_order(self):
        # Identical schedules: max() keeps the first maximum, so the
        # first-added workload receives the batch first every round --
        # the determinism the cache identity story relies on.
        controller = TableController(0.05)
        log = []
        first = _FakeSession([0.20, 0.01], name="first", log=log)
        second = _FakeSession([0.20, 0.01], name="second", log=log)
        controller.add("first", first)
        controller.add("second", second)
        controller.run()
        assert first.escalations == 1 and second.escalations == 1
        assert log == ["first", "second"]

    def test_each_session_is_scored_once_per_measurement(self,
                                                         monkeypatch):
        # A score depends only on its own session's runs: one score per
        # session after the first measurement, then one per escalation;
        # results() reuses the scores run() ended on.
        calls = []
        real = TableController._criterion

        def criterion(self, session):
            calls.append(session)
            return real(self, session)

        monkeypatch.setattr(TableController, "_criterion", criterion)
        controller = TableController(0.05)
        sessions = [_FakeSession([0.01]), _FakeSession([0.20, 0.08, 0.04]),
                    _FakeSession([0.30, 0.06, 0.02]),
                    _FakeSession([0.40, 0.30])]
        for i, session in enumerate(sessions):
            controller.add(f"w{i}", session)
        controller.run()
        controller.results()
        escalations = sum(s.escalations for s in sessions)
        assert escalations == 5
        assert len(calls) == len(sessions) + escalations
        for session in sessions:
            assert calls.count(session) == 1 + session.escalations

    def test_capped_workload_stops_without_converging(self):
        controller = TableController(0.05)
        capped = _FakeSession([0.40, 0.30])
        controller.add("capped", capped)
        controller.run()
        results = controller.results()
        assert capped.escalations == 1
        assert not results["capped"][0].converged

    def test_results_flags_follow_the_table_criterion(self):
        controller = TableController(0.05)
        controller.add("good", _FakeSession([0.01]))
        controller.add("bad", _FakeSession([0.40]))
        controller.run()
        results = controller.results()
        assert results["good"][0].converged
        assert not results["bad"][0].converged


class TestTableControllerEndToEnd:
    def test_lockstep_schedules_stay_shared_and_prefix(self):
        # A controller-stopped session's schedule must (a) keep both
        # configs window-for-window aligned so pairing applies, and
        # (b) be a subset of each config's uncapped one-config table's
        # medoids -- the same content-addressed region jobs, just fewer.
        store = TraceStore(persistent=False)
        configs = [BASE, BASE.with_overrides(recovery_penalty=12)]
        kwargs = dict(instructions=8192, skip=2048, measure=1024,
                      max_fraction=1.0, jobs=1, cache=False, store=store)
        controller = TableController(0.5)
        controller.add("mcf", AdaptiveSession("mcf", configs,
                                              ci_target=0.5, **kwargs))
        controller.run()
        runs = controller.results()["mcf"]
        estimate = paired_speedup(runs[0], runs[1])
        assert estimate is not None
        assert runs[0].converged and runs[1].converged
        assert estimate.relative_error <= 0.5

        controller_starts = {r.start for r in runs[0].plan.regions}
        for config in configs:
            full, = _escalate_fully("mcf", AdaptiveSession(
                "mcf", [config], ci_target=1e-6, **kwargs))
            assert controller_starts <= {r.start for r in full.plan.regions}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCliFlags:
    @pytest.mark.parametrize("value", ["0", "-0.1", "bogus"])
    def test_non_positive_ci_target_exits_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["suite", "--sampling", "adaptive", "--ci-target", value])
        assert exc.value.code == 2
        assert "--ci-target" in capsys.readouterr().err

    def test_positive_ci_target_accepted(self):
        args = build_parser().parse_args(["suite", "--ci-target", "0.03"])
        assert args.ci_target == pytest.approx(0.03)


class TestCliSpendSummary:
    def test_sampled_suite_prints_spend(self, isolated_store, capsys):
        assert main(["suite", "--workloads", "mcf", "--sampling",
                     "adaptive", "-n", "6000", "--skip", "1000",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "spend:" in out
        assert "simulated records" in out

    def test_sampled_compare_reports_method_and_spend(
            self, isolated_store, capsys):
        assert main(["compare", "mcf", "--sampling", "adaptive",
                     "-n", "6000", "--skip", "1000", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert ", paired)" in out
        assert "spend:" in out

    def test_exact_suite_prints_no_spend(self, isolated_store, capsys):
        assert main(["suite", "--workloads", "mcf", "-n", "1500",
                     "--skip", "1000", "--no-cache"]) == 0
        assert "spend:" not in capsys.readouterr().out
