"""Topdown cycle attribution (DESIGN.md §15) and its accounting laws.

The hierarchy must sum to ``decode_width * cycles`` by construction on
any machine and any workload -- a property, not a golden -- and the
``topdown-cycle-accounting`` invariant must fire when any of its three
laws is corrupted.  The breakdown/compare layer on top is checked for
the algebra the CLI relies on: fractions sum to 1, per-bucket CPI
contributions sum to CPI, and bucket deltas sum to the CPI delta.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import render_table
from repro.analysis.topdown import (
    HIERARCHY,
    LEAF_COUNTERS,
    LEVEL1,
    TopdownBreakdown,
    breakdown_of,
    compare_topdown,
    suite_table_rows,
)
from repro.core.config import ProcessorConfig
from repro.core.pipeline import DeadlockError, Pipeline
from repro.core.simulator import simulate
from repro.verify import InvariantViolation, default_registry
from repro.workloads import build_program, get_profile

BASE = ProcessorConfig.cortex_a72_like()
PUBS = BASE.with_pubs()


def run_one(workload="sjeng", config=BASE, n=1500, skip=1000):
    profile = get_profile(workload)
    return simulate(build_program(profile), config, max_instructions=n,
                    skip_instructions=skip, mem_seed=profile.mem_seed)


def slot_sum(stats):
    return sum(getattr(stats, counter) for counter in LEAF_COUNTERS.values())


class TestAccountingLaws:
    @pytest.mark.parametrize("workload", ["mcf", "sjeng", "gcc"])
    @pytest.mark.parametrize("config", [BASE, PUBS],
                             ids=["base", "pubs"])
    def test_slots_sum_to_cycles(self, workload, config):
        result = run_one(workload, config)
        s = result.stats
        assert slot_sum(s) == config.decode_width * s.cycles

    @pytest.mark.parametrize("config", [BASE, PUBS], ids=["base", "pubs"])
    def test_stall_causes_are_disjoint(self, config):
        # Regression: priority stalls used to double-count into
        # iq_full_stall_cycles, so the per-cause split could not sum to
        # the aggregate.
        s = run_one("sjeng", config).stats
        assert s.dispatch_stall_cycles == (
            s.rob_full_stall_cycles + s.iq_full_stall_cycles
            + s.lsq_full_stall_cycles + s.regs_full_stall_cycles
            + s.priority_stall_cycles)

    def test_ewait_components_sum_to_penalty(self):
        s = run_one("sjeng", PUBS).stats
        assert s.mispredictions > 0
        assert (s.missspec_frontend_cycles + s.missspec_iq_wait_cycles
                + s.missspec_execute_cycles) == s.missspec_penalty_cycles

    @given(decode_width=st.integers(min_value=1, max_value=6),
           iq_size=st.integers(min_value=8, max_value=64),
           rob_size=st.integers(min_value=24, max_value=128),
           lsq_size=st.integers(min_value=8, max_value=64),
           recovery_penalty=st.integers(min_value=1, max_value=14),
           pubs=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_slots_sum_on_random_machines(self, decode_width, iq_size,
                                          rob_size, lsq_size,
                                          recovery_penalty, pubs):
        config = BASE.with_overrides(
            decode_width=decode_width, iq_size=iq_size, rob_size=rob_size,
            lsq_size=lsq_size, recovery_penalty=recovery_penalty)
        if pubs:
            config = config.with_pubs()
        s = run_one("gobmk", config, n=600, skip=300).stats
        assert slot_sum(s) == decode_width * s.cycles
        assert s.dispatch_stall_cycles == (
            s.rob_full_stall_cycles + s.iq_full_stall_cycles
            + s.lsq_full_stall_cycles + s.regs_full_stall_cycles
            + s.priority_stall_cycles)


class TestInvariant:
    def warmed(self, config=PUBS):
        pipeline = Pipeline(build_program(get_profile("sjeng")), config)
        with pytest.raises(DeadlockError):
            pipeline.run(10 ** 9, skip_instructions=500, max_cycles=400)
        return pipeline

    def test_passes_on_honest_pipeline(self):
        default_registry().run(self.warmed())

    @pytest.mark.parametrize("counter", [
        "td_retire_slots", "td_be_priority_slots", "td_fe_fetch_slots"])
    def test_fires_on_corrupted_slot_bucket(self, counter):
        pipeline = self.warmed()
        setattr(pipeline.stats, counter, getattr(pipeline.stats, counter) + 1)
        with pytest.raises(InvariantViolation) as excinfo:
            default_registry().run(pipeline)
        assert excinfo.value.invariant == "topdown-cycle-accounting"

    def test_fires_on_overlapping_stall_causes(self):
        pipeline = self.warmed()
        pipeline.stats.iq_full_stall_cycles += 1
        with pytest.raises(InvariantViolation) as excinfo:
            default_registry().run(pipeline)
        assert excinfo.value.invariant == "topdown-cycle-accounting"

    def test_fires_on_ewait_component_leak(self):
        pipeline = self.warmed()
        pipeline.stats.missspec_frontend_cycles += 3
        with pytest.raises(InvariantViolation) as excinfo:
            default_registry().run(pipeline)
        assert excinfo.value.invariant == "topdown-cycle-accounting"


#: Every topdown leaf counter of sjeng on PUBS (1500 timed records after
#: 1000) as the live functional front end produced them.
LIVE_SJENG_PUBS_LEAVES = {
    "td_retire_slots": 1504, "td_wrongpath_slots": 536,
    "td_recovery_slots": 1320, "td_fe_fetch_slots": 115,
    "td_fe_l1i_slots": 0, "td_be_rob_slots": 0, "td_be_iq_slots": 0,
    "td_be_lsq_slots": 0, "td_be_regs_slots": 0,
    "td_be_priority_slots": 2141,
}


class TestReplayIdentity:
    def test_replay_reproduces_every_topdown_counter(self, tmp_path):
        from repro.trace.store import TraceStore
        store = TraceStore(root=tmp_path, persistent=True)
        profile = get_profile("sjeng")
        replay = simulate(build_program(profile), PUBS,
                          max_instructions=1500, skip_instructions=1000,
                          mem_seed=profile.mem_seed, trace_source=store)
        assert set(LEAF_COUNTERS.values()) == set(LIVE_SJENG_PUBS_LEAVES)
        for counter, live in LIVE_SJENG_PUBS_LEAVES.items():
            assert getattr(replay.stats, counter) == live, counter


class TestBreakdown:
    def test_fractions_and_contributions_sum(self):
        b = breakdown_of(run_one("sjeng", PUBS))
        assert sum(b.fraction(bucket) for bucket in LEVEL1) \
            == pytest.approx(1.0)
        assert sum(b.level1().values()) == b.total_slots
        assert sum(b.cpi_contribution(bucket) for bucket in LEVEL1) \
            == pytest.approx(b.cpi)
        for bucket, leaves in HIERARCHY.items():
            assert b.fraction(bucket) == pytest.approx(
                sum(b.fraction(leaf) for leaf in leaves))

    def test_from_results_weights_counters(self):
        r = run_one("sjeng", BASE, n=800, skip=400)
        weighted = TopdownBreakdown.from_results([r, r], weights=[3, 1])
        single = TopdownBreakdown.from_result(r)
        assert weighted.cycles == 4 * single.cycles
        for leaf in LEAF_COUNTERS:
            assert weighted.leaves[leaf] == 4 * single.leaves[leaf]
        # Fractions are weight-invariant under identical regions.
        for bucket in LEVEL1:
            assert weighted.fraction(bucket) == \
                pytest.approx(single.fraction(bucket))

    def test_from_results_rejects_mixed_widths(self):
        narrow = run_one("sjeng", BASE.with_overrides(decode_width=2),
                         n=600, skip=300)
        wide = run_one("sjeng", BASE, n=600, skip=300)
        with pytest.raises(ValueError, match="mixed decode widths"):
            TopdownBreakdown.from_results([narrow, wide])

    def test_compare_deltas_sum_to_cpi_delta(self):
        base = breakdown_of(run_one("sjeng", BASE), name="base")
        variant = breakdown_of(run_one("sjeng", PUBS), name="pubs")
        delta = compare_topdown(base, variant)
        assert sum(delta.contributions.values()) \
            == pytest.approx(delta.cpi_delta)
        assert delta.mover in LEVEL1
        assert "moved most" in delta.render()

    def test_compare_names_bad_speculation_on_pubs_pair(self):
        # The acceptance pair: PUBS attacks the E_wait IQ component, so
        # the bucket that moves on sjeng is bad speculation.
        base = breakdown_of(run_one("sjeng", BASE), name="base")
        variant = breakdown_of(run_one("sjeng", PUBS), name="pubs")
        delta = compare_topdown(base, variant)
        assert delta.mover == "bad_speculation"
        assert delta.contributions["bad_speculation"] < 0

    def test_dominant_bucket_and_render(self):
        b = breakdown_of(run_one("mcf", BASE), name="mcf")
        assert b.dominant_bucket == "backend"
        text = b.render()
        assert "mcf" in text and "backend" in text and "E_wait" in text

    def test_suite_table_rows(self):
        bs = [breakdown_of(run_one(w, BASE), name=w)
              for w in ("sjeng", "hmmer")]
        headers, rows = suite_table_rows(bs)
        assert headers[0] == "workload" and "dominant" in headers
        assert len(rows) == 2 and rows[0][0] == "sjeng"
        render_table(headers, rows)  # must not raise


class TestSummaryComponents:
    def test_summary_shows_all_three_ewait_components(self):
        # Regression: summary() used to drop the frontend and execute
        # components of the misspeculation penalty.
        s = run_one("sjeng", BASE).stats
        text = s.summary()
        assert "FE" in text and "IQ" in text and "EX" in text
        assert f"{s.avg_missspec_frontend:.1f}" in text
        assert f"{s.avg_missspec_execute:.1f}" in text


class TestFmtNaN:
    def test_nan_cells_render_as_dash(self):
        table = render_table(["a", "b"], [[1.0, math.nan]])
        assert "nan" not in table
        assert "-" in table.splitlines()[-1]

    def test_degenerate_single_region_cell(self):
        # An n=1 sampled estimate has no stderr: its CI half-width is
        # NaN and must render as "-", not "nan", in suite tables.
        from repro.analysis.robustness import SweepSummary
        from repro.sampling import SampledEstimate
        cell = SampledEstimate("cpi", 1.25, SweepSummary((1.25,)))
        assert math.isnan(cell.ci_halfwidth)
        table = render_table(["workload", "CPI", "95% CI"],
                             [["sjeng", cell.point, cell.ci_halfwidth]])
        assert "nan" not in table
        assert "1.250" in table


class TestCli:
    def test_report_requires_topdown_flag(self, capsys):
        from repro.cli import main
        assert main(["report", "sjeng"]) == 2
        assert "--topdown" in capsys.readouterr().err

    def test_report_single_workload_renders_hierarchy(self, capsys):
        from repro.cli import main
        assert main(["report", "sjeng", "--topdown", "--no-cache",
                     "-n", "1500", "--skip", "1000"]) == 0
        out = capsys.readouterr().out
        assert "bad_speculation" in out and "E_wait" in out
        assert "CPI" in out

    def test_report_many_workloads_renders_table(self, capsys):
        from repro.cli import main
        assert main(["report", "sjeng", "hmmer", "--topdown", "--no-cache",
                     "-n", "1200", "--skip", "800"]) == 0
        out = capsys.readouterr().out
        assert "dominant" in out and "sjeng" in out and "hmmer" in out

    def test_report_compare_names_the_mover(self, capsys):
        from repro.cli import main
        assert main(["report", "sjeng", "--topdown", "--compare",
                     "--no-cache", "-n", "1500", "--skip", "1000"]) == 0
        out = capsys.readouterr().out
        assert "moved most" in out and "bad_speculation" in out

    def test_compare_topdown_flag(self, capsys):
        from repro.cli import main
        assert main(["compare", "sjeng", "--topdown", "--no-cache",
                     "-n", "1500", "--skip", "1000"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "moved most" in out

    @pytest.mark.parametrize("argv", [
        ["run", "sjeng", "--jobs", "0"],
        ["run", "sjeng", "--jobs", "-1"],
        ["suite", "--jobs", "0"],
        ["run", "sjeng", "--batch", "-1"],
        ["suite", "--batch", "-5"],
    ])
    def test_bad_jobs_and_batch_rejected_at_parse_time(self, capsys, argv):
        # Regression: --jobs 0 and negative --batch used to die deep in
        # the executor with a traceback; argparse now exits 2 up front.
        from repro.cli import build_parser
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        flag = argv[-2]
        assert flag in err

    def test_batch_zero_stays_legal(self):
        # 0 disables batching; only negatives are rejected.
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["run", "sjeng", "--batch", "0", "--jobs", "2"])
        assert args.batch == 0 and args.jobs == 2
