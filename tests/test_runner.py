"""Tests for the high-level experiment runner."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ProcessorConfig
from repro.analysis import (
    EXPECTED_D_BP,
    PairedRun,
    bench_budget,
    dbp_workloads,
    run_pair,
    run_suite,
    run_workload,
)
from repro.core.config import EnvValueError
from repro.workloads import WorkloadProfile

BASE = ProcessorConfig.cortex_a72_like()
PUBS = BASE.with_pubs()


class TestRunWorkload:
    def test_by_name(self):
        r = run_workload("hmmer", BASE, instructions=800, skip=400)
        assert r.program_name == "hmmer"
        assert r.stats.committed == 800

    def test_by_profile_object(self):
        profile = WorkloadProfile("custom", "test", filler_alu=8)
        r = run_workload(profile, BASE, instructions=600, skip=200)
        assert r.program_name == "custom"

    def test_default_config_is_base(self):
        r = run_workload("hmmer", instructions=500, skip=200)
        assert not r.config.pubs.enabled

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_workload("wrf", BASE, instructions=100)


class TestRunPair:
    def test_pair_properties(self):
        pair = run_pair("sjeng", BASE, PUBS, instructions=1200, skip=800)
        assert isinstance(pair, PairedRun)
        assert pair.name == "sjeng"
        assert pair.speedup == pytest.approx(
            pair.variant.stats.ipc / pair.base.stats.ipc)
        assert pair.speedup_percent == pytest.approx(
            (pair.speedup - 1) * 100)

    def test_same_stream_both_sides(self):
        pair = run_pair("gobmk", BASE, PUBS, instructions=1200, skip=800)
        assert (pair.base.stats.cond_branches
                == pair.variant.stats.cond_branches)


class TestRunSuite:
    def test_structure(self):
        results = run_suite(
            {"base": BASE, "pubs": PUBS},
            workloads=["hmmer", "sjeng"],
            instructions=600, skip=300,
        )
        assert set(results) == {"base", "pubs"}
        assert set(results["base"]) == {"hmmer", "sjeng"}
        assert results["pubs"]["sjeng"].stats.committed == 600

    def test_default_workloads_are_all_28(self):
        # Only check the wiring (not running all 28 here).
        assert len(dbp_workloads()) == len(EXPECTED_D_BP) == 11
        assert "sjeng" in dbp_workloads() and "mcf" in dbp_workloads()


class TestBenchBudget:
    def test_defaults_and_overrides(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_INSTRUCTIONS", raising=False)
        monkeypatch.delenv("REPRO_BENCH_SKIP", raising=False)
        assert bench_budget() == (8000, 16000)
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "500")
        monkeypatch.setenv("REPRO_BENCH_SKIP", "0")
        assert bench_budget() == (500, 0)

    @pytest.mark.parametrize("name,bad", [
        ("REPRO_BENCH_INSTRUCTIONS", "x"),
        ("REPRO_BENCH_INSTRUCTIONS", "0"),
        ("REPRO_BENCH_SKIP", "-5"),
    ])
    def test_bad_value_names_the_variable(self, name, bad, monkeypatch):
        monkeypatch.setenv(name, bad)
        with pytest.raises(EnvValueError, match=f"{name}={bad!r}"):
            bench_budget()

    def test_bad_budget_never_breaks_import_or_run(self):
        """The budget is read when the bench harness asks for it, so a
        bad value cannot break ``import repro`` or any command."""
        script = ("import repro\n"
                  "from repro.cli import main\n"
                  "raise SystemExit(main(['run', 'sjeng', '-n', '500', "
                  "'--skip', '500']))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src),
                     REPRO_BENCH_INSTRUCTIONS="x", REPRO_BENCH_SKIP="-5"),
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "sjeng" in proc.stdout
