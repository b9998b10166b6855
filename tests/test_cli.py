"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "sjeng"])
        assert args.workload == "sjeng"
        # Budget flags default to unset so a --request-file can supply
        # them; the classic CLI budget is applied by the request layer.
        assert args.instructions is None
        from repro.cli import _request_from_args
        request = _request_from_args(args)
        assert request.instructions == 10_000 and request.skip == 10_000
        assert not args.pubs

    def test_machine_flags(self):
        args = build_parser().parse_args(
            ["run", "sjeng", "--pubs", "--priority-entries", "8",
             "--non-stall", "--age-matrix"])
        assert args.pubs and args.priority_entries == 8
        assert args.non_stall and args.age_matrix

    def test_invalid_org_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "sjeng", "--iq-org", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["serve"],
        ["worker"],
        ["submit"],
        ["status"],
        ["suite", "--backend", "inline"],
        ["suite", "--queue-dir", "q"],
        ["run", "sjeng", "--request-file", "f"],
        ["run", "sjeng", "--smt"],
    ], ids=["serve", "worker", "submit", "status", "backend", "queue-dir",
            "request-file", "smt"])
    def test_removed_surface_exits_two(self, argv):
        # One local executor runs everything: there is no server, no
        # shared queue and no serialized request to load.  The core
        # models one thread: there is no SMT co-runner.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestTraceStoreErrors:
    @pytest.mark.parametrize("via", ["flag", "env", "cache-off"])
    def test_unusable_trace_dir_exits_two(self, via, tmp_path, monkeypatch,
                                          capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        store_dir = blocker / "store"  # cannot exist: its parent is a file
        argv = ["trace", "record", "--workload", "gcc", "-n", "500",
                "--skip", "100"]
        named = [str(store_dir)]
        if via == "flag":
            argv += ["--dir", str(store_dir)]
        elif via == "env":
            monkeypatch.delenv("REPRO_CACHE", raising=False)  # persistent
            monkeypatch.setenv("REPRO_CACHE_DIR", str(store_dir))
        else:
            # A memory-only store would record nothing that outlives
            # the command.
            monkeypatch.setenv("REPRO_CACHE", "0")
            named = ["REPRO_CACHE=0", "--dir"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1  # one line, no traceback
        for text in named:
            assert text in err
        assert captured.out == ""  # nothing captured, no table printed
        # A query still reports the unusable store as holding no trace.
        info = ["trace", "info", "--workload", "gcc"]
        if via == "flag":
            info += ["--dir", str(store_dir)]
        assert main(info) == 0
        assert "no trace recorded" in capsys.readouterr().out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sjeng" in out and "mcf" in out
        assert out.count("\n") >= 28

    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "brslice_tab" in out and "total" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "sjeng"]) == 0
        out = capsys.readouterr().out
        assert "beqz" in out and "jump" in out

    def test_run(self, capsys):
        assert main(["run", "hmmer", "-n", "1500", "--skip", "1000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "branch MPKI" in out

    def test_run_with_pubs(self, capsys):
        assert main(["run", "sjeng", "--pubs", "-n", "1500",
                     "--skip", "1000"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_distributed(self, capsys):
        assert main(["run", "gcc", "--distributed", "--pubs", "-n", "1200",
                     "--skip", "800"]) == 0

    def test_run_shifting_org(self, capsys):
        assert main(["run", "gcc", "--iq-org", "shifting", "-n", "1200",
                     "--skip", "800"]) == 0

    def test_compare_defaults_to_pubs(self, capsys):
        assert main(["compare", "sjeng", "-n", "1500", "--skip", "1000"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_suite_subset(self, capsys):
        assert main(["suite", "--workloads", "hmmer", "sjeng",
                     "-n", "1200", "--skip", "800"]) == 0
        out = capsys.readouterr().out
        assert "GM" in out and "sjeng" in out

    @pytest.mark.parametrize("argv", [
        ["run", "wrf", "-n", "100"],
        ["compare", "wrf"],
        ["disasm", "wrf"],
        ["suite", "--workloads", "sjeng", "wrf"],
        ["verify", "--workload", "wrf"],
        ["sample", "wrf"],
    ], ids=lambda argv: argv[0])
    def test_unknown_workload_exits_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1  # one line, no traceback
        assert "unknown workload 'wrf'" in err
        assert "sjeng" in err and "mcf" in err  # the valid names

    @pytest.mark.parametrize("argv", [
        ["run", "sjeng"],
        ["suite", "--workloads", "sjeng"],
        ["compare", "sjeng"],
        ["profile", "sjeng"],
        ["sample", "sjeng"],
        ["verify", "--workload", "sjeng"],
        ["trace", "record", "--workload", "sjeng"],
        ["stress", "run", "branch_h2p"],
    ], ids=lambda argv: argv[0])
    def test_bad_budget_flags_exit_two(self, argv, capsys):
        for bad in (["-n", "0"], ["-n", "-5"], ["--skip", "-1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + bad)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert bad[0].lstrip("-") in err  # names the offending flag

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_SAMPLING", "bogus"),
        ("REPRO_CI_TARGET", "abc"),
        ("REPRO_JOBS", "x"),
        ("REPRO_JOBS", "-3"),
        ("REPRO_BATCH", "-1"),
    ])
    def test_bad_environment_value_exits_two(self, variable, value,
                                             monkeypatch, capsys):
        if variable == "REPRO_CI_TARGET":
            monkeypatch.setenv("REPRO_SAMPLING", "adaptive")
        monkeypatch.setenv(variable, value)
        # suite builds its own executor; run would reuse the shared one,
        # which an earlier test may already have built.
        assert main(["suite", "--workloads", "sjeng", "-n", "500",
                     "--skip", "100"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1  # one line, no traceback
        assert err.startswith("error:")
        assert f"{variable}={value!r}" in err


class TestSamplingFlags:
    @pytest.mark.parametrize("argv,env", [
        (["run", "mcf", "--sampling", "fixed", "--ci-target", "0.05"], {}),
        (["suite", "--workloads", "mcf", "--sampling", "fixed",
          "--ci-target", "0.05"], {}),
        (["sample", "mcf", "--ci-target", "0.05"], {}),
        (["run", "mcf", "--ci-target", "0.05"], {"REPRO_SAMPLING": "fixed"}),
    ], ids=["run", "suite", "sample", "environment"])
    def test_ci_target_without_adaptive_exits_two(self, argv, env):
        # Checked before the command runs: one error line, no traceback,
        # no simulation.
        base = {k: v for k, v in os.environ.items()
                if k not in ("REPRO_SAMPLING", "REPRO_CI_TARGET")}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], capture_output=True,
            text=True, env=dict(base, PYTHONPATH=str(SRC), **env),
            timeout=300)
        assert proc.returncode == 2
        err = proc.stderr.strip()
        assert len(err.splitlines()) == 1  # one line, no traceback
        assert err.startswith("error:") and "adaptive" in err
        assert proc.stdout == ""

    @pytest.mark.parametrize("sampling", ["fixed", "adaptive"])
    def test_region_cap_of_one_samples_one_region(self, sampling, capsys,
                                                  isolated_store):
        # A cap below the adaptive starting set clamps it, as it always
        # bounded the fixed plan: one region, and no CI claim.
        assert main(["sample", "mcf", "--sampling", sampling,
                     "--regions", "1", "--no-cache"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("mcf"))
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[2:5] == ["n/a", "n/a", "1"]  # 95% CI, rel CI, regions


class TestVerifyCommand:
    def test_verify_single_workload_full(self, capsys):
        assert main(["verify", "--workload", "sjeng", "-n", "1200",
                     "--skip", "800"]) == 0
        out = capsys.readouterr().out
        assert "ok   sjeng: 1200 commits oracle-checked" in out
        assert "invariant sweeps" in out
        assert "1/1 workload(s) verified at level=full" in out

    def test_verify_commit_only_level(self, capsys):
        assert main(["verify", "--workload", "mcf", "--level", "commit-only",
                     "-n", "800", "--skip", "500"]) == 0
        out = capsys.readouterr().out
        assert "ok   mcf: 800 commits oracle-checked" in out
        assert "sweeps" not in out
        assert "verified at level=commit-only" in out

    def test_verify_pubs_machine(self, capsys):
        assert main(["verify", "--workload", "sjeng", "--pubs",
                     "-n", "1000", "--skip", "600"]) == 0
        assert "1/1 workload(s) verified" in capsys.readouterr().out

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.workload is None  # all workloads
        assert args.level == "full" and args.interval == 256

    def test_verify_rejects_off_level(self):
        # "off" would make the command vacuous; the parser refuses it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--level", "off"])

    def test_sample_defaults(self):
        args = build_parser().parse_args(["sample", "mcf"])
        assert args.workloads == ["mcf"]
        assert args.instructions == 60_000
        assert args.sampling is None  # fixed, unless REPRO_SAMPLING says
        assert not args.check_full

    def test_sample_estimates(self, capsys, isolated_store):
        assert main(["sample", "mcf", "-n", "6000", "--skip", "1000",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sampled CPI" in out and "coverage" in out

    def test_trace_record_with_interval(self, capsys, isolated_store,
                                        monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)  # persistent
        assert main(["trace", "record", "--workload", "mcf", "-n", "2000",
                     "--skip", "500", "--interval", "1024"]) == 0
        out = capsys.readouterr().out
        assert "interval ckpts" in out and "1024" in out

    def test_trace_record_covers_exactly_what_run_replays(
            self, capsys, isolated_store, monkeypatch):
        """``trace record`` records the need ``run`` acquires for the
        same budget on the default machine -- 500 + 1000 plus its fetch
        reach of 156 -- so the run neither extends nor re-records it."""
        from repro.trace.store import shared_store
        monkeypatch.delenv("REPRO_CACHE", raising=False)  # persistent
        assert main(["trace", "record", "--workload", "sjeng",
                     "-n", "1000", "--skip", "500"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("sjeng"))
        assert row.split("|")[1].strip() == "1656"
        assert main(["run", "sjeng", "-n", "1000", "--skip", "500",
                     "--no-cache"]) == 0
        store = shared_store()
        assert store.captures == 0 and store.extensions == 0

    @pytest.mark.parametrize("argv", [
        ["trace", "record", "--workload", "mcf", "--interval", "-3"],
        ["sample", "mcf", "--regions", "0"],
        ["sample", "mcf", "--regions", "-2"],
        ["sample", "mcf", "--measure", "0"],
        ["sample", "mcf", "--interval", "0"],
        ["sample", "mcf", "--warmup", "-1"],
        ["sample", "mcf", "--detail", "-1"],
        ["sample", "mcf", "--fraction", "0"],
        ["sample", "mcf", "--fraction", "1.5"],
        ["sample", "mcf", "--fraction", "nan"],
        ["run", "sjeng", "--pubs", "-n", "200", "--skip", "100",
         "--priority-entries", "0"],
        ["run", "sjeng", "--pubs", "--priority-entries", "-1"],
        ["run", "sjeng", "--pubs", "--priority-entries", "999"],
        ["verify", "--workload", "sjeng", "--interval", "0"],
        ["stress", "run", "branch_h2p", "--knob", "-1"],
        ["stress", "run", "dep_chain", "--knob", "-1"],
        ["stress", "run", "cache_thrash", "--knob", "3"],
        ["stress", "run", "branch_h2p", "--knob", "65"],
    ])
    def test_non_positive_knobs_rejected_up_front(self, capsys, argv,
                                                  isolated_store):
        # Regression: these used to fail deep inside capture/replay with
        # an opaque traceback; now they exit 2 with a one-line error
        # before any simulation work starts.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert argv[-2].lstrip("-") in err  # names the offending flag

    def test_trace_interval_zero_still_allowed(self, capsys,
                                               isolated_store, monkeypatch):
        # 0 means "no interval checkpoints", which is a valid request.
        monkeypatch.delenv("REPRO_CACHE", raising=False)  # persistent
        assert main(["trace", "record", "--workload", "mcf", "-n", "1500",
                     "--skip", "500", "--interval", "0"]) == 0

    def test_suite_replay_matches_live(self, capsys, isolated_store):
        # Regression: a front-end flag once leaked into
        # _machine_from_args, defeating the "no machine flags -> compare
        # against PUBS" default, so a replay suite compared base against
        # itself and reported +0.00% everywhere.
        argv = ["suite", "--workloads", "sjeng", "-n", "1500",
                "--skip", "500", "--no-cache"]
        assert main(argv) == 0
        assert "+0.00%" not in capsys.readouterr().out

    def test_frontend_flag_removed(self, capsys):
        # Replay is the only timed front end: the selector flag is gone.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "sjeng", "--frontend", "replay"])
        assert excinfo.value.code == 2
        assert "--frontend" in capsys.readouterr().err


class TestStressCommand:
    def test_list_names_every_family(self, capsys):
        from repro.workloads.stress import FAMILIES

        assert main(["stress", "list"]) == 0
        out = capsys.readouterr().out
        for name in FAMILIES:
            assert name in out
        assert "resource" in out

    def test_run_one_family_passes(self, capsys):
        assert main(["stress", "run", "load_after_store",
                     "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "load_after_store" in out and "[PASS]" in out
        assert "1/1 family satisfied" in out

    def test_contract_failure_exits_nonzero(self, capsys):
        # bias_bits=12 defeats the H2P kernel, so its contract must fail
        # and the command must say so through the exit code.
        assert main(["stress", "run", "branch_h2p", "--knob", "12",
                     "--no-sweep"]) == 1
        out = capsys.readouterr().out
        assert "BOTTLENECK CONTRACT FAILED" in out

    def test_unknown_family_rejected(self, capsys):
        assert main(["stress", "run", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err

    def test_stress_defaults(self):
        args = build_parser().parse_args(["stress", "run"])
        assert args.families == []
        assert args.knob is None and not args.no_sweep


class TestCacheStats:
    """Regression: per-namespace rows must match what is on disk."""

    def _kb(self, n: int) -> str:
        return f"{n / 1024:.1f} KB"

    def test_stats_report_per_namespace_usage(self, capsys, tmp_path):
        from repro.exec.cache import ResultCache

        results = ResultCache(tmp_path)
        traces = ResultCache.for_namespace("traces", tmp_path)
        warm = ResultCache.for_namespace("warm", tmp_path)
        results.put("r1", {"cpi": 1.0})
        results.put("r2", {"cpi": 2.0})
        traces.put("t1", b"x" * 4096)
        warm.put("w1", {"state": list(range(64))})

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        cells = {}
        for line in out.splitlines():
            if "|" in line:
                prop, _, value = line.partition("|")
                cells[prop.strip()] = value.strip()

        for name, ns in [("results", results), ("traces", traces),
                         ("warm", warm)]:
            assert cells[f"{name} entries"] == str(len(ns))
            assert cells[f"{name} size"] == self._kb(ns.size_bytes())
        assert cells["total entries"] == str(len(results) + len(traces)
                                             + len(warm))
        total_bytes = sum(ns.size_bytes()
                          for ns in (results, traces, warm))
        assert cells["total size"] == self._kb(total_bytes)

    def test_stats_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results entries" in out and "total entries" in out


class TestOptionalDependencies:
    def test_import_and_run_without_networkx_or_numpy(self):
        # A None entry in sys.modules makes ``import name`` raise, as if
        # the package were not installed.  The offline slice analysis
        # runs too: it needs no graph library.
        script = (
            "import sys\n"
            "sys.modules['networkx'] = sys.modules['numpy'] = None\n"
            "import repro\n"
            "from repro.analysis import characterize_window\n"
            "from repro.cli import main\n"
            "stats = characterize_window(repro.build_program(\n"
            "    repro.get_profile('sjeng')), 500, window=128)\n"
            "assert stats.branches > 0, stats\n"
            "sys.exit(main(['run', 'sjeng', '-n', '500', '--skip', '500']))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "sjeng" in proc.stdout and "IPC" in proc.stdout

    def test_commands_never_import_numpy(self):
        """No command path tries to import numpy: a run, an adaptive
        sampled suite and a top-down report, all in one process (inline,
        so every path runs under the finder).  The finder records every
        attempt and refuses it, so the test holds whether or not numpy
        is installed, and a guarded ``try: import numpy`` fails it too."""
        script = (
            "import sys\n"
            "attempts = []\n"
            "class RefuseNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'numpy':\n"
            "            attempts.append(name)\n"
            "            raise ImportError(f'{name} refused')\n"
            "sys.meta_path.insert(0, RefuseNumpy())\n"
            "from repro.cli import main\n"
            "for argv in (['run', 'sjeng', '-n', '500', '--skip', '500'],\n"
            "             ['suite', '--workloads', 'sjeng', '--sampling',\n"
            "              'adaptive', '-n', '8000', '--skip', '1000'],\n"
            "             ['report', '--topdown', 'sjeng', '-n', '500',\n"
            "              '--skip', '500']):\n"
            "    assert main(argv) == 0, argv\n"
            "assert not attempts, f'numpy import attempted: {attempts}'\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), REPRO_JOBS="1"),
            timeout=300)
        assert proc.returncode == 0, proc.stderr
