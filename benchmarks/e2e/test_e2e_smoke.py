"""Smoke test of the end-to-end benchmark, about 25 seconds.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    _run("--reps", "2", "--trace", "--out", str(out))
    return json.loads(out.read_text())


def _names(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_time_boxed_run_prints_exactly_the_benchmark_metrics(report):
    line = json.loads(_run("--workload", "sweep-batched", "--seconds", "0.1",
                           "--trace", "1").strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == _names(BENCH["per_layer"])
    for summary in report["workloads"].values():
        untraced = run.result_line(summary, trace=False)["metrics"]
        assert {k: v["unit"] for k, v in untraced.items()} \
            == _names(BENCH["end_to_end"])
        assert all(v["value"] > 0 for v in untraced.values())


def test_records_and_digests_repeat_traced_or_not(report):
    assert set(report["workloads"]) == set(passes.WORKLOADS)
    for summary in report["workloads"].values():
        # Two untraced passes and one traced pass per workload: every
        # pass's digest agreeing is part of failed == 0.
        records = summary["metrics"]["sim_records"]
        assert records["n"] == 3 and len(set(records["values"])) == 1
        assert summary["per_layer"]["sim_records"]["value"] \
            == records["median"] > 0
        assert summary["metrics"]["ops_failed_frac"]["median"] == 0
        assert summary["failed"] == 0, summary["failures"]


def test_traced_layers_cover_the_wall_time(report):
    for summary in report["workloads"].values():
        layers = summary["per_layer"]
        assert layers["bench.coverage_frac"]["value"] >= 0.95
        assert all(entry["value"] is not None for entry in layers.values())


def test_rerun_only_reads_the_cold_cache(report):
    layers = report["workloads"]["fig8-rerun"]["per_layer"]
    assert layers["trace.captures"]["value"] == 0
    assert layers["trace.warm_trainings"]["value"] == 0
    assert layers["trace.warm_restores"]["value"] > 0


def test_compare_agrees_with_itself_and_catches_a_digest_change(report):
    lines, agree = compare.compare(report, report, BENCH)
    assert agree and not any("DIFFERS" in line for line in lines)
    changed = json.loads(json.dumps(report))
    changed["workloads"]["fig8-cold"]["result_digest"] = "0" * 64
    assert not compare.compare(report, changed, BENCH)[1]


def test_missing_wrapped_name_reports_null(monkeypatch):
    passes.use_source_tree()
    from repro.core.pipeline import Pipeline

    renamed = ("core.commit", "repro.core.pipeline",
               "Pipeline._renamed_commit", layers._plain)
    monkeypatch.setattr(layers, "TARGETS", [renamed] + [
        target for target in layers.TARGETS if target[0] != "core.commit"])
    with layers.traced() as tracer:
        assert hasattr(Pipeline._issue, "__wrapped__")
    metrics = layers.layer_metrics(tracer, 1.0)
    assert metrics["core.commit_s"] is None
    assert metrics["core.ns_per_cycle"] is None
    assert metrics["core.issue_s"] == 0.0
    assert not hasattr(Pipeline._issue, "__wrapped__")


def test_injected_cell_exception_is_counted_not_raised(tmp_path, monkeypatch):
    passes.use_source_tree()
    import repro.exec.backend as backend
    from repro.trace.store import reset_shared_stores

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "1")
    reset_shared_stores()
    original = backend.execute_unit

    def failing(unit):
        (_, job), = unit
        if job.config.pubs.enabled and job.profile.name == "astar":
            raise RuntimeError("injected")
        return original(unit)

    monkeypatch.setattr(backend, "execute_unit", failing)
    try:
        result = passes.run_pass("fig8-cold", passes.SCALES["smoke"], 0)
    finally:
        reset_shared_stores()
    assert result["attempted"] == 4
    assert result["failed_cells"] == ["astar/pubs"]
    assert len(result["cells"]) == 3
