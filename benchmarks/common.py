"""Shared infrastructure for the benchmark harness.

All experiments run at a reduced instruction budget by default so the full
harness finishes in minutes on a laptop; the trends are stable at this
scale.  The budget's single source of truth is
:func:`repro.analysis.bench_budget`: 8000 timed instructions after 16000
warm-up instructions by default, overridable via
``REPRO_BENCH_INSTRUCTIONS`` / ``REPRO_BENCH_SKIP``.
``REPRO_BENCH_FULL_SWEEPS=1`` sweeps all D-BP programs in the
parameter-sweep figures instead of the representative subset.

Simulation runs go through the shared :class:`repro.exec.SweepExecutor`:
results are deduplicated per session (the Fig. 9 scatter reuses the Fig. 8
runs), persisted in the on-disk cache (``REPRO_CACHE_DIR``, disable with
``REPRO_CACHE=0``), and batched lookups (:func:`prefetch`,
:func:`speedups`) fan out across ``REPRO_JOBS`` worker processes.  A warm
cache makes a full bench re-run perform zero simulations.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from repro import ProcessorConfig
from repro.analysis import bench_budget, geometric_mean
from repro.core import SimulationResult
from repro.exec import SimJob, SweepExecutor, job_key

INSTRUCTIONS, SKIP = bench_budget()
FULL_SWEEPS = os.environ.get("REPRO_BENCH_FULL_SWEEPS", "0") == "1"

#: Expected D-BP set (verified against measured MPKI by bench_fig08).
D_BP = ["astar", "bzip2", "gcc", "gobmk", "h264ref", "mcf", "omnetpp",
        "perlbench", "sjeng", "soplex", "xalancbmk"]

#: Representative D-BP subset used by the parameter sweeps (Figs. 10-13):
#: compute-bound programs where the swept PUBS parameters actually bind.
SWEEP_PROGRAMS = D_BP if FULL_SWEEPS else [
    "sjeng", "gobmk", "gcc", "bzip2", "perlbench", "astar",
]

_EXECUTOR: Optional[SweepExecutor] = None
#: Session memo keyed by job content hash (saves re-reading the disk cache).
_MEMO: Dict[str, SimulationResult] = {}


def executor() -> SweepExecutor:
    """The harness-wide sweep executor (workers via ``REPRO_JOBS``)."""
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = SweepExecutor()
    return _EXECUTOR


def _job(workload: str, config: ProcessorConfig,
         instructions: Optional[int], skip: Optional[int]) -> SimJob:
    return SimJob.make(
        workload, config,
        INSTRUCTIONS if instructions is None else instructions,
        SKIP if skip is None else skip,
    )


def run_cached(workload: str, config: ProcessorConfig,
               instructions: Optional[int] = None,
               skip: Optional[int] = None) -> SimulationResult:
    """Cached simulation run (session memo + persistent on-disk cache).

    Keys on the *content* of the profile/config/budget, so equal configs
    built twice hit the same entry (the old implementation keyed on the
    config object and missed on rebuilt-but-equal configurations).
    """
    job = _job(workload, config, instructions, skip)
    key = job_key(job)
    result = _MEMO.get(key)
    if result is None:
        result = executor().run_one(job)
        _MEMO[key] = result
    return result


def prefetch(workloads: Iterable[str], configs: Iterable[ProcessorConfig],
             instructions: Optional[int] = None,
             skip: Optional[int] = None) -> None:
    """Simulate a (workload x config) cross product as one parallel batch.

    Subsequent :func:`run_cached` calls for these runs are then pure cache
    hits; call this at the top of a bench to get ``REPRO_JOBS``-way
    parallelism instead of one simulation at a time.
    """
    jobs = [_job(name, config, instructions, skip)
            for config in configs for name in workloads]
    todo = [job for job in jobs if job_key(job) not in _MEMO]
    if not todo:
        return
    for job, result in zip(todo, executor().run(todo)):
        _MEMO[job_key(job)] = result


def speedups(workloads: Iterable[str], base: ProcessorConfig,
             variant: ProcessorConfig) -> Dict[str, float]:
    """Per-program variant/base IPC ratios."""
    names = list(workloads)
    prefetch(names, [base, variant])
    out = {}
    for name in names:
        b = run_cached(name, base)
        v = run_cached(name, variant)
        out[name] = v.stats.ipc / b.stats.ipc
    return out


def gm_percent(ratios: Iterable[float]) -> float:
    """Geometric-mean speedup, in percent over 1.0."""
    ratios = list(ratios)
    if not ratios:
        return 0.0
    return (geometric_mean(ratios) - 1.0) * 100.0


def all_workloads() -> List[str]:
    from repro import spec2006_profiles
    return sorted(spec2006_profiles())


def measured_dbp(base: ProcessorConfig) -> List[str]:
    """Programs whose *measured* branch MPKI crosses the 3.0 threshold."""
    names = all_workloads()
    prefetch(names, [base])
    return [name for name in names
            if run_cached(name, base).stats.is_difficult_branch_prediction]
