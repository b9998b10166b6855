"""Harness throughput: parallel sweep scaling, sampling, batched replay.

Not a paper figure -- this measures the reproduction's own performance.
These experiments share ``benchmarks/artifacts/perf_throughput.json``:

``sweep``
    A 4-workload x 2-config sweep (cache disabled, so every job simulates)
    runs once serially and once with ``min(4, cpu_count)`` workers; the
    artifact records wall time per mode, per-job simulated-cycle
    throughput, and the parallel speedup.  On a >= 4-core machine the
    8-job sweep must scale at least 2x.  On a single-core host the
    parallel leg is *skipped* and the artifact says so
    (``parallel_skipped``) -- a 1-worker "parallel" run would only
    measure process-pool overhead and report a meaningless ~1x number.

``sampling``
    SimPoint-style sampled simulation vs the full run it estimates, on
    the three smallest bench workloads.  Both legs replay the same
    pre-captured trace, so the comparison is equal-coverage CPU time:
    the sampled leg must land within ``CPI_ERROR_GATE`` (3%) of the
    full-run CPI on every workload while simulating at most 1/3 of the
    timed records, and the aggregate serial CPU-time speedup must be
    >= ``SAMPLING_MIN_SPEEDUP``.
    Also records the per-PC static-decode memo's lookup-throughput
    delta over ``Program.at`` (the replay front end's hot path).

``batched``
    Batched multi-config replay (DESIGN.md §12) vs sequential replay on
    a Fig. 10-style sweep: 8 PUBS priority-entry configs replaying one
    region window with a warmup-heavy budget.  Sequential replay trains
    the warm spans once per config; the batched walk acquires the trace
    and trains warm state once for the whole batch, and every member
    reads the same trace arrays.  Batched must take
    at least 3x less CPU time end to end -- the CI batched-replay gate
    -- and be bit-identical per member (asserted).

``paired``
    Paired differential estimation + whole-table budget control
    (DESIGN.md §14) vs independent one-config tables, at the same CI
    target on the base-vs-PUBS mcf/sjeng/gcc table.  The independent
    leg runs every (config, workload) cell as its own one-config
    :class:`TableController` table, which drives the cell's CPI CI to
    the target; the paired leg puts both configs of a workload in one
    session and lets the controller stop each workload as soon as the
    *paired speedup* CI -- the table's actual deliverable -- meets the
    same target.  Gates: the
    paired leg must simulate at least 2x fewer timed records in total,
    its speedup point estimates must land within ``CPI_ERROR_GATE``
    (3%) of the full-simulation speedups, and every workload's paired
    CI must really meet the target.

Every speed gate compares CPU time (``time.process_time``): the legs run
in this process, one after the other, and CPU time is what another
tenant's load does not inflate.  Wall time is recorded alongside as a
reported number only.  The exception is the sweep's parallel-scaling
leg, which is about wall time by nature and is gated only on hosts with
at least 4 CPUs.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

from common import INSTRUCTIONS, SKIP

from repro import ProcessorConfig
from repro.analysis import render_table
from repro.core.pipeline import replay_reach
from repro.core.simulator import simulate
from repro.exec import SimJob, SweepExecutor
from repro.isa.instruction import INST_BYTES
from repro.sampling import (
    CPI_ERROR_GATE,
    DEFAULT_DETAIL,
    DEFAULT_MAX_FRACTION,
    DEFAULT_MEASURE,
    DEFAULT_REGIONS,
    sample_workload,
    sampled_vs_full_error,
)
from repro.trace import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

WORKLOADS = ["sjeng", "gobmk", "gcc", "mcf"]
ARTIFACT = Path(__file__).parent / "artifacts" / "perf_throughput.json"

#: Sampling comparison: the three smallest static programs in the bench
#: set, at a span long enough for the per-window variance to matter.
SAMPLING_WORKLOADS = ["mcf", "sjeng", "gcc"]
SAMPLING_INSTRUCTIONS = int(
    os.environ.get("REPRO_BENCH_SAMPLING_INSTRUCTIONS", "60000"))
SAMPLING_SKIP = int(os.environ.get("REPRO_BENCH_SAMPLING_SKIP", "2000"))
#: Sampled leg must beat the full run by this much in CPU time,
#: aggregated serially.  The sampled leg simulates about a sixth of the
#: timed records but pays per-region pipeline construction and warm
#: spans, so the ratio sits well below the record ratio: 2.5x measured
#: (mcf 3.3x, sjeng 2.3x, gcc 1.7x).  The old 3.0x wall-clock gate failed
#: even before the per-record replay cost fell (1.3-1.6x).
SAMPLING_MIN_SPEEDUP = 2.0


def _clock():
    """(CPU seconds, wall seconds) now; gates difference the first."""
    return time.process_time(), time.perf_counter()


def _since(start):
    """(CPU seconds, wall seconds) elapsed since a :func:`_clock` reading."""
    cpu, wall = _clock()
    return cpu - start[0], wall - start[1]


def _update_artifact(section, payload):
    """Merge ``payload`` under ``section`` in the shared artifact file."""
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    data = {}
    if ARTIFACT.exists():
        try:
            data = json.loads(ARTIFACT.read_text())
        except (ValueError, OSError):
            data = {}
    # Drop anything that is not a current section (e.g. the pre-section
    # flat layout) so the artifact never accumulates stale keys.
    data = {k: v for k, v in data.items()
            if k in ("sweep", "sampling", "adaptive", "batched", "paired")}
    data[section] = payload
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")


# ----------------------------------------------------------------------
# Sweep scaling (serial vs parallel)
# ----------------------------------------------------------------------

def _sweep_jobs():
    base = ProcessorConfig.cortex_a72_like()
    return [SimJob.make(name, cfg, INSTRUCTIONS, SKIP)
            for name in WORKLOADS for cfg in (base, base.with_pubs())]


def _timed_run(jobs, workers):
    executor = SweepExecutor(jobs=workers, cache=False)
    start = time.perf_counter()
    results = executor.run(jobs)
    elapsed = time.perf_counter() - start
    assert executor.simulations_run == len(jobs), "cache must be disabled"
    cycles = sum(r.stats.cycles for r in results)
    return {
        "workers": workers,
        "wall_seconds": elapsed,
        "simulated_cycles": cycles,
        "cycles_per_second": cycles / elapsed if elapsed > 0 else 0.0,
    }, results


def test_perf_throughput(report):
    jobs = _sweep_jobs()
    cpus = os.cpu_count() or 1
    workers = min(4, cpus)

    serial, serial_results = _timed_run(jobs, 1)
    rows = [
        ["jobs in sweep", str(len(jobs))],
        ["serial wall s", f"{serial['wall_seconds']:.2f}"],
        ["serial cycles/s", f"{serial['cycles_per_second']:,.0f}"],
    ]
    artifact = {
        "workloads": WORKLOADS, "configs": ["base", "pubs"],
        "jobs": len(jobs), "instructions": INSTRUCTIONS, "skip": SKIP,
        "cpu_count": cpus,
        "serial": serial,
        "parallel_skipped": cpus < 2,
    }

    if cpus < 2:
        # One core: a worker pool cannot speed anything up; running it
        # anyway would record ~1x "speedup" that is really pool overhead.
        artifact["parallel"] = None
        artifact["speedup"] = None
        rows.append(["parallel", "skipped (single-core host)"])
    else:
        parallel, parallel_results = _timed_run(jobs, workers)
        assert parallel_results == serial_results, \
            "parallel execution must be bit-identical to serial"
        assert serial["simulated_cycles"] == parallel["simulated_cycles"]
        speedup = serial["wall_seconds"] / parallel["wall_seconds"] \
            if parallel["wall_seconds"] > 0 else 0.0
        artifact["parallel"] = parallel
        artifact["speedup"] = speedup
        rows += [
            [f"parallel wall s (x{workers})",
             f"{parallel['wall_seconds']:.2f}"],
            ["parallel cycles/s", f"{parallel['cycles_per_second']:,.0f}"],
            ["speedup", f"{speedup:.2f}x"],
        ]

    _update_artifact("sweep", artifact)
    report(f"Harness throughput ({cpus}-core host; artifact: {ARTIFACT.name})",
           render_table(["metric", "value"], rows))

    if cpus >= 4:
        assert artifact["speedup"] >= 2.0, \
            f"8-job sweep with {workers} workers should scale >= 2x on a " \
            f"{cpus}-core machine, measured {artifact['speedup']:.2f}x"


# ----------------------------------------------------------------------
# Sampled simulation vs full run
# ----------------------------------------------------------------------

def _decode_throughput(program, trace):
    """Lookups/second decoding every trace PC, by index vs ``Program.at``."""
    pcs = trace.pcs
    table = program.insts

    start = time.perf_counter()
    for pc in pcs:
        program.at(pc)
    at_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for pc in pcs:
        table[pc // INST_BYTES]
    table_elapsed = time.perf_counter() - start

    return {
        "lookups": len(pcs),
        "program_at_per_second": len(pcs) / at_elapsed if at_elapsed else 0.0,
        "decode_table_per_second":
            len(pcs) / table_elapsed if table_elapsed else 0.0,
        "speedup": at_elapsed / table_elapsed if table_elapsed else 0.0,
    }


def test_sampling_accuracy_speedup(report):
    cfg = ProcessorConfig.cortex_a72_like()
    store = TraceStore(persistent=False)
    records = SAMPLING_SKIP + SAMPLING_INSTRUCTIONS + replay_reach(cfg)

    rows = []
    per_workload = {}
    full_cpu = sampled_cpu = full_wall = sampled_wall = 0.0
    decode = None
    for workload in SAMPLING_WORKLOADS:
        profile = get_profile(workload)
        program = build_program(profile)
        # Both legs replay the same trace, so capture is excluded from
        # the timing: the gate is equal-coverage wall time.
        trace = store.acquire(program, profile.mem_seed, records)
        if decode is None:
            decode = _decode_throughput(program, trace)

        start = _clock()
        full = simulate(program, cfg,
                        max_instructions=SAMPLING_INSTRUCTIONS,
                        skip_instructions=SAMPLING_SKIP,
                        mem_seed=profile.mem_seed, trace_source=store)
        full_elapsed, full_elapsed_wall = _since(start)

        start = _clock()
        sampled = sample_workload(workload, cfg,
                                  instructions=SAMPLING_INSTRUCTIONS,
                                  skip=SAMPLING_SKIP,
                                  jobs=1, cache=False, store=store)
        sampled_elapsed, sampled_elapsed_wall = _since(start)

        error = sampled_vs_full_error(sampled, full)
        full_cpi = full.stats.cycles / full.stats.committed
        full_cpu += full_elapsed
        sampled_cpu += sampled_elapsed
        full_wall += full_elapsed_wall
        sampled_wall += sampled_elapsed_wall
        per_workload[workload] = {
            "full_cpi": full_cpi,
            "sampled_cpi": sampled.cpi.point,
            "error": error,
            "regions": len(sampled.plan.regions),
            "coverage": sampled.coverage,
            "full_cpu_seconds": full_elapsed,
            "sampled_cpu_seconds": sampled_elapsed,
            "full_wall_seconds": full_elapsed_wall,
            "sampled_wall_seconds": sampled_elapsed_wall,
            "speedup": full_elapsed / sampled_elapsed
            if sampled_elapsed else 0.0,
        }
        rows.append([workload, f"{full_cpi:.4f}", f"{sampled.cpi.point:.4f}",
                     f"{error:.2%}", str(len(sampled.plan.regions)),
                     f"{sampled.coverage:.1%}",
                     f"{per_workload[workload]['speedup']:.2f}x"])
        assert error <= CPI_ERROR_GATE, \
            f"{workload}: sampled CPI off by {error:.2%} " \
            f"(gate {CPI_ERROR_GATE:.0%})"
        assert sampled.coverage <= DEFAULT_MAX_FRACTION + 1e-9, \
            f"{workload}: simulated {sampled.coverage:.1%} of the span, " \
            f"over the {DEFAULT_MAX_FRACTION:.1%} budget"

    speedup = full_cpu / sampled_cpu if sampled_cpu else 0.0
    artifact = {
        "workloads": SAMPLING_WORKLOADS,
        "instructions": SAMPLING_INSTRUCTIONS,
        "skip": SAMPLING_SKIP,
        "error_gate": CPI_ERROR_GATE,
        "max_fraction": DEFAULT_MAX_FRACTION,
        "per_workload": per_workload,
        "full_cpu_seconds": full_cpu,
        "sampled_cpu_seconds": sampled_cpu,
        "full_wall_seconds": full_wall,
        "sampled_wall_seconds": sampled_wall,
        "speedup": speedup,
        "min_speedup": SAMPLING_MIN_SPEEDUP,
        "decode_memo": decode,
    }
    _update_artifact("sampling", artifact)

    rows.append(["aggregate", "", "", "", "", "",
                 f"{speedup:.2f}x (gate: {SAMPLING_MIN_SPEEDUP}x)"])
    rows.append(["decode memo", "", "", "", "", "",
                 f"{decode['speedup']:.1f}x vs Program.at"])
    report(f"Sampled vs full simulation (artifact: {ARTIFACT.name})",
           render_table(["workload", "full CPI", "sampled CPI", "error",
                         "regions", "coverage", "speedup"], rows))

    assert speedup >= SAMPLING_MIN_SPEEDUP, \
        f"sampling must take >= {SAMPLING_MIN_SPEEDUP}x less CPU time " \
        f"than the full runs in aggregate, measured {speedup:.2f}x"


# ----------------------------------------------------------------------
# Adaptive sampling: honest CIs at below-fixed cost
# ----------------------------------------------------------------------

#: Adaptive must simulate fewer records than the fixed 8-region plan on
#: at least this many of the gated workloads (gcc's phase variance makes
#: it legitimately escalate past 8 -- spend is supposed to follow
#: variance, so one expensive workload is not a failure).
ADAPTIVE_MIN_CHEAPER = 2


def test_adaptive_sampling_honesty(report):
    """The sampled speedup table with CIs, against full-budget goldens.

    Two gates: every (config, workload) cell's full-budget CPI must land
    inside the cell's reported 95% CI, and adaptive escalation must
    spend less than the fixed ``DEFAULT_REGIONS``-region plan on at
    least ``ADAPTIVE_MIN_CHEAPER`` of the three workloads (converging
    early where variance is low, instead of paying k=8 everywhere).
    """
    base = ProcessorConfig.cortex_a72_like()
    configs = {"base": base, "pubs": base.with_pubs()}
    store = TraceStore(persistent=False)
    fixed_records = DEFAULT_REGIONS * (DEFAULT_MEASURE + DEFAULT_DETAIL)
    # The fixed plan must not itself be budget-capped below 8 regions at
    # this span, or the comparison would be against a strawman.
    assert int(SAMPLING_INSTRUCTIONS * DEFAULT_MAX_FRACTION) \
        >= fixed_records

    rows = []
    per_workload = {}
    cells_inside = cells_total = 0
    for workload in SAMPLING_WORKLOADS:
        profile = get_profile(workload)
        program = build_program(profile)
        store.acquire(program, profile.mem_seed,
                      SAMPLING_SKIP + SAMPLING_INSTRUCTIONS
                      + max(map(replay_reach, configs.values())))
        cells = {}
        for config_name, cfg in configs.items():
            full = simulate(program, cfg,
                            max_instructions=SAMPLING_INSTRUCTIONS,
                            skip_instructions=SAMPLING_SKIP,
                            mem_seed=profile.mem_seed, trace_source=store)
            run = sample_workload(
                workload, cfg, instructions=SAMPLING_INSTRUCTIONS,
                skip=SAMPLING_SKIP, sampling="adaptive", jobs=1,
                cache=False, store=store)
            golden = full.stats.cycles / full.stats.committed
            lo, hi = run.cpi.ci95
            inside = lo <= golden <= hi
            cells_total += 1
            cells_inside += inside
            cells[config_name] = {
                "full_cpi": golden,
                "sampled_cpi": run.cpi.point,
                "ci95": [lo, hi],
                "inside": inside,
                "regions": len(run.plan.regions),
                "rounds": len(run.rounds),
                "converged": run.converged,
                "simulated_records": run.simulated_records,
            }
            rows.append([workload, config_name, f"{golden:.4f}",
                         f"{run.cpi.point:.4f}", f"{lo:.4f}..{hi:.4f}",
                         "yes" if inside else "NO",
                         str(len(run.plan.regions)),
                         str(run.simulated_records)])
        adaptive_records = max(c["simulated_records"]
                               for c in cells.values())
        per_workload[workload] = {
            "cells": cells,
            "adaptive_records": adaptive_records,
            "fixed_records": fixed_records,
            "cheaper_than_fixed": adaptive_records < fixed_records,
        }

    cheaper = sum(w["cheaper_than_fixed"] for w in per_workload.values())
    artifact = {
        "workloads": SAMPLING_WORKLOADS,
        "instructions": SAMPLING_INSTRUCTIONS,
        "skip": SAMPLING_SKIP,
        "fixed_records": fixed_records,
        "per_workload": per_workload,
        "cells_inside": cells_inside,
        "cells_total": cells_total,
        "cheaper_than_fixed": cheaper,
        "min_cheaper": ADAPTIVE_MIN_CHEAPER,
    }
    _update_artifact("adaptive", artifact)

    rows.append(["cheaper than fixed k=8", "", "", "", "", "",
                 "", f"{cheaper}/{len(SAMPLING_WORKLOADS)} "
                 f"(gate: {ADAPTIVE_MIN_CHEAPER})"])
    report(f"Adaptive sampling vs full-budget goldens "
           f"(artifact: {ARTIFACT.name})",
           render_table(["workload", "config", "full CPI", "sampled",
                         "95% CI", "inside", "regions", "records"], rows))

    assert cells_inside == cells_total, \
        f"only {cells_inside}/{cells_total} cells contained the " \
        f"full-budget CPI inside their reported 95% CI"
    assert cheaper >= ADAPTIVE_MIN_CHEAPER, \
        f"adaptive simulated fewer records than the fixed " \
        f"{DEFAULT_REGIONS}-region plan on only {cheaper} of " \
        f"{len(SAMPLING_WORKLOADS)} workloads " \
        f"(gate: {ADAPTIVE_MIN_CHEAPER})"


# ----------------------------------------------------------------------
# Batched multi-config replay vs sequential replay
# ----------------------------------------------------------------------

#: A Fig. 10-style design-space sweep: one workload, one region window,
#: eight issue-policy points.  All eight share one warm equivalence
#: class, so the batched walk trains the warm spans once.
BATCHED_WORKLOAD = "sjeng"
BATCHED_PRIORITY_ENTRIES = (2, 3, 4, 5, 6, 8, 10, 12)
BATCHED_REGION_START = int(
    os.environ.get("REPRO_BENCH_BATCHED_START", "110000"))
BATCHED_WARMUP = int(os.environ.get("REPRO_BENCH_BATCHED_WARMUP", "96000"))
BATCHED_MEASURE = int(os.environ.get("REPRO_BENCH_BATCHED_MEASURE", "128"))
BATCHED_DETAIL = int(os.environ.get("REPRO_BENCH_BATCHED_DETAIL", "32"))
#: Batched replay must beat sequential replay by this much end to end, in
#: CPU time.
BATCHED_MIN_SPEEDUP = 3.0


def _batched_jobs():
    from repro.pubs import PubsConfig
    base = ProcessorConfig.cortex_a72_like()
    profile = get_profile(BATCHED_WORKLOAD)
    region = (BATCHED_REGION_START, BATCHED_WARMUP, BATCHED_DETAIL)
    return [SimJob(profile,
                   base.with_pubs(PubsConfig(priority_entries=entries))
                       .with_region(*region),
                   BATCHED_MEASURE, 0)
            for entries in BATCHED_PRIORITY_ENTRIES]


def test_batched_replay_speedup(report):
    from repro.batch import run_batch

    profile = get_profile(BATCHED_WORKLOAD)
    program = build_program(profile)
    store = TraceStore(persistent=False)
    # Both legs replay the same pre-captured trace: the gate measures
    # the per-config work batching hoists, not capture cost.
    jobs = _batched_jobs()
    store.acquire(program, profile.mem_seed,
                  BATCHED_REGION_START + BATCHED_MEASURE
                  + max(replay_reach(job.config) for job in jobs))

    # The warmup is deliberately partial (warmup < region seat), so the
    # sequential leg honestly re-trains the warm spans per config -- the
    # cost every sampled sweep pays today -- instead of hitting the
    # full-prefix warm-checkpoint store.
    assert BATCHED_WARMUP < BATCHED_REGION_START - BATCHED_DETAIL

    def best_of(reps, leg):
        best, best_wall, results = float("inf"), float("inf"), None
        for _ in range(reps):
            start = _clock()
            results = leg()
            cpu, wall = _since(start)
            best, best_wall = min(best, cpu), min(best_wall, wall)
        return best, best_wall, results

    # Best-of-N on both legs: each is well under a second, so one
    # scheduler hiccup would otherwise dominate the measured ratio.
    sequential_elapsed, sequential_wall, sequential = best_of(2, lambda: [
        simulate(program, job.config,
                 max_instructions=job.instructions,
                 skip_instructions=job.skip,
                 mem_seed=profile.mem_seed, trace_source=store)
        for job in jobs])
    batched_elapsed, batched_wall, batched = best_of(
        3, lambda: run_batch(jobs, trace_source=store))

    for seq, bat in zip(sequential, batched):
        assert dataclasses.asdict(bat) == dataclasses.asdict(seq), \
            "batched replay must stay bit-identical to sequential replay"
    speedup = sequential_elapsed / batched_elapsed \
        if batched_elapsed > 0 else 0.0

    artifact = {
        "workload": BATCHED_WORKLOAD,
        "configs": len(jobs),
        "priority_entries": list(BATCHED_PRIORITY_ENTRIES),
        "region_start": BATCHED_REGION_START,
        "warmup": BATCHED_WARMUP,
        "measure": BATCHED_MEASURE,
        "detail": BATCHED_DETAIL,
        "sequential_cpu_seconds": sequential_elapsed,
        "batched_cpu_seconds": batched_elapsed,
        "sequential_wall_seconds": sequential_wall,
        "batched_wall_seconds": batched_wall,
        "speedup": speedup,
        "min_speedup": BATCHED_MIN_SPEEDUP,
    }
    _update_artifact("batched", artifact)

    rows = [
        ["configs in batch", str(len(jobs))],
        ["region (start/warmup/measure+detail)",
         f"{BATCHED_REGION_START:,} / {BATCHED_WARMUP:,} / "
         f"{BATCHED_MEASURE + BATCHED_DETAIL:,}"],
        ["sequential CPU s (wall s)",
         f"{sequential_elapsed:.2f} ({sequential_wall:.2f})"],
        ["batched CPU s (wall s)",
         f"{batched_elapsed:.2f} ({batched_wall:.2f})"],
        ["CPU-time speedup",
         f"{speedup:.2f}x (gate: {BATCHED_MIN_SPEEDUP}x)"],
    ]
    report(f"Batched vs sequential replay (artifact: {ARTIFACT.name})",
           render_table(["metric", "value"], rows))

    assert speedup >= BATCHED_MIN_SPEEDUP, \
        f"batched replay must take >= {BATCHED_MIN_SPEEDUP}x less CPU " \
        f"time than sequential replay on this sweep, measured {speedup:.2f}x"


# ----------------------------------------------------------------------
# Paired estimation + table budget control vs one-config tables
# ----------------------------------------------------------------------

#: The whole-table precision target both legs are driven to.  Tight
#: enough that the independent leg must escalate per-cell CPI CIs well
#: past the starting set (sjeng's and gcc's phase variance keeps their
#: CPI CIs above it all the way to the region cap), while the paired
#: speedup CI -- common-mode window variance cancelled -- meets it on
#: the starting set.
PAIRED_CI_TARGET = float(
    os.environ.get("REPRO_BENCH_PAIRED_CI_TARGET", "0.025"))
#: The paired/controller leg must spend at least this many times fewer
#: simulated records than the independent leg at the same target.
PAIRED_MIN_REDUCTION = 2.0
#: The compared machines: a recovery-penalty sensitivity pair (the
#: paper's central quantity).  The penalty delta costs each window in
#: proportion to its mispredictions, so the per-window CPI *ratio* is
#: phase-stable even where the CPIs themselves swing -- the regime the
#: paired estimator exists for, and exactly the kind of design-space
#: delta a table query compares.
PAIRED_RECOVERY_PENALTY = 12
#: Measurement window for both sampled legs.  Finer than the CPI
#: benches' default: small windows resolve gcc's phase structure well
#: enough that the three starting medoids weight the *ratio* correctly,
#: while the extra per-window noise they add is common-mode and cancels
#: in the pairing -- it only inflates the per-cell CPI CIs the
#: independent leg chases, which is the cost asymmetry under test.
PAIRED_MEASURE = int(os.environ.get("REPRO_BENCH_PAIRED_MEASURE", "512"))


def test_paired_budget_reduction(report):
    from repro.sampling import AdaptiveSession, TableController, paired_speedup

    base = ProcessorConfig.cortex_a72_like()
    configs = {"base": base,
               "slow-recovery": base.with_overrides(
                   recovery_penalty=PAIRED_RECOVERY_PENALTY)}
    store = TraceStore(persistent=False)

    full_speedups = {}
    independent = {}
    controller = TableController(PAIRED_CI_TARGET)
    for workload in SAMPLING_WORKLOADS:
        profile = get_profile(workload)
        program = build_program(profile)
        store.acquire(program, profile.mem_seed,
                      SAMPLING_SKIP + SAMPLING_INSTRUCTIONS
                      + max(map(replay_reach, configs.values())))
        full_cpi = {}
        for config_name, cfg in configs.items():
            full = simulate(program, cfg,
                            max_instructions=SAMPLING_INSTRUCTIONS,
                            skip_instructions=SAMPLING_SKIP,
                            mem_seed=profile.mem_seed, trace_source=store)
            full_cpi[config_name] = full.stats.cycles / full.stats.committed
        first, second = configs
        full_speedups[workload] = full_cpi[first] / full_cpi[second]

        # Leg A: every cell is its own one-config table, escalating to
        # its own CPI CI target.
        independent[workload] = 0
        for cfg in configs.values():
            cell = TableController(PAIRED_CI_TARGET)
            cell.add(workload, AdaptiveSession(
                workload, [cfg],
                instructions=SAMPLING_INSTRUCTIONS, skip=SAMPLING_SKIP,
                ci_target=PAIRED_CI_TARGET, measure=PAIRED_MEASURE,
                jobs=1, cache=False, store=store))
            cell.run()
            independent[workload] += cell.simulated_records

        # Leg B: the controller stops on the paired speedup CI instead.
        controller.add(workload, AdaptiveSession(
            workload, list(configs.values()),
            instructions=SAMPLING_INSTRUCTIONS, skip=SAMPLING_SKIP,
            ci_target=PAIRED_CI_TARGET, measure=PAIRED_MEASURE,
            jobs=1, cache=False, store=store))

    controller.run()
    table = controller.results()

    rows = []
    per_workload = {}
    for workload in SAMPLING_WORKLOADS:
        runs = table[workload]
        estimate = paired_speedup(runs[0], runs[1])
        assert estimate is not None, \
            f"{workload}: lockstep escalation must keep the schedules " \
            f"shared -- pairing cannot fall back here"
        paired_records = sum(run.simulated_records for run in runs)
        error = abs(estimate.point / full_speedups[workload] - 1.0)
        per_workload[workload] = {
            "full_speedup": full_speedups[workload],
            "paired_speedup": estimate.point,
            "error": error,
            "paired_relative_ci": estimate.relative_error,
            "shared_regions": estimate.n,
            "independent_records": independent[workload],
            "paired_records": paired_records,
            "converged": runs[0].converged,
        }
        rows.append([workload, f"{full_speedups[workload]:.4f}",
                     f"{estimate.point:.4f}", f"{error:.2%}",
                     f"{estimate.relative_error:.2%}",
                     str(independent[workload]), str(paired_records)])
        assert error <= CPI_ERROR_GATE, \
            f"{workload}: paired speedup off by {error:.2%} from the " \
            f"full simulation (gate {CPI_ERROR_GATE:.0%})"
        assert runs[0].converged \
            and estimate.relative_error <= PAIRED_CI_TARGET, \
            f"{workload}: controller stopped at paired CI " \
            f"{estimate.relative_error:.2%} without meeting the " \
            f"{PAIRED_CI_TARGET:.2%} target"

    independent_records = sum(independent.values())
    paired_records = controller.simulated_records
    reduction = independent_records / paired_records \
        if paired_records else 0.0
    artifact = {
        "workloads": SAMPLING_WORKLOADS,
        "instructions": SAMPLING_INSTRUCTIONS,
        "skip": SAMPLING_SKIP,
        "measure": PAIRED_MEASURE,
        "ci_target": PAIRED_CI_TARGET,
        "error_gate": CPI_ERROR_GATE,
        "per_workload": per_workload,
        "independent_records": independent_records,
        "paired_records": paired_records,
        "reduction": reduction,
        "min_reduction": PAIRED_MIN_REDUCTION,
    }
    _update_artifact("paired", artifact)

    rows.append(["total", "", "", "", "", str(independent_records),
                 f"{paired_records} ({reduction:.2f}x less, "
                 f"gate: {PAIRED_MIN_REDUCTION}x)"])
    report(f"Paired + table-budget vs one-config tables at CI target "
           f"{PAIRED_CI_TARGET:.1%} (artifact: {ARTIFACT.name})",
           render_table(["workload", "full speedup", "paired speedup",
                         "error", "paired CI", "indep records",
                         "paired records"], rows))

    assert reduction >= PAIRED_MIN_REDUCTION, \
        f"paired/table-budget estimation must reach the {PAIRED_CI_TARGET:.2%} " \
        f"whole-table target with >= {PAIRED_MIN_REDUCTION}x fewer simulated " \
        f"records than one-config tables, measured {reduction:.2f}x"
