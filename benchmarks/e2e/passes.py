"""One measured pass of an end-to-end workload.

A pass is: set up (import ``repro``, rebuild the seeded profiles, build
their programs, construct configs, executor and trace store), run the
workload's whole table once with the clock running, then summarize the
cells for the output checks.  ``run.py`` runs every pass in a fresh
child process, one at a time, so set-up time includes the import and
the measured phase starts from the state a user's first table sees.

The load is one closed-loop client: one table request at a time, on a
``SweepExecutor(jobs=1, backend="inline")`` -- one thread, no pool.

The workloads (see README.md for why each exists):

* ``fig8-cold``: Fig. 8, every profile x {base, PUBS}, replay front
  end, empty cache directory, result cache on.
* ``fig8-rerun``: the same table over a directory a ``fig8-cold`` pass
  filled, result cache off: traces and warm checkpoints load from disk
  and every cell re-simulates.
* ``sweep-batched``: Fig. 10, ``priority_entries`` x the sweep
  programs, one batched trace walk per program, cold traces.
* ``sampled-table``: the adaptive paired sampled suite over the D-BP
  programs under ``TableController``, cold traces.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import layers

#: Root of the checkout: ``src/`` holds the simulator under test.
ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, never elsewhere."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


WORKLOADS = ("fig8-cold", "fig8-rerun", "sweep-batched", "sampled-table")

#: ``--seed S`` moves every profile's memory seed by this much times S.
SEED_STRIDE = 1000

#: The Fig. 10 sweep: the representative D-BP subset of the parameter
#: sweeps (``SWEEP_PROGRAMS`` in benchmarks/common.py) and the swept
#: priority-partition sizes.
SWEEP_PROGRAMS = ("sjeng", "gobmk", "gcc", "bzip2", "perlbench", "astar")
PRIORITY_ENTRIES = (2, 3, 4, 5, 6, 8, 10, 12)
#: The sweep's speedup metric: the paper's default partition size (6)
#: over the smallest one swept (2).
SWEEP_REFERENCE, SWEEP_DEFAULT = 2, 6


class Scale(NamedTuple):
    """Instruction budgets of one benchmark scale."""

    timed: int  #: fig8 and sweep: timed records per cell
    skip: int  #: fig8 and sweep: warm-up records before them
    span: int  #: sampled-table: span the regions are drawn from
    span_skip: int  #: sampled-table: records before the span
    warmup: Optional[int]  #: sampled-table: warm-up per region (None: default)
    ci_target: Optional[float]  #: sampled-table: CI target (None: default)
    programs: Optional[int]  #: cap on each workload's program list


SCALES = {
    # The bench-harness budget (BENCH_INSTRUCTIONS / BENCH_SKIP) and the
    # sampled suite's defaults: the tables users regenerate.
    "paper": Scale(8000, 16000, 60000, 2000, None, None, None),
    # A quarter of the fig8 budget, so several passes fit in one timed
    # run.  The sampled table shrinks its span and per-region warm-up,
    # and its CI target is out of reach, so every program escalates to
    # its region cap: the work per table is then the same for every
    # seed, where at the default target it swings by a fifth.
    "quick": Scale(2000, 4000, 16000, 2000, 2048, 0.005, None),
    # Seconds per pass, for the smoke test.
    "smoke": Scale(500, 1000, 8000, 1000, 1024, None, 2),
}


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _gm(values: List[float]) -> float:
    from repro import geometric_mean
    return geometric_mean(values) if values else math.nan


def _cpu_s() -> float:
    """Process CPU time, self plus children (microsecond resolution)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Node:
    __slots__ = ("key", "value", "next", "hits")

    def __init__(self, key: int) -> None:
        self.key, self.value, self.next, self.hits = key, key * 3, None, 0


def reference_kernel(nodes: int = 120_000, steps: int = 300_000) -> int:
    """A fixed workload that slows down when the simulator does.

    Other tenants of a shared host slow a pass down by up to half, and
    a small loop that fits in the core's caches barely notices.  This
    one has the simulator's profile instead: many small slotted objects,
    dict lookups and pointer chasing over a working set of tens of MB.
    It lives here, not in ``src/``, so no change to the simulator can
    move it.
    """
    rng = random.Random(1)
    ring = [_Node(i) for i in range(nodes)]
    table = {}
    for node in ring:
        node.next = ring[rng.randrange(nodes)]
        table[node.key ^ 0x5BD1] = node
    acc = index = 0
    for step in range(steps):
        target = table[ring[index].next.key ^ 0x5BD1]
        target.hits += 1
        acc += target.value & 7
        index = (target.key + step) % nodes
    return acc


def reference_s() -> float:
    """CPU seconds of the reference kernel here and now (mean of two)."""
    total = 0.0
    for _ in range(2):
        start = time.process_time()
        reference_kernel()
        total += time.process_time() - start
    return total / 2


class Context(NamedTuple):
    workload: str
    scale: Scale
    names: Tuple[str, ...]
    profiles: dict
    configs: Tuple[tuple, ...]  #: (column label, ProcessorConfig)
    executor: object
    store: object


def program_names(workload: str, scale: Scale) -> Tuple[str, ...]:
    from repro import dbp_workloads, spec2006_profiles
    if workload in ("fig8-cold", "fig8-rerun"):
        names = tuple(sorted(spec2006_profiles()))
    elif workload == "sweep-batched":
        names = SWEEP_PROGRAMS
    elif workload == "sampled-table":
        names = tuple(dbp_workloads())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return names if scale.programs is None else names[:scale.programs]


def setup(workload: str, scale: Scale, seed: int,
          batch: Optional[int] = None) -> Context:
    """Everything a pass needs before the clock starts."""
    from repro import ProcessorConfig, PubsConfig, SweepExecutor, \
        build_program, spec2006_profiles
    from repro.exec.executor import DEFAULT_BATCH_LIMIT
    from repro.trace.store import shared_store

    names = program_names(workload, scale)
    profiles = {name: dataclasses.replace(
        profile, mem_seed=profile.mem_seed + SEED_STRIDE * seed)
        for name, profile in spec2006_profiles().items() if name in names}
    for name in names:
        build_program(profiles[name])
    base = ProcessorConfig.cortex_a72_like().with_frontend("replay")
    if workload == "sweep-batched":
        configs = tuple(
            (f"entries={n}", base.with_pubs(PubsConfig(priority_entries=n)))
            for n in PRIORITY_ENTRIES)
    else:
        configs = (("base", base), ("pubs", base.with_pubs()))
    executor = SweepExecutor(
        jobs=1, backend="inline", cache=workload == "fig8-cold",
        batch=DEFAULT_BATCH_LIMIT if batch is None else batch)
    return Context(workload, scale, names, profiles, configs, executor,
                   shared_store())


# ----------------------------------------------------------------------
# The measured phase of each workload.  Each returns results by cell id
# and an error message per failed cell id (and the sampled table, its
# controller).
# ----------------------------------------------------------------------

def _record_failure(failures: Dict[str, str], cells, exc: Exception) -> None:
    traceback.print_exception(type(exc), exc, exc.__traceback__,
                              file=sys.stderr)
    for cell in cells:
        failures[cell] = f"{type(exc).__name__}: {exc}"


def _run_full(ctx: Context, rows) -> tuple:
    """Full-simulation cells: one executor call per (program, columns)."""
    from repro import SimJob
    results, failures = {}, {}
    for name, columns in rows:
        cells = [f"{name}/{label}" for label, _ in columns]
        jobs = [SimJob(ctx.profiles[name], cfg, ctx.scale.timed,
                       ctx.scale.skip) for _, cfg in columns]
        try:
            results.update(zip(cells, ctx.executor.run(jobs)))
        except Exception as exc:  # a failed cell is counted, not raised
            _record_failure(failures, cells, exc)
    return results, failures


def _fig8(ctx: Context) -> tuple:
    # One cell per executor call: base and PUBS differ in warm class, so
    # the suite never batches them either.
    return _run_full(ctx, [(name, [column]) for name in ctx.names
                           for column in ctx.configs])


def _sweep(ctx: Context) -> tuple:
    return _run_full(ctx, [(name, ctx.configs) for name in ctx.names])


def _sampled(ctx: Context) -> tuple:
    from repro.sampling.adaptive import DEFAULT_CI_TARGET, AdaptiveSession
    from repro.sampling.controller import TableController
    labels = [label for label, _ in ctx.configs]
    ci_target = ctx.scale.ci_target or DEFAULT_CI_TARGET
    controller = TableController(ci_target)
    warmup = {} if ctx.scale.warmup is None else {"warmup": ctx.scale.warmup}
    failures: Dict[str, str] = {}
    added = []
    for name in ctx.names:
        # A session whose trace cannot be captured is where the sampled
        # suite would fall back to full simulation: a failed pair here.
        try:
            controller.add(name, AdaptiveSession(
                ctx.profiles[name], [cfg for _, cfg in ctx.configs],
                instructions=ctx.scale.span, skip=ctx.scale.span_skip,
                ci_target=ci_target, executor=ctx.executor, **warmup))
            added.append(name)
        except Exception as exc:
            _record_failure(failures, [f"{name}/{l}" for l in labels], exc)
    results = {}
    try:
        controller.run()
        table = controller.results()
    except Exception as exc:
        _record_failure(failures, [f"{name}/{l}" for name in added
                                   for l in labels], exc)
        return results, failures, controller
    for name in added:
        for label, run in zip(labels, table[name]):
            results[f"{name}/{label}"] = run
    return results, failures, controller


MEASURE = {"fig8-cold": _fig8, "fig8-rerun": _fig8,
           "sweep-batched": _sweep, "sampled-table": _sampled}


# ----------------------------------------------------------------------
# Summaries (after the clock stops)
# ----------------------------------------------------------------------

def _full_cell(result) -> str:
    return _digest(dataclasses.asdict(result.stats))


def _full_model(ctx: Context, results: dict) -> dict:
    """Model outputs of a full-simulation table; never gated.

    The speedup is a geomean over the D-BP rows (all rows when none is
    D-BP); the sweep compares its default column against its reference.
    """
    ref, var = (("entries=%d" % SWEEP_REFERENCE, "entries=%d" % SWEEP_DEFAULT)
                if ctx.workload == "sweep-batched" else ("base", "pubs"))
    rows = [(results[f"{n}/{ref}"], results[f"{n}/{var}"])
            for n in ctx.names
            if f"{n}/{ref}" in results and f"{n}/{var}" in results]
    dbp = [row for row in rows if row[0].stats.is_difficult_branch_prediction]
    ratios = [v.stats.ipc / b.stats.ipc for b, v in (dbp or rows)]
    return {
        "analysis.pubs_gm_speedup_pct": (_gm(ratios) - 1.0) * 100.0,
        "analysis.ipc_gm_base": _gm([b.stats.ipc for b, _ in rows]),
        "branch.mpki_mean": _mean([b.stats.branch_mpki for b, _ in rows]),
        "memory.llc_mpki_mean": _mean([b.stats.llc_mpki for b, _ in rows]),
        "pubs.priority_dispatches": float(sum(
            r.iq_priority_dispatches for r in results.values())),
        "sampling.regions": 0.0, "sampling.records_per_cell": 0.0,
        "sampling.converged_frac": 0.0, "sampling.max_rel_ci": 0.0,
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def _sampled_cells(ctx: Context, results: dict, failures: dict,
                   controller) -> tuple:
    """Cell digests, paired checks and model outputs of a sampled table."""
    from repro import PairedRun, WorkloadRun
    from repro.sampling.aggregate import weighted_ratio
    cells, speedups, rel_cis, converged, base_runs = {}, [], [], [], []
    for name in ctx.names:
        base_id, pubs_id = f"{name}/base", f"{name}/pubs"
        if base_id not in results or pubs_id not in results:
            continue
        base, pubs = results[base_id], results[pubs_id]
        estimate = PairedRun(name, WorkloadRun(name, sampled=base),
                             WorkloadRun(name, sampled=pubs)).paired
        if estimate is None:
            failures[base_id] = failures[pubs_id] = \
                "paired_speedup returned None"
            continue
        for cell, run in ((base_id, base), (pubs_id, pubs)):
            cells[cell] = _digest({
                "cpi": run.cpi.point, "ci95": list(run.cpi.ci95),
                "regions": [[r.start, r.weight] for r in run.plan.regions],
                "records": run.simulated_records,
                "converged": run.converged})
        cells[pubs_id + "/speedup"] = _digest(
            [estimate.point, estimate.relative_error])
        speedups.append(estimate.point)
        rel_cis.append(estimate.relative_error)
        converged.append(bool(base.converged))
        base_runs.append(base)

    def mpki(run, counter) -> float:
        return weighted_ratio(run.results, [r.weight for r in run.plan.regions],
                              counter, lambda r: r.stats.committed, 1000.0)

    finite_cis = [ci for ci in rel_cis if math.isfinite(ci)]
    model = {
        "analysis.pubs_gm_speedup_pct": (_gm(speedups) - 1.0) * 100.0,
        "analysis.ipc_gm_base": _gm([1.0 / r.cpi.point for r in base_runs]),
        "branch.mpki_mean": _mean(
            [mpki(r, lambda x: x.stats.mispredictions) for r in base_runs]),
        "memory.llc_mpki_mean": _mean(
            [mpki(r, lambda x: x.stats.llc_misses) for r in base_runs]),
        "pubs.priority_dispatches": float(sum(
            region.iq_priority_dispatches for run in results.values()
            for region in run.results)),
        "sampling.regions": float(controller.regions),
        "sampling.records_per_cell":
            controller.simulated_records / max(1, len(results)),
        "sampling.converged_frac": _mean([float(c) for c in converged]),
        "sampling.max_rel_ci": max(finite_cis) if finite_cis else math.nan,
    }
    return cells, model, controller.simulated_records


def _store_counts(store) -> Dict[str, int]:
    return {name: getattr(store, attr, 0) for name, attr in (
        ("trace.captures", "captures"), ("trace.extensions", "extensions"),
        ("trace.warm_trainings", "warm_trainings"),
        ("trace.warm_restores", "warm_restores"))}


def run_pass(workload: str, scale: Scale, seed: int,
             traced: bool = False) -> dict:
    """Set up, measure and summarize one pass of ``workload``."""
    started = time.perf_counter()
    ctx = setup(workload, scale, seed)
    setup_s = time.perf_counter() - started

    before = _store_counts(ctx.store)
    with (layers.traced() if traced else contextlib.nullcontext()) as tracer:
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        outcome = MEASURE[workload](ctx)
        wall_s = time.perf_counter() - wall0
        cpu_s = _cpu_s() - cpu0
    # Before the reference kernel allocates its own working set.
    peak_rss_mb = _peak_rss_mb()
    ref_s = reference_s()
    store = {name: value - before[name]
             for name, value in _store_counts(ctx.store).items()}

    if workload == "sampled-table":
        results, failures, controller = outcome
        cells, model, sim_records = _sampled_cells(ctx, results, failures,
                                                   controller)
    else:
        results, failures = outcome
        cells = {cell: _full_cell(r) for cell, r in results.items()}
        model = _full_model(ctx, results)
        sim_records = sum(r.stats.committed for r in results.values())
    attempted = len(ctx.names) * len(ctx.configs)
    cache = ctx.executor.cache
    out = {
        "workload": workload, "seed": seed, "traced": traced,
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "reference_s": ref_s, "peak_rss_mb": peak_rss_mb,
        "sim_records": sim_records,
        "attempted": attempted, "failed": len(failures),
        "failed_cells": sorted(failures),
        "failures": sorted(f"{c}: {m}" for c, m in failures.items())[:10],
        "cells": cells, "digest": _digest(cells), "store": store,
        "model": {k: _finite(v) for k, v in model.items()},
    }
    if tracer is not None:
        per_layer = layers.layer_metrics(tracer, wall_s)
        per_layer.update({k: float(v) for k, v in store.items()})
        per_layer["exec.cache_hits"] = float(cache.stats.hits if cache else 0)
        per_layer["exec.cache_stores"] = \
            float(cache.stats.stores if cache else 0)
        out["layers"] = per_layer
        out["unit_ms"] = tracer.unit_ms
        out["missing"] = sorted(tracer.missing)
    return out


def setup_only(workload: str, scale: Scale, seed: int) -> dict:
    """Set-up time alone (extra set-up samples for one run)."""
    started = time.perf_counter()
    setup(workload, scale, seed)
    setup_s = time.perf_counter() - started
    return {"setup_s": setup_s, "reference_s": reference_s()}


def sweep_reference(scale: Scale, seed: int) -> dict:
    """Cell digests of one sweep program replayed without batching."""
    ctx = setup("sweep-batched", scale, seed, batch=0)
    ctx = ctx._replace(names=ctx.names[:1])
    results, failures = _sweep(ctx)
    return {"cells": {cell: _full_cell(r) for cell, r in results.items()},
            "failed": len(failures)}
