"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list``                      -- the 28 workloads and their profiles
* ``run WORKLOAD``              -- simulate one workload on one machine
* ``compare WORKLOAD``          -- base vs PUBS side by side
  (``--topdown`` adds the per-bucket CPI delta: which bucket moved)
* ``report --topdown``          -- top-down cycle attribution (§15):
  one workload renders the hierarchy, several render a suite table,
  ``--compare`` decomposes the base-vs-variant CPI delta per workload
* ``suite``                     -- Fig. 8-style sweep over many workloads
* ``cost``                      -- Table III hardware cost
* ``disasm WORKLOAD``           -- generated program listing
* ``cache stats|clear``         -- persistent result-cache maintenance
* ``verify [--workload W]``     -- differential-oracle + invariant check
* ``trace record|info``         -- capture/inspect replay traces (§9)
* ``sample [WORKLOADS]``        -- sampled CPI estimate (§10, §11)
* ``profile WORKLOAD``          -- cProfile one run, print top hotspots
* ``stress list|run``           -- stress-kernel families vs their
  expected-bottleneck contracts (§13)

Simulations run through the sweep executor: ``--jobs N`` (or ``REPRO_JOBS``)
fans independent runs across worker processes, and results persist in the
on-disk cache (``REPRO_CACHE_DIR``; ``--no-cache`` or ``REPRO_CACHE=0``
disables it).  The timing model always replays recorded traces
(DESIGN.md §9); ``--no-cache`` bypasses only the result cache, so traces
and warm checkpoints still persist unless ``REPRO_CACHE=0``.
``--sampling fixed|adaptive`` (or ``REPRO_SAMPLING``) estimates
whole-span metrics from sampled regions instead of simulating everything,
annotating every figure with its ~95% CI; ``--sampling adaptive`` keeps
adding regions until the CI half-width falls below ``--ci-target`` (or
``REPRO_CI_TARGET``).  Every sampled figure -- a cell, a pair, a suite
row -- comes from one table under one budget controller, so ``compare``
and ``suite`` report the same speedup for a workload.  ``--batch N`` (or
``REPRO_BATCH``) lets up to N replay configs of one workload share a
single batched trace walk (DESIGN.md §12); 0 disables batching.
These shared flags are declared once per *flag family*
(:func:`add_flag_families`) and follow one precedence everywhere:
explicit flag > environment > default.

Input errors -- an unknown workload, a non-positive ``-n`` or negative
``--skip``, ``--ci-target`` (or ``REPRO_CI_TARGET``) without adaptive
sampling, a bad ``REPRO_SAMPLING`` / ``REPRO_CI_TARGET`` /
``REPRO_JOBS`` / ``REPRO_BATCH`` value, a ``trace record`` store
directory that cannot be created, or a ``trace record`` into a
memory-only store (``REPRO_CACHE=0`` without ``--dir``) -- exit 2 with
one ``error:`` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Dict, List, Optional

from .analysis import (
    breakdown_of,
    compare_topdown,
    geometric_mean,
    render_table,
    suite_table_rows,
)
from .api import (
    PairedRun,
    RunRequest,
    WorkloadRun,
    run_pair,
    run_suite,
    run_workload,
    sample_workload,
)
from .core import ProcessorConfig
from .core.config import EnvValueError
from .core.stats import D_BP_BRANCH_MPKI_THRESHOLD
from .exec import CACHE_SCHEMA_VERSION, ResultCache, SweepExecutor
from .pubs import PubsConfig, pubs_hardware_cost
from .verify import InvariantViolation
from .workloads import build_program, get_profile, spec2006_profiles


def _machine_from_args(args) -> ProcessorConfig:
    """The machine the flags describe.

    Flags no machine can have raise :class:`ValueError` naming them;
    :func:`main` checks this before any command runs.
    """
    flags = "--iq-org/--distributed/--age-matrix"
    try:
        cfg = ProcessorConfig.cortex_a72_like(
            iq_organization=args.iq_org,
            distributed_iq=args.distributed,
        )
        if args.age_matrix:
            cfg = cfg.with_age_matrix()
        if args.pubs:
            flags = f"--pubs --priority-entries {args.priority_entries}"
            cfg = cfg.with_pubs(PubsConfig(
                priority_entries=args.priority_entries,
                stall_policy=not args.non_stall,
            ))
        if args.smt:
            flags = f"--smt-interleave {args.smt_interleave}"
            cfg = cfg.with_smt(interleave=args.smt_interleave)
    except ValueError as exc:
        raise ValueError(f"{flags}: {exc}") from None
    return cfg


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pubs", action="store_true",
                        help="enable PUBS (Table II defaults)")
    parser.add_argument("--priority-entries", type=int, default=6,
                        help="PUBS priority entries (default 6)")
    parser.add_argument("--non-stall", action="store_true",
                        help="use the non-stall dispatch policy")
    parser.add_argument("--age-matrix", action="store_true",
                        help="add the age matrix to the IQ")
    parser.add_argument("--iq-org", default="random",
                        choices=["random", "shifting", "circular"],
                        help="IQ organization (Sec. III-B1)")
    parser.add_argument("--distributed", action="store_true",
                        help="distribute the IQ per FU class (Sec. III-C2)")
    parser.add_argument("--smt", action="store_true",
                        help="enable the SMT-interference co-runner "
                             "(pollutes predictor/BTB/PUBS tables)")
    parser.add_argument("--smt-interleave", type=int, default=64,
                        metavar="N",
                        help="commits between co-runner bursts "
                             "(default 64; smaller = more interference)")


def _positive_float(text: str) -> float:
    """argparse type for quantities that must be > 0 (--ci-target).

    Raising :class:`argparse.ArgumentTypeError` makes argparse exit
    with status 2 and the flag's own usage message, instead of a deep
    traceback from the layer that would trip over the value.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not value > 0:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. --jobs).

    ``--jobs 0`` used to reach the worker pool and die with a deep
    traceback; rejecting it here exits 2 with the flag's own usage
    message, like the other up-front knob validation.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive count, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for counts where 0 is legal but negatives are not
    (e.g. --batch: 0 disables batching)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


#: Named flag families (registered by :func:`_flag_family`); each is
#: declared exactly once and attached wherever it applies.
_FLAG_FAMILIES: "Dict[str, Callable[[argparse.ArgumentParser], None]]" = {}


def _flag_family(name: str):
    """Register a function that declares one family of shared flags."""
    def register(declare):
        _FLAG_FAMILIES[name] = declare
        return declare
    return register


def add_flag_families(parser: argparse.ArgumentParser,
                      *families: str) -> argparse.ArgumentParser:
    """Attach the named flag families to ``parser`` (declared once,
    reused everywhere -- the registrar behind :func:`_shared_parent`)."""
    for name in families:
        _FLAG_FAMILIES[name](parser)
    return parser


@_flag_family("exec")
def _exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        metavar="N",
                        help="worker processes for independent simulations "
                             "(default: REPRO_JOBS or the usable-CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    parser.add_argument("--batch", type=_non_negative_int, default=None,
                        metavar="N",
                        help="max replay configs sharing one batched trace "
                             "walk (default: REPRO_BATCH, else 16; 0 or 1 "
                             "disables batching)")


@_flag_family("sampling")
def _sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sampling", default=None,
                        choices=["off", "fixed", "adaptive"],
                        help="estimate from sampled regions instead of "
                             "simulating the whole span (default: "
                             "REPRO_SAMPLING, else off)")
    parser.add_argument("--ci-target", type=_positive_float, default=None,
                        metavar="FRAC",
                        help="relative CI half-width adaptive sampling "
                             "drives toward (default: REPRO_CI_TARGET, "
                             "else 0.05)")


def _shared_parent() -> argparse.ArgumentParser:
    """The execution flags every simulating subcommand shares.

    One parent parser instead of per-command copies, so run / compare /
    suite / sample / verify / profile stay flag-compatible and the
    flag > environment > default precedence is implemented (and tested)
    exactly once, in :func:`_request_from_args` + ``RunRequest``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    return add_flag_families(parent, "exec", "sampling")


#: Budget the simulating subcommands apply when no flag provides one
#: (distinct from the library's 20k/2k).
CLI_INSTRUCTIONS = 10_000
CLI_SKIP = 10_000


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    # default=None: the CLI default applies last, in _request_from_args.
    parser.add_argument("-n", "--instructions", type=_positive_int,
                        default=None,
                        help="committed instructions to simulate "
                             f"(default {CLI_INSTRUCTIONS})")
    parser.add_argument("--skip", type=_non_negative_int, default=None,
                        help="instructions fast-forwarded for warm-up "
                             f"(default {CLI_SKIP})")


def _cache_flag(args) -> Optional[bool]:
    """Map --no-cache onto the executor's cache policy argument."""
    return False if args.no_cache else None


def _executor_from_args(args) -> SweepExecutor:
    """The executor a subcommand's exec flags describe."""
    return SweepExecutor(jobs=args.jobs, cache=_cache_flag(args),
                         batch=args.batch)


def _request_from_args(args) -> RunRequest:
    """One :class:`RunRequest` from whatever flags the command carries.

    Unset fields stay None, so the request's
    :meth:`~repro.core.config.RunRequest.resolved` step (inside the
    runner) lets the environment fill them and the library defaults
    apply last -- the flag > env > default precedence, in one place for
    every subcommand.
    """
    flags = RunRequest(
        instructions=getattr(args, "instructions", None),
        skip=getattr(args, "skip", None),
        jobs=getattr(args, "jobs", None),
        cache=False if getattr(args, "no_cache", False) else None,
        batch=getattr(args, "batch", None),
        sampling=getattr(args, "sampling", None),
        ci_target=getattr(args, "ci_target", None),
        regions=getattr(args, "regions", None),
        measure=getattr(args, "measure", None),
        warmup=getattr(args, "warmup", None),
        detail=getattr(args, "detail", None),
        max_fraction=getattr(args, "fraction", None),
    )
    # The CLI's classic budget applies only to commands that expose
    # budget flags, and only when no flag supplied one.
    if hasattr(args, "instructions"):
        flags = flags.with_overrides(
            instructions=CLI_INSTRUCTIONS if flags.instructions is None
            else None,
            skip=CLI_SKIP if flags.skip is None else None)
    return flags


def _sampling_request(args) -> RunRequest:
    """The sampling mode and CI target the flags and environment resolve
    to; a combination no run can have raises :class:`ValueError`."""
    return RunRequest(sampling=args.sampling,
                      ci_target=args.ci_target).resolved()


def _pct(value: float) -> str:
    """Render a relative quantity, NaN as ``n/a`` (no claim)."""
    return "n/a" if math.isnan(value) else f"{value:.2%}"


def _estimate_ci(estimate) -> str:
    """Render a SampledEstimate's ~95% interval, NaN as ``n/a``."""
    half = estimate.ci_halfwidth
    return "n/a" if math.isnan(half) else f"+/-{half:.4f}"


def _cell_mpki(cell: WorkloadRun) -> "tuple[float, float]":
    """(branch MPKI, LLC MPKI) of a cell, weighted for sampled ones."""
    if cell.sampled is not None:
        from .sampling import weighted_ratio
        weights = [r.weight for r in cell.sampled.plan.regions]
        return (
            weighted_ratio(cell.sampled.results, weights,
                           lambda r: r.stats.mispredictions,
                           lambda r: r.stats.committed, 1000.0),
            weighted_ratio(cell.sampled.results, weights,
                           lambda r: r.stats.llc_misses,
                           lambda r: r.stats.committed, 1000.0),
        )
    return cell.stats.branch_mpki, cell.stats.llc_mpki


def _note_fallback(cell: WorkloadRun, label: str = "") -> None:
    if cell.fallback_reason:
        where = f" for {label}" if label else ""
        print(f"  note: sampling fell back to full simulation{where} "
              f"({cell.fallback_reason})", file=sys.stderr)


def _print_spend(cells: "list[WorkloadRun]", executor: SweepExecutor) -> None:
    """One-line spend summary for a sampled table or pair.

    Makes the budget controller's savings visible at the prompt:
    total timed records bought, over how many sampled regions, and the
    executor's dedup/cache accounting for the same submissions.
    """
    records = sum(cell.simulated_records for cell in cells)
    regions = sum(len(cell.sampled.results) for cell in cells
                  if cell.is_sampled)
    print(f"spend: {records} simulated records across {regions} sampled "
          f"regions [{executor.summary()}]")


def _cmd_list(args) -> int:
    rows = []
    for name, profile in sorted(spec2006_profiles().items()):
        rows.append([name, profile.hard_branch_sites,
                     profile.data_footprint_bytes // 1024,
                     profile.description])
    print(render_table(
        ["workload", "hard branches", "footprint KB", "description"], rows))
    return 0


def _cmd_run(args) -> int:
    config = _machine_from_args(args)
    result = run_workload(args.workload, config,
                          request=_request_from_args(args))
    if isinstance(result, WorkloadRun):
        if result.sampled is not None:
            return _print_sampled_run(result,
                                      _sampling_request(args).sampling)
        _note_fallback(result)
        result = result.full
    print(result.summary())
    s = result.stats
    print(render_table(["metric", "value"], [
        ["IPC", f"{s.ipc:.3f}"],
        ["branch MPKI", f"{s.branch_mpki:.2f}"],
        ["LLC MPKI", f"{s.llc_mpki:.2f}"],
        ["prediction accuracy", f"{result.predictor_accuracy:.3%}"],
        ["misspec penalty/branch", f"{s.avg_missspec_penalty:.1f} cycles"],
        ["  IQ-wait component", f"{s.avg_missspec_iq_wait:.1f} cycles"],
        ["classification",
         ("D-BP" if s.is_difficult_branch_prediction else "E-BP") + " / "
         + ("memory" if s.is_memory_intensive else "compute") + "-intensive"],
    ]))
    return 0


def _print_sampled_run(cell: WorkloadRun, mode: str) -> int:
    run = cell.sampled
    rows = [
        ["sampled CPI", f"{run.cpi.point:.4f}"],
        ["95% CI", _estimate_ci(run.cpi)],
        ["relative CI", _pct(run.cpi.relative_error)],
        ["regions", str(len(run.results))],
        ["coverage", f"{run.coverage:.1%}"],
        ["misspec penalty/branch", f"{run.misspec_penalty.point:.1f} cycles"],
    ]
    if mode == "adaptive":
        rows += [
            ["CI target", _pct(run.ci_target)],
            ["converged", "yes" if run.converged else
             "no (region cap / nothing left to split)"],
            ["rounds", " -> ".join(
                f"{r.regions}:{_pct(r.relative_ci)}" for r in run.rounds)],
        ]
    print(render_table(["metric", "value"], rows))
    return 0


def _cmd_compare(args) -> int:
    base = ProcessorConfig.cortex_a72_like()
    variant = _machine_from_args(args)
    if variant == base:  # default comparison is against PUBS
        variant = base.with_pubs()
    executor = _executor_from_args(args)
    pair = run_pair(args.workload, base, variant,
                    request=_request_from_args(args), executor=executor)
    bc, vc = pair.base_cell, pair.variant_cell
    if bc.is_sampled or vc.is_sampled or bc.fallback_reason \
            or vc.fallback_reason:
        _note_fallback(bc, "base")
        _note_fallback(vc, "variant")
        print(render_table(["metric", "base", "variant"], [
            ["CPI", f"{bc.cpi:.4f}", f"{vc.cpi:.4f}"],
            ["95% CI",
             _estimate_ci(bc.sampled.cpi) if bc.is_sampled else "exact",
             _estimate_ci(vc.sampled.cpi) if vc.is_sampled else "exact"],
            ["regions",
             str(len(bc.sampled.results)) if bc.is_sampled else "full",
             str(len(vc.sampled.results)) if vc.is_sampled else "full"],
        ]))
        rel = pair.speedup_relative_ci
        if math.isnan(rel):
            print(f"\nspeedup: {pair.speedup_percent:+.2f}% (95% CI n/a, "
                  f"{pair.ci_method})")
        else:
            lo, hi = pair.speedup_ci95
            print(f"\nspeedup: {pair.speedup_percent:+.2f}% "
                  f"(95% CI {(lo - 1) * 100:+.2f}% .. {(hi - 1) * 100:+.2f}%, "
                  f"{pair.ci_method})")
        _print_spend([bc, vc], executor)
        if args.topdown:
            print()
            _print_topdown_delta(args.workload, bc, vc)
        return 0
    b, v = pair.base.stats, pair.variant.stats
    print(render_table(["metric", "base", "variant"], [
        ["IPC", f"{b.ipc:.3f}", f"{v.ipc:.3f}"],
        ["misspec penalty/branch", f"{b.avg_missspec_penalty:.1f}",
         f"{v.avg_missspec_penalty:.1f}"],
        ["IQ wait/branch", f"{b.avg_missspec_iq_wait:.1f}",
         f"{v.avg_missspec_iq_wait:.1f}"],
    ]))
    print(f"\nspeedup: {pair.speedup_percent:+.2f}%")
    if args.topdown:
        print()
        _print_topdown_delta(args.workload, bc, vc)
    return 0


def _print_topdown_delta(workload: str, base_cell: WorkloadRun,
                         variant_cell: WorkloadRun) -> None:
    """Decompose a pair's CPI delta into bucket moves (DESIGN.md §15)."""
    delta = compare_topdown(
        breakdown_of(base_cell, name=f"{workload}/base"),
        breakdown_of(variant_cell, name=f"{workload}/variant"))
    print(delta.render())


def _suite_configs(args) -> "tuple[ProcessorConfig, ProcessorConfig]":
    """suite's base and variant machines (default variant: PUBS)."""
    base = ProcessorConfig.cortex_a72_like()
    variant = _machine_from_args(args)
    if variant == base:
        variant = base.with_pubs()
    return base, variant


def _render_suite_table(names, results, executor: SweepExecutor) -> int:
    """Render a base-vs-variant suite result table."""
    sampled_mode = any(isinstance(cell, WorkloadRun)
                       for cell in results["base"].values())
    rows = []
    dbp_ratios, ebp_ratios = [], []
    for name in names:
        base_r, variant_r = results["base"][name], results["variant"][name]
        if sampled_mode:
            _note_fallback(base_r, f"{name} base")
            _note_fallback(variant_r, f"{name} variant")
            speedup = variant_r.ipc / base_r.ipc
            branch_mpki, llc_mpki = _cell_mpki(base_r)
            pair = PairedRun(name, base_r, variant_r)
            ci_txt = "exact" if pair.ci_method == "exact" \
                else _pct(pair.speedup_relative_ci)
        else:
            speedup = variant_r.stats.ipc / base_r.stats.ipc
            branch_mpki = base_r.stats.branch_mpki
            llc_mpki = base_r.stats.llc_mpki
        dbp = branch_mpki >= D_BP_BRANCH_MPKI_THRESHOLD
        (dbp_ratios if dbp else ebp_ratios).append(speedup)
        row = [name, "D-BP" if dbp else "E-BP", branch_mpki, llc_mpki,
               (speedup - 1.0) * 100.0]
        if sampled_mode:
            row.append(ci_txt)
        rows.append(row)
        print(f"  {name}: {(speedup - 1.0) * 100.0:+.2f}%", file=sys.stderr)
    print(f"  [{executor.summary()}]", file=sys.stderr)
    rows.sort(key=lambda r: (r[1], -r[2]))
    header = ["workload", "set", "branch MPKI", "LLC MPKI", "speedup %"]
    if sampled_mode:
        header.append("95% CI")
    print(render_table(header, rows))
    if sampled_mode:
        _print_spend([cell for row in results.values()
                      for cell in row.values()], executor)
    if dbp_ratios:
        print(f"\nGM D-BP: {(geometric_mean(dbp_ratios) - 1) * 100:+.2f}%")
    if ebp_ratios:
        print(f"GM E-BP: {(geometric_mean(ebp_ratios) - 1) * 100:+.2f}%")
    return 0


def _cmd_suite(args) -> int:
    base, variant = _suite_configs(args)
    names = args.workloads or sorted(spec2006_profiles())
    # One executor for the whole sweep: it dedupes, serves warm results
    # from the persistent cache, and fans misses over --jobs -- and its
    # hit/miss summary below covers every cell, sampled or not.
    executor = _executor_from_args(args)
    results = run_suite({"base": base, "variant": variant}, names,
                        request=_request_from_args(args), executor=executor)
    return _render_suite_table(names, results, executor=executor)


def _cmd_report(args) -> int:
    if not args.topdown:
        print("error: report currently knows one analysis; pass --topdown",
              file=sys.stderr)
        return 2
    req = _request_from_args(args)
    names = args.workloads or sorted(spec2006_profiles())
    machine = _machine_from_args(args)
    executor = _executor_from_args(args)
    if args.compare:
        base = ProcessorConfig.cortex_a72_like()
        variant = machine if machine != base else base.with_pubs()
        first = True
        for name in names:
            pair = run_pair(name, base, variant, request=req,
                            executor=executor)
            for cell, side in ((pair.base_cell, "base"),
                               (pair.variant_cell, "variant")):
                _note_fallback(cell, f"{name} {side}")
            if not first:
                print()
            first = False
            _print_topdown_delta(name, pair.base_cell, pair.variant_cell)
        return 0
    results = run_suite({"machine": machine}, names, request=req,
                        executor=executor)["machine"]
    breakdowns = []
    for name in names:
        cell = results[name]
        if isinstance(cell, WorkloadRun):
            _note_fallback(cell, name)
        breakdowns.append(breakdown_of(cell, name=name))
    if len(breakdowns) == 1:
        print(breakdowns[0].render())
        return 0
    headers, rows = suite_table_rows(breakdowns)
    print(render_table(headers, rows))
    return 0


def _cmd_cost(args) -> int:
    cost = pubs_hardware_cost(PubsConfig())
    print(render_table(["table", "KB"], cost.rows()))
    return 0


def _cmd_disasm(args) -> int:
    program = build_program(get_profile(args.workload))
    print(program.listing())
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache(args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    # One row pair per namespace: simulation results live at the root;
    # traces and warm checkpoints in their own subdirectories (see
    # ResultCache.for_namespace), so usage is reported where it accrues.
    root = cache.directory
    namespaces = [("results", cache)] + [
        (name, ResultCache.for_namespace(name, root))
        for name in ("traces", "warm")]
    rows = [["directory", str(root)],
            ["schema version", str(CACHE_SCHEMA_VERSION)]]
    total_entries = 0
    total_bytes = 0
    for name, ns in namespaces:
        entries, size = len(ns), ns.size_bytes()
        total_entries += entries
        total_bytes += size
        rows.append([f"{name} entries", str(entries)])
        rows.append([f"{name} size", f"{size / 1024:.1f} KB"])
    rows.append(["total entries", str(total_entries)])
    rows.append(["total size", f"{total_bytes / 1024:.1f} KB"])
    print(render_table(["property", "value"], rows))
    return 0


def _reject_sampling(args, command: str, why: str) -> bool:
    """True (and an error message) when a sampled mode was requested."""
    mode = args.sampling or os.environ.get("REPRO_SAMPLING")
    if mode and mode != "off":
        print(f"error: {command} {why}; --sampling must be off",
              file=sys.stderr)
        return True
    return False


def _cmd_verify(args) -> int:
    if _reject_sampling(args, "verify",
                        "checks the full timing model -- a sampled "
                        "estimate proves nothing about uncovered records"):
        return 2
    if args.interval < 1:
        print(f"error: --interval must be a positive cycle count, got "
              f"{args.interval}", file=sys.stderr)
        return 2
    config = _machine_from_args(args).with_verification(
        level=args.level, interval=args.interval)
    names = [args.workload] if args.workload else sorted(spec2006_profiles())
    failures = 0
    for name in names:
        try:
            # Always a fresh simulation: a cached result proves nothing.
            result = run_workload(name, config, args.instructions, args.skip,
                                  cache=False, sampling="off")
        except InvariantViolation as exc:
            failures += 1
            print(f"FAIL {name}")
            print("  " + exc.report().replace("\n", "\n  "))
            continue
        print(f"ok   {name}: {result.verified_commits} commits oracle-checked"
              + (f", {result.invariant_sweeps} invariant sweeps"
                 if args.level == "full" else ""))
    total = len(names)
    print(f"\n{total - failures}/{total} workload(s) verified at "
          f"level={args.level}")
    return 1 if failures else 0


def _trace_store_for(args):
    from .trace.store import TraceStore
    if args.dir:
        return TraceStore(root=args.dir, persistent=True)
    return TraceStore()


def _cmd_trace(args) -> int:
    from .core.pipeline import replay_reach
    if args.interval is not None and args.interval < 0:
        # Fail here with the flag's own vocabulary instead of deep inside
        # trace capture; 0 stays legal (it disables interval checkpoints).
        print("error: --interval must be >= 0 "
              "(0 disables interval checkpoints)", file=sys.stderr)
        return 2
    store = _trace_store_for(args)
    if args.action == "record":
        # The cache swallows an unusable directory (results re-simulate),
        # but a record that cannot persist would silently record nothing.
        if store.trace_dir is None:
            print("error: trace record would keep nothing: REPRO_CACHE=0 "
                  "makes the trace store memory-only; pass --dir DIR to "
                  "record to disk", file=sys.stderr)
            return 2
        try:
            store.trace_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create trace store directory "
                  f"{store.trace_dir}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    names = [args.workload] if args.workload else sorted(spec2006_profiles())
    rows = []
    for name in names:
        profile = get_profile(name)
        program = build_program(profile)
        if args.action == "record":
            # Exactly what ``run`` on the default machine acquires for
            # the same budget, so that run never extends the recording.
            store.acquire(program, profile.mem_seed,
                          args.skip + args.instructions
                          + replay_reach(ProcessorConfig.cortex_a72_like()),
                          skip_hint=args.skip,
                          checkpoint_interval=args.interval)
        info = store.describe(program, profile.mem_seed)
        if info is None:
            rows.append([name, "-", "-", "-", "-", "-",
                         "(no trace recorded)"])
            continue
        rows.append([name, str(info["records"]),
                     f"{info['payload_bytes'] / 1024:.0f} KB",
                     str(info["skip_checkpoint_seq"]),
                     str(info["checkpoint_interval"]),
                     str(len(info["interval_checkpoint_seqs"])),
                     info["key"][:16]])
    print(render_table(
        ["workload", "records", "size", "skip ckpt @", "ckpt every",
         "interval ckpts", "key"], rows))
    if args.action == "record":
        print(f"\nstore {store.root}: {store.summary()}")
    return 0


def _cmd_sample(args) -> int:
    from .sampling import CPI_ERROR_GATE, sampled_vs_full_error
    # The sample command always samples: --sampling (or REPRO_SAMPLING)
    # picks the schedule, and an unset mode means fixed.
    if args.sampling == "off":
        print("error: the sample command always samples; use 'run' for a "
              "full simulation", file=sys.stderr)
        return 2
    request = _sampling_request(args)
    mode = "fixed" if request.sampling == "off" else request.sampling
    # Validate the region arithmetic up front: a zero or negative count
    # would otherwise surface as an opaque failure deep in trace capture
    # or region scheduling.
    for flag, value in (("--regions", args.regions),
                        ("--measure", args.measure)):
        if value is not None and value < 1:
            print(f"error: {flag} must be a positive count, got {value}",
                  file=sys.stderr)
            return 2
    for flag, value in (("--warmup", args.warmup),
                        ("--detail", args.detail)):
        if value is not None and value < 0:
            print(f"error: {flag} must be non-negative, got {value}",
                  file=sys.stderr)
            return 2
    if args.fraction is not None and not 0 < args.fraction <= 1:
        print(f"error: --fraction must be in (0, 1], got {args.fraction}",
              file=sys.stderr)
        return 2
    if args.interval is not None and args.interval < 1:
        print("error: --interval must be positive (sampled replay needs "
              f"checkpoints), got {args.interval}", file=sys.stderr)
        return 2
    config = _machine_from_args(args)
    names = args.workloads or sorted(spec2006_profiles())
    rows = []
    failures = 0
    for name in names:
        run = sample_workload(
            name, config,
            instructions=args.instructions, skip=args.skip,
            sampling=mode, measure=args.measure,
            warmup=args.warmup, detail=args.detail, regions=args.regions,
            max_fraction=args.fraction,
            checkpoint_interval=args.interval,
            ci_target=request.ci_target,
            jobs=args.jobs, cache=_cache_flag(args))
        if mode == "adaptive":
            marks = " -> ".join(f"{r.regions}:{_pct(r.relative_ci)}"
                                for r in run.rounds)
            state = "converged" if run.converged else "cap"
            print(f"  {name}: {marks} ({state})", file=sys.stderr)
        row = [name, f"{run.cpi.point:.4f}", _estimate_ci(run.cpi),
               _pct(run.cpi.relative_error),
               str(len(run.results)), f"{run.coverage:.1%}",
               f"{run.misspec_penalty.point:.1f}"]
        if args.check_full:
            full = run_workload(name, config, args.instructions, args.skip,
                                cache=_cache_flag(args), sampling="off")
            error = sampled_vs_full_error(run, full)
            ok = error <= CPI_ERROR_GATE
            failures += not ok
            row += [f"{full.stats.cycles / full.stats.committed:.4f}",
                    f"{error:.2%}", "ok" if ok else "FAIL"]
        rows.append(row)
    header = ["workload", "sampled CPI", "95% CI", "rel CI", "regions",
              "coverage", "misspec/br"]
    if args.check_full:
        header += ["full CPI", "error", f"gate {CPI_ERROR_GATE:.0%}"]
    print(render_table(header, rows))
    if args.check_full:
        total = len(names)
        print(f"\n{total - failures}/{total} workload(s) within "
              f"{CPI_ERROR_GATE:.0%} of the full run")
    return 1 if failures else 0


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    if _reject_sampling(args, "profile",
                        "measures the simulator hot path -- a sampled "
                        "run would profile the executor instead"):
        return 2
    config = _machine_from_args(args)
    profiler = cProfile.Profile()
    profiler.enable()
    # cache=False: profiling a cache hit would measure pickle, not the
    # simulator.
    instructions = CLI_INSTRUCTIONS if args.instructions is None \
        else args.instructions
    skip = CLI_SKIP if args.skip is None else args.skip
    result = run_workload(args.workload, config, instructions,
                          skip, cache=False, sampling="off")
    profiler.disable()
    print(result.summary())
    print(f"\nTop {args.top} functions by cumulative time:")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def _cmd_stress(args) -> int:
    from .workloads.stress import FAMILIES, run_families
    if args.action == "list":
        rows = [[f.name, f.knob, str(f.default),
                 ",".join(str(k) for k in f.sweep), f.resource]
                for f in FAMILIES.values()]
        print(render_table(
            ["family", "knob", "default", "sweep", "stressed resource"],
            rows))
        return 0
    if args.knob is not None:
        # A knob is a count, and a kernel may restrict it further (its
        # builder raises): build each selected kernel before simulating.
        try:
            if args.knob < 0:
                raise ValueError("must be >= 0")
            for name in args.families or FAMILIES:
                if name in FAMILIES:
                    FAMILIES[name].build(args.knob)
        except ValueError as exc:
            print(f"error: --knob {args.knob}: {exc}", file=sys.stderr)
            return 2
    try:
        reports = run_families(
            args.families or None,
            config=_machine_from_args(args),
            knob=args.knob,
            sweep=not args.no_sweep,
            instructions=args.instructions,
            skip=args.skip,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    failures = 0
    for report in reports:
        print(report.render())
        print()
        failures += not report.passed
    total = len(reports)
    noun = "family" if total == 1 else "families"
    print(f"{total - failures}/{total} {noun} satisfied the "
          "expected-bottleneck contract")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PUBS (MICRO 2018) reproduction: simulate workloads on "
                    "the paper's machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_shared_parent()]

    sub.add_parser("list", help="list available workloads")

    p_run = sub.add_parser("run", help="simulate one workload",
                           parents=shared)
    p_run.add_argument("workload")
    _add_machine_args(p_run)
    _add_budget_args(p_run)

    p_cmp = sub.add_parser("compare", help="base vs variant on one workload",
                           parents=shared)
    p_cmp.add_argument("workload")
    p_cmp.add_argument("--topdown", action="store_true",
                       help="also decompose the CPI delta per topdown "
                            "bucket: print which bucket moved")
    _add_machine_args(p_cmp)
    _add_budget_args(p_cmp)

    p_rep = sub.add_parser(
        "report",
        help="top-down cycle attribution report (DESIGN.md §15)",
        parents=shared)
    p_rep.add_argument("workloads", nargs="*", default=None,
                       help="workloads to report (default: all of them)")
    p_rep.add_argument("--topdown", action="store_true",
                       help="the topdown hierarchy (required -- report "
                            "has no other analysis yet)")
    p_rep.add_argument("--compare", action="store_true",
                       help="base vs variant (default variant: PUBS): "
                            "decompose the CPI delta per bucket instead "
                            "of reporting one machine")
    _add_machine_args(p_rep)
    _add_budget_args(p_rep)

    p_suite = sub.add_parser("suite", help="sweep many workloads (Fig. 8)",
                             parents=shared)
    p_suite.add_argument("--workloads", nargs="*", default=None)
    _add_machine_args(p_suite)
    _add_budget_args(p_suite)

    sub.add_parser("cost", help="print the Table III hardware cost")

    p_cache = sub.add_parser("cache", help="persistent result-cache tools")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--dir", default=None,
                         help="cache directory (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")

    p_dis = sub.add_parser("disasm", help="print a workload's generated code")
    p_dis.add_argument("workload")

    p_ver = sub.add_parser(
        "verify",
        help="run the differential oracle + invariant checks on workloads",
        parents=shared)
    p_ver.add_argument("--workload", default=None,
                       help="verify one workload (default: all of them)")
    p_ver.add_argument("--level", default="full",
                       choices=["commit-only", "full"],
                       help="verification thoroughness (default: full)")
    p_ver.add_argument("--interval", type=int, default=256,
                       help="cycles between invariant sweeps at --level full")
    p_ver.add_argument("-n", "--instructions", type=_positive_int,
                       default=3000,
                       help="committed instructions per workload")
    p_ver.add_argument("--skip", type=_non_negative_int, default=3000,
                       help="instructions fast-forwarded for warm-up")
    _add_machine_args(p_ver)

    p_tr = sub.add_parser(
        "trace", help="record or inspect replay traces (DESIGN.md §9)")
    p_tr.add_argument("action", choices=["record", "info"])
    p_tr.add_argument("--workload", default=None,
                      help="one workload (default: all of them)")
    p_tr.add_argument("-n", "--instructions", type=_positive_int,
                      default=10_000,
                      help="timed instructions the trace must cover")
    p_tr.add_argument("--skip", type=_non_negative_int, default=10_000,
                      help="warm-up instructions (positions the checkpoint)")
    p_tr.add_argument("--interval", type=int, default=None,
                      help="records between interval checkpoints (default: "
                           "8192; 0 disables them)")
    p_tr.add_argument("--dir", default=None,
                      help="trace store root (default: REPRO_CACHE_DIR "
                           "or ~/.cache/repro)")

    p_smp = sub.add_parser(
        "sample",
        help="estimate whole-run CPI from sampled regions (DESIGN.md §10)",
        parents=shared)
    p_smp.add_argument("workloads", nargs="*", default=None,
                       help="workloads to sample (default: all of them)")
    p_smp.add_argument("-n", "--instructions", type=_positive_int,
                       default=60_000,
                       help="timed span of the full run being estimated")
    p_smp.add_argument("--skip", type=_non_negative_int, default=2_000,
                       help="instructions before the timed span")
    p_smp.add_argument("--measure", type=int, default=None,
                       help="timed records per region (default: 1024)")
    p_smp.add_argument("--warmup", type=int, default=None,
                       help="functional warm records per region "
                            "(default: 16384; clamped to the prefix)")
    p_smp.add_argument("--detail", type=int, default=None,
                       help="timed-but-discarded warm records per region "
                            "(default: measure/4)")
    p_smp.add_argument("--regions", type=int, default=None,
                       help="cap on representatives (default: 8 fixed, "
                            "16 adaptive)")
    p_smp.add_argument("--fraction", type=float, default=None,
                       help="max fraction of the span simulated "
                            "(default: 1/3)")
    p_smp.add_argument("--interval", type=int, default=None,
                       help="trace checkpoint interval (default: 8192)")
    p_smp.add_argument("--check-full", action="store_true",
                       help="also run the full span and gate the sampled "
                            "CPI at 3%% relative error")
    _add_machine_args(p_smp)

    p_st = sub.add_parser(
        "stress",
        help="stress-kernel families vs expected-bottleneck contracts "
             "(DESIGN.md §13)")
    p_st.add_argument("action", choices=["list", "run"])
    p_st.add_argument("families", nargs="*",
                      help="families to run (default: all; see 'stress "
                           "list')")
    p_st.add_argument("--knob", type=int, default=None,
                      help="override the family's knob value (skips the "
                           "knob-sweep checks, which only apply to the "
                           "declared sweep)")
    p_st.add_argument("--no-sweep", action="store_true",
                      help="default-knob checks only, no sweep runs")
    p_st.add_argument("-n", "--instructions", type=_positive_int,
                      default=None,
                      help="timed instructions per run (default: "
                           "per-family)")
    p_st.add_argument("--skip", type=_non_negative_int, default=None,
                      help="warm-up instructions (default: per-family)")
    _add_machine_args(p_st)

    p_prof = sub.add_parser(
        "profile", help="profile one simulation run with cProfile",
        parents=shared)
    p_prof.add_argument("workload")
    p_prof.add_argument("--top", type=int, default=25,
                        help="number of hotspot functions to print")
    p_prof.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort order (default: cumulative)")
    _add_machine_args(p_prof)
    _add_budget_args(p_prof)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "suite": _cmd_suite,
    "cost": _cmd_cost,
    "disasm": _cmd_disasm,
    "cache": _cmd_cache,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "sample": _cmd_sample,
    "profile": _cmd_profile,
    "stress": _cmd_stress,
}


def _unknown_workload(args: argparse.Namespace) -> Optional[str]:
    """One-line error for the first workload name no profile carries."""
    names = list(getattr(args, "workloads", None) or [])
    if getattr(args, "workload", None):
        names.append(args.workload)
    profiles = spec2006_profiles()
    for name in names:
        if name not in profiles:
            return (f"unknown workload {name!r}; valid names: "
                    f"{', '.join(sorted(profiles))}")
    return None


def _bad_machine(args) -> Optional[str]:
    """Why the machine flags describe no machine, or None.

    Checked before the command runs, so a bad value exits 2 with one
    ``error:`` line instead of a traceback from inside a simulation.
    """
    if not hasattr(args, "pubs"):  # a command without machine flags
        return None
    try:
        _machine_from_args(args)
    except ValueError as exc:
        return str(exc)
    return None


def _bad_request(args) -> Optional[str]:
    """Why the sampling flags and environment describe no run, or None.

    Checked before the command runs, as :func:`_bad_machine` is, so a
    ``--ci-target`` (or ``REPRO_CI_TARGET``) without adaptive sampling,
    or an unusable ``REPRO_SAMPLING`` / ``REPRO_CI_TARGET`` value, exits
    2 with one ``error:`` line.
    """
    if not hasattr(args, "sampling"):  # a command without sampling flags
        return None
    try:
        _sampling_request(args)
    except ValueError as exc:
        return str(exc)
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    error = _unknown_workload(args) or _bad_machine(args) \
        or _bad_request(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    except EnvValueError as exc:
        # An unusable REPRO_JOBS / REPRO_BATCH value (the sampling
        # variables are checked up front, in _bad_request).
        print(f"error: {exc}", file=sys.stderr)
        return 2
