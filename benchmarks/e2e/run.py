"""End-to-end and per-layer benchmark of the PUBS reproduction.

Regenerates the paper's tables -- Fig. 8 cold and rerun, the batched
Fig. 10 sweep, the adaptive sampled suite -- and reports what that costs
a user (wall and CPU time, simulation throughput, set-up time, memory)
and where the time goes, layer by layer.  See README.md.

Two ways to run it, from the root of the checkout:

    # fixed repetitions, JSON report for compare.py
    python benchmarks/e2e/run.py --reps 5 --seed 0 --out report.json [--trace]

    # one workload, passes repeated for a time budget; the last stdout
    # line is one JSON object with the metrics
    python benchmarks/e2e/run.py --scale quick --workload fig8-cold \\
        --seed 0 --seconds 10 --trace 0

Every pass runs in a fresh child process, one at a time; ``--trace``
adds traced passes (per-layer numbers), and end-to-end numbers always
come from untraced ones.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import layers
import passes

HERE = Path(__file__).resolve().parent
#: Scratch space for cache directories, inside the checkout.
WORK = passes.ROOT / ".bench_e2e"

#: CPU seconds of ``passes.reference_s`` on an uncontended 2-vCPU Xeon
#: VM with Python 3.11.  Every end-to-end time t is reported as
#: t x sqrt(REFERENCE_S / r), r being the kernel's time in the same
#: process right after the measured phase (README.md, "Host-speed
#: normalization").  The raw seconds stay in the report as ``*_raw_s``.
REFERENCE_S = 0.25

#: (name, unit, better) of the end-to-end metrics gated by BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("sim_kips", "krec/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER = (
    ("core.commit_s", "s"), ("core.writeback_s", "s"), ("core.issue_s", "s"),
    ("core.dispatch_s", "s"), ("core.fetch_s", "s"), ("core.other_s", "s"),
    ("core.run_s", "s"), ("core.ns_per_cycle", "ns"),
    ("core.cycles", "count"), ("core.construct_s", "s"),
    ("core.pipelines", "count"), ("core.warm_span_s", "s"),
    ("trace.acquire_s", "s"), ("trace.captures", "count"),
    ("trace.extensions", "count"), ("trace.captured_records", "count"),
    ("trace.warm_train_s", "s"), ("trace.warm_trainings", "count"),
    ("trace.warm_restore_s", "s"), ("trace.warm_restores", "count"),
    ("batch.run_s", "s"), ("batch.units", "count"),
    ("batch.members", "count"),
    ("sampling.plan_s", "s"), ("sampling.signature_s", "s"),
    ("sampling.cluster_s", "s"), ("sampling.controller_s", "s"),
    ("sampling.regions", "count"), ("sampling.records_per_cell", "count"),
    ("sampling.converged_frac", "frac"), ("sampling.max_rel_ci", "frac"),
    ("exec.run_s", "s"), ("exec.overhead_s", "s"), ("exec.job_key_s", "s"),
    ("exec.calls", "count"), ("exec.units", "count"),
    ("exec.unit_p50_ms", "ms"), ("exec.unit_tail_ms", "ms"),
    ("exec.unit_tail_pct", "%"), ("exec.unit_n", "count"),
    ("exec.cache_get_s", "s"), ("exec.cache_put_s", "s"),
    ("exec.cache_hits", "count"), ("exec.cache_stores", "count"),
    ("workloads.build_s", "s"), ("workloads.programs", "count"),
    ("analysis.pubs_gm_speedup_pct", "%"), ("analysis.ipc_gm_base", "ipc"),
    ("branch.mpki_mean", "MPKI"), ("memory.llc_mpki_mean", "MPKI"),
    ("pubs.priority_dispatches", "count"),
    ("sim_records", "count"), ("bench.coverage_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
)

#: A time-boxed run makes at least this many passes, and takes at least
#: this many set-up samples (extra set-up-only children fill the gap).
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 5
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 900


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def _child_env(cache_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_CACHE_DIR=str(cache_dir), REPRO_CACHE="1",
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(kind: str, workload: str, scale: str, seed: int, cache_dir: Path,
          traced: bool = False) -> dict:
    """Run one child to completion; its last stdout line is the result."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    spec = {"kind": kind, "workload": workload, "scale": scale,
            "seed": seed, "traced": traced}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child",
             json.dumps(spec)],
            cwd=passes.ROOT, env=_child_env(cache_dir), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{kind} {workload}: no result after "
                         f"{exc.timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{kind} {workload}: child exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def child_main(spec: dict) -> dict:
    passes.use_source_tree()
    scale = passes.SCALES[spec["scale"]]
    if spec["kind"] == "pass":
        return passes.run_pass(spec["workload"], scale, spec["seed"],
                               spec["traced"])
    if spec["kind"] == "setup":
        return passes.setup_only(spec["workload"], scale, spec["seed"])
    if spec["kind"] == "sweep-reference":
        return passes.sweep_reference(scale, spec["seed"])
    raise ValueError(f"unknown child kind {spec['kind']!r}")


@contextlib.contextmanager
def workdir() -> Iterator[Path]:
    path = WORK / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


class Session:
    """The passes of one invocation, and the state they share."""

    def __init__(self, work: Path, scale: str, seed: int) -> None:
        self.work, self.scale, self.seed = work, scale, seed
        self.passes: Dict[str, List[dict]] = collections.defaultdict(list)
        #: Children's ``setup_s`` and ``reference_s`` (passes included).
        self.setup_samples: Dict[str, List[dict]] = \
            collections.defaultdict(list)
        #: Cells a workload's passes must reproduce exactly.
        self.expected: Dict[str, Dict[str, str]] = {}
        self._cold_dir: Optional[Path] = None
        self._count = 0

    def _fresh_dir(self) -> Path:
        self._count += 1
        return self.work / f"cache-{self._count}"

    def prepare(self, workload: str) -> None:
        """Untimed work a workload's checks or inputs depend on."""
        if workload == "fig8-rerun" and self._cold_dir is None:
            if self.run_pass("fig8-cold", record=False)["failed"]:
                raise BenchError("the fig8-cold pass fig8-rerun reads "
                                 "failed")
        if workload == "sweep-batched" and workload not in self.expected:
            path = self._fresh_dir()
            ref = spawn("sweep-reference", workload, self.scale, self.seed,
                        path)
            shutil.rmtree(path, ignore_errors=True)
            if ref["failed"]:
                raise BenchError("sequential sweep reference failed")
            self.expected[workload] = ref["cells"]

    def run_pass(self, workload: str, traced: bool = False,
                 record: bool = True) -> dict:
        self.prepare(workload)
        if workload == "fig8-rerun":
            path = self._cold_dir
        else:
            path = self._fresh_dir()
        result = spawn("pass", workload, self.scale, self.seed, path, traced)
        if workload == "fig8-cold":
            # The newest cold directory (and its cells) is what a rerun
            # pass reads and must reproduce.
            if self._cold_dir is not None:
                shutil.rmtree(self._cold_dir, ignore_errors=True)
            self._cold_dir = path
            self.expected["fig8-rerun"] = result["cells"]
        elif workload != "fig8-rerun":
            shutil.rmtree(path, ignore_errors=True)
        if workload == "fig8-rerun":
            work = {k: v for k, v in result["store"].items()
                    if k != "trace.warm_restores" and v}
            if work:
                raise BenchError(
                    f"invalid run: fig8-rerun did capture or warm training "
                    f"({work}) -- it must only read fig8-cold's cache")
        if record:
            self.passes[workload].append(result)
            self.setup_samples[workload].append(result)
        return result

    def setup_sample(self, workload: str) -> None:
        path = self._fresh_dir()
        sample = spawn("setup", workload, self.scale, self.seed, path)
        shutil.rmtree(path, ignore_errors=True)
        self.setup_samples[workload].append(sample)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def _stats(values: List[float], unit: str) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0,
                "unit": unit, "values": []}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "values": values}


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _nominal(sample: dict, key: str) -> float:
    """``sample[key]`` corrected by half the host's measured slowdown.

    Half, in log terms: a short kernel sample over- or undershoots the
    slowdown of a whole pass, depending on what the other tenants run,
    and the full correction can widen the spread it should narrow.
    """
    return sample[key] * math.sqrt(REFERENCE_S / sample["reference_s"])


def summarize(session: Session, workload: str) -> dict:
    """Metrics, output checks and digest of one workload's passes."""
    runs = session.passes[workload]
    untraced = [p for p in runs if not p["traced"]]
    traced = [p for p in runs if p["traced"]]
    digests = collections.Counter(p["digest"] for p in runs)
    majority = digests.most_common(1)[0][0]
    expected = session.expected.get(workload, {})
    attempted = failed = 0
    failures: List[str] = []
    for p in runs:
        attempted += p["attempted"]
        bad = set(p["failed_cells"])
        failures.extend(p["failures"])
        if p["digest"] != majority:
            failures.append(f"pass digest {p['digest'][:12]} disagrees "
                            f"with {majority[:12]}")
            failed += p["attempted"]
            continue
        for cell, digest in expected.items():
            if cell in p["cells"] and p["cells"][cell] != digest:
                bad.add(cell)
                failures.append(f"{cell}: differs from its expected stats")
        failed += len(bad)

    setups = session.setup_samples[workload]
    metrics = {
        "wall_s": _stats([_nominal(p, "wall_s") for p in untraced], "s"),
        "cpu_s": _stats([_nominal(p, "cpu_s") for p in untraced], "s"),
        "sim_kips": _stats([p["sim_records"] / _nominal(p, "cpu_s") / 1e3
                            for p in untraced], "krec/s"),
        "setup_s": _stats([_nominal(s, "setup_s") for s in setups], "s"),
        "peak_rss_mb": _stats([p["peak_rss_mb"] for p in untraced], "MB"),
        "sim_records": _stats([p["sim_records"] for p in runs], "count"),
        "ops_failed_frac": _stats([failed / attempted], "frac"),
        "wall_raw_s": _stats([p["wall_s"] for p in untraced], "s"),
        "cpu_raw_s": _stats([p["cpu_s"] for p in untraced], "s"),
        "setup_raw_s": _stats([s["setup_s"] for s in setups], "s"),
        "reference_s": _stats([s["reference_s"] for s in setups], "s"),
    }
    out = {"metrics": metrics, "result_digest": majority,
           "attempted": attempted, "failed": failed,
           "failures": sorted(set(failures))[:20]}
    if traced:
        keys = set().union(*(p["layers"] for p in traced),
                           *(p["model"] for p in traced))
        per_layer = {key: _median(p["layers"].get(key, p["model"].get(key))
                                  for p in traced) for key in keys}
        per_layer.update(layers.unit_metrics(
            [ms for p in traced for ms in p["unit_ms"]],
            set().union(*(p["missing"] for p in traced))))
        per_layer["sim_records"] = _median(p["sim_records"] for p in traced)
        base_cpu = _median(_nominal(p, "cpu_s") for p in untraced)
        per_layer["bench.trace_overhead_frac"] = (
            _median(_nominal(p, "cpu_s") for p in traced) / base_cpu - 1.0
            if base_cpu else None)
        out["per_layer"] = {name: {"value": per_layer.get(name), "unit": unit}
                            for name, unit in PER_LAYER}
    return out


def print_table(report: dict) -> None:
    for workload, summary in report["workloads"].items():
        print(f"== {workload}  digest {summary['result_digest'][:16]}  "
              f"failed {summary['failed']}/{summary['attempted']}")
        for name, stat in summary["metrics"].items():
            if stat["median"] is None:
                print(f"  {name:<28} -")
                continue
            print(f"  {name:<28} {stat['median']:>12.6g} {stat['unit']:<7} "
                  f"[q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, "
                  f"n={stat['n']}]")
        for name, entry in summary.get("per_layer", {}).items():
            value = entry["value"]
            shown = "-" if value is None else f"{value:>12.6g}"
            print(f"  {name:<28} {shown:>12} {entry['unit']}")
        for failure in summary["failures"]:
            print(f"  FAILED {failure}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def run_reps(session: Session, workloads: List[str], reps: int,
             trace: bool) -> None:
    """``reps`` passes of every workload, in table order, then traced."""
    for _ in range(reps):
        for workload in workloads:
            session.run_pass(workload)
    if trace:
        for workload in workloads:
            session.run_pass(workload, traced=True)


def run_timed(session: Session, workload: str, seconds: float,
              trace: bool) -> None:
    """Passes of one workload until ``seconds`` have been measured.

    With ``trace`` the passes alternate traced / untraced, starting
    traced, so the per-layer numbers and the tracing overhead come from
    the same run.
    """
    session.prepare(workload)  # before the clock starts
    started = time.perf_counter()
    count = 0
    while count < MIN_PASSES or time.perf_counter() - started < seconds:
        session.run_pass(workload, traced=trace and count % 2 == 0)
        count += 1
    while len(session.setup_samples[workload]) < MIN_SETUP_SAMPLES:
        session.setup_sample(workload)


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = summary["per_layer"]
    else:
        metrics = {name: {"value": summary["metrics"][name]["median"],
                          "unit": unit} for name, unit, _ in END_TO_END}
    return {"correct": summary["failed"] == 0,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=passes.WORKLOADS,
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: every profile's memory seed "
                        "moves by 1000 x SEED (default 0)")
    parser.add_argument("--reps", type=int, default=5,
                        help="passes per workload (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="time-box one workload: repeat passes until "
                        "this many seconds are measured; prints the "
                        "result object as the last stdout line")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add traced passes for the per-layer metrics")
    parser.add_argument("--scale", choices=sorted(passes.SCALES),
                        default="paper", help="instruction budgets "
                        "(default paper: the bench-harness budget)")
    parser.add_argument("--out", type=Path, help="write the JSON report")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None:
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds needs exactly one --workload")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    # A terminated run unwinds like an interrupted one: the running child
    # is killed and waited for, and the cache directories are removed.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, lambda signum, _: sys.exit(128 + signum))
    if not (passes.SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {passes.SOURCE}",
              file=sys.stderr)
        return 2
    # The build step: byte-compile the sources once, so no child pays
    # the compile inside its set-up time.
    compileall.compile_dir(str(passes.SOURCE), quiet=1)
    workloads = [w for w in passes.WORKLOADS
                 if w in (args.workload or passes.WORKLOADS)]
    with workdir() as work:
        session = Session(work, args.scale, args.seed)
        try:
            if args.seconds is not None:
                run_timed(session, workloads[0], args.seconds,
                          bool(args.trace))
            else:
                run_reps(session, workloads, args.reps, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    report = {"scale": args.scale, "seed": args.seed,
              "trace": bool(args.trace),
              "workloads": {w: summarize(session, w) for w in workloads}}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print_table(report)
    if args.seconds is not None:
        print(json.dumps(result_line(report["workloads"][workloads[0]],
                                     bool(args.trace))))
        return 0
    return 0 if all(s["failed"] == 0 for s in report["workloads"].values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
