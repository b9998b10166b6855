"""Per-layer timing for the end-to-end benchmark, from outside ``src/``.

The simulator has no tracing of its own yet, so the traced pass of
``run.py`` installs class- and module-level wrappers around the calls
into each layer and keeps a span stack in memory:

* a span's *inclusive* time is its call's duration;
* its *self* time is that duration minus the time of the spans nested
  inside it, so self times over all spans partition the traced time.

Nothing under ``src/`` changes; :func:`traced` restores every wrapped
attribute on exit.  Wrappers are tolerant: a target that a later
refactor renamed or removed is recorded in :attr:`Tracer.missing` and
every metric that depends on it reports ``None`` instead of crashing
(its time then lands in the enclosing span's self time).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

#: Span opened by a warm-checkpoint miss and closed by the matching
#: ``put_warm``: the warm-state training interval.
WARM_TRAIN = "trace.warm_train"


class Tracer:
    """Nested spans kept in memory: inclusive/self time and call counts."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counters recorded at span boundaries.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Wall time of every executed unit, in milliseconds.
        self.unit_ms: List[float] = []
        #: Span names whose wrapped target does not exist.
        self.missing: set = set()
        #: Last trace length seen per (program name, memory seed).
        self._trace_len: Dict[tuple, int] = {}

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, rename: Optional[str] = None) -> float:
        """Close ``frame`` (and any interval left open above it)."""
        now = time.perf_counter()
        stack = self._stack
        while stack:
            top = stack.pop()
            name = rename if (top is frame and rename) else top[0]
            duration = now - top[1]
            self.inclusive[name] += duration
            self.self_time[name] += duration - top[2]
            self.calls[name] += 1
            if stack:
                stack[-1][2] += duration
            if top is frame:
                return duration
        return 0.0

    def top(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def close_interval(self, name: str) -> None:
        if self._stack and self._stack[-1][0] == name:
            self.exit(self._stack[-1])

    def covered_s(self) -> float:
        """Traced time: the sum of every span's self time."""
        return sum(self.self_time.values())


# ----------------------------------------------------------------------
# Wrapper factories.  Each takes (tracer, span name, original) and
# returns the replacement callable.
# ----------------------------------------------------------------------

def _plain(tracer: Tracer, name: str, fn: Callable) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(frame)
    return wrapper


def _inside(parent: str) -> Callable:
    """A span recorded only when called directly inside ``parent``.

    ``ResultCache`` backs both the executor's result cache and the trace
    store's namespaces; only the executor's lookups are cache I/O of
    the exec layer, the rest belong to the trace layer's self time.
    """
    def factory(tracer: Tracer, name: str, fn: Callable) -> Callable:
        timed = _plain(tracer, name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.top() != parent:
                return fn(*args, **kwargs)
            return timed(*args, **kwargs)
        return wrapper
    return factory


def _pipeline_run(tracer: Tracer, name: str, fn: Callable) -> Callable:
    timed = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        start = getattr(self, "cycle", 0)
        try:
            return timed(self, *args, **kwargs)
        finally:
            tracer.counts["core.cycles"] += getattr(self, "cycle", 0) - start
    return wrapper


def _warm_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span trainers: their own span unless inside warm-state training."""
    timed = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.top() == WARM_TRAIN:
            return fn(*args, **kwargs)
        return timed(*args, **kwargs)
    return wrapper


def _get_warm(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A hit is a restore; a miss opens the training interval."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame)
            raise
        tracer.exit(frame, None if result is not None else WARM_TRAIN)
        if result is None:
            tracer.enter(WARM_TRAIN)
        return result
    return wrapper


def _put_warm(tracer: Tracer, name: str, fn: Callable) -> Callable:
    timed = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.close_interval(WARM_TRAIN)
        return timed(*args, **kwargs)
    return wrapper


def _acquire(tracer: Tracer, name: str, fn: Callable) -> Callable:
    timed = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, program, mem_seed, *args, **kwargs):
        before = (getattr(self, "captures", 0), getattr(self, "extensions", 0))
        trace = timed(self, program, mem_seed, *args, **kwargs)
        key = (getattr(program, "name", None), mem_seed)
        length = len(trace)
        if getattr(self, "captures", 0) > before[0]:
            tracer.counts["trace.captured_records"] += length
        elif getattr(self, "extensions", 0) > before[1]:
            tracer.counts["trace.captured_records"] += \
                length - tracer._trace_len.get(key, 0)
        tracer._trace_len[key] = length
        return trace
    return wrapper


def _run_units(tracer: Tracer, name: str, fn: Callable) -> Callable:
    timed = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, units):
        units = list(units)
        tracer.counts["exec.units"] += len(units)
        return timed(self, units)
    return wrapper


def _unit(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.unit_ms.append(tracer.exit(frame) * 1e3)
    return wrapper


def _run_batch(tracer: Tracer, name: str, fn: Callable) -> Callable:
    timed = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(jobs, *args, **kwargs):
        jobs = list(jobs)
        tracer.counts["batch.units"] += 1
        tracer.counts["batch.members"] += len(jobs)
        return timed(jobs, *args, **kwargs)
    return wrapper


#: (span name, module, attribute path, wrapper factory).  One span may
#: wrap several targets (the same function bound in several modules).
TARGETS = [
    ("core.commit", "repro.core.pipeline", "Pipeline._commit", _plain),
    ("core.writeback", "repro.core.pipeline", "Pipeline._writeback", _plain),
    ("core.issue", "repro.core.pipeline", "Pipeline._issue", _plain),
    ("core.dispatch", "repro.core.pipeline", "Pipeline._dispatch", _plain),
    ("core.fetch", "repro.core.pipeline", "Pipeline._fetch", _plain),
    ("core.run", "repro.core.pipeline", "Pipeline.run", _pipeline_run),
    ("core.construct", "repro.core.pipeline", "Pipeline.__init__", _plain),
    ("core.warm_span", "repro.core.pipeline", "Pipeline._warm_mem_span",
     _warm_span),
    ("core.warm_span", "repro.core.pipeline", "Pipeline._warm_front_span",
     _warm_span),
    ("core.warm_span", "repro.core.pipeline", "Pipeline._prewarm_regions",
     _warm_span),
    ("trace.acquire", "repro.trace.store", "TraceStore.acquire", _acquire),
    ("trace.warm_restore", "repro.trace.store", "TraceStore.get_warm",
     _get_warm),
    (WARM_TRAIN, "repro.trace.store", "TraceStore.put_warm", _put_warm),
    ("batch.run", "repro.batch", "run_batch", _run_batch),
    ("sampling.plan", "repro.sampling.adaptive", "AdaptiveSession.__init__",
     _plain),
    ("sampling.signature", "repro.sampling.adaptive", "window_signature",
     _plain),
    ("sampling.cluster", "repro.sampling.adaptive", "cluster_windows",
     _plain),
    ("sampling.cluster", "repro.sampling.adaptive", "assign_windows", _plain),
    ("sampling.controller", "repro.sampling.controller",
     "TableController.run", _plain),
    ("sampling.controller", "repro.sampling.controller",
     "TableController.results", _plain),
    ("exec.run", "repro.exec.executor", "SweepExecutor.run", _plain),
    ("exec.job_key", "repro.exec.executor", "job_key", _plain),
    ("exec.cache_get", "repro.exec.cache", "ResultCache.get",
     _inside("exec.run")),
    ("exec.cache_put", "repro.exec.cache", "ResultCache.put",
     _inside("exec.run")),
    ("exec.units", "repro.exec.backend", "InlineBackend.run_units",
     _run_units),
    ("exec.unit", "repro.exec.backend", "execute_unit", _unit),
    ("workloads.build", "repro.exec.jobs", "build_program", _plain),
    ("workloads.build", "repro.workloads.generator", "build_program", _plain),
    ("workloads.build", "repro.sampling.run", "build_program", _plain),
]


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when anything is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


@contextlib.contextmanager
def traced() -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block."""
    tracer = Tracer()
    installed = []
    try:
        for name, module, path, factory in TARGETS:
            found = _resolve(module, path)
            if found is None:
                tracer.missing.add(name)
                continue
            owner, attr, original = found
            own = attr in vars(owner)
            setattr(owner, attr, factory(tracer, name, original))
            installed.append((owner, attr, original, own))
        yield tracer
    finally:
        for owner, attr, original, own in reversed(installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

STAGES = ("commit", "writeback", "issue", "dispatch", "fetch")


def _tail(samples: List[float]) -> "tuple[float, float]":
    """(percentile, value) of the highest sample with >= 10 beyond it.

    With 10 or fewer samples no percentile qualifies; the minimum is
    reported at percentile 0 so the number stays defined.
    """
    n = len(samples)
    if n <= 10:
        return 0.0, (min(samples) if samples else 0.0)
    index = n - 11
    return 100.0 * index / (n - 1), sorted(samples)[index]


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass (``None`` where a wrapped
    target is missing).  ``wall_s`` is the pass's measured wall time."""
    s, inc, calls, counts = (tracer.self_time, tracer.inclusive,
                             tracer.calls, tracer.counts)
    out: Dict[str, Optional[float]] = {}

    def put(metric: str, spans, value: Callable[[], float]) -> None:
        out[metric] = None if tracer.missing.intersection(spans) \
            else float(value())

    core = [f"core.{stage}" for stage in STAGES]
    for stage in STAGES:
        put(f"core.{stage}_s", [f"core.{stage}"],
            lambda stage=stage: s[f"core.{stage}"])
    put("core.other_s", ["core.run"], lambda: s["core.run"])
    put("core.run_s", ["core.run"], lambda: inc["core.run"])
    put("core.cycles", ["core.run"], lambda: counts["core.cycles"])
    put("core.ns_per_cycle", core + ["core.run"],
        lambda: 1e9 * (sum(s[n] for n in core) + s["core.run"])
        / max(1.0, counts["core.cycles"]))
    put("core.construct_s", ["core.construct"], lambda: s["core.construct"])
    put("core.pipelines", ["core.construct"], lambda: calls["core.construct"])
    put("core.warm_span_s", ["core.warm_span"], lambda: s["core.warm_span"])

    put("trace.acquire_s", ["trace.acquire"], lambda: s["trace.acquire"])
    put("trace.captured_records", ["trace.acquire"],
        lambda: counts["trace.captured_records"])
    put("trace.warm_train_s", [WARM_TRAIN, "trace.warm_restore"],
        lambda: s[WARM_TRAIN])
    put("trace.warm_restore_s", ["trace.warm_restore"],
        lambda: s["trace.warm_restore"])

    put("batch.run_s", ["batch.run"], lambda: inc["batch.run"])
    put("batch.units", ["batch.run"], lambda: counts["batch.units"])
    put("batch.members", ["batch.run"], lambda: counts["batch.members"])

    put("sampling.plan_s", ["sampling.plan"], lambda: s["sampling.plan"])
    put("sampling.signature_s", ["sampling.signature"],
        lambda: s["sampling.signature"])
    put("sampling.cluster_s", ["sampling.cluster"],
        lambda: s["sampling.cluster"])
    put("sampling.controller_s", ["sampling.controller"],
        lambda: s["sampling.controller"])

    put("exec.run_s", ["exec.run"], lambda: inc["exec.run"])
    put("exec.overhead_s", ["exec.run", "exec.units"],
        lambda: inc["exec.run"] - inc["exec.units"])
    put("exec.job_key_s", ["exec.job_key"], lambda: s["exec.job_key"])
    put("exec.calls", ["exec.run"], lambda: calls["exec.run"])
    put("exec.units", ["exec.units"], lambda: counts["exec.units"])
    put("exec.cache_get_s", ["exec.cache_get"], lambda: s["exec.cache_get"])
    put("exec.cache_put_s", ["exec.cache_put"], lambda: s["exec.cache_put"])
    put("workloads.build_s", ["workloads.build"],
        lambda: s["workloads.build"])
    put("workloads.programs", ["workloads.build"],
        lambda: calls["workloads.build"])
    out["bench.coverage_frac"] = tracer.covered_s() / wall_s \
        if wall_s > 0 else None
    return out


def unit_metrics(unit_ms: List[float], missing: set
                 ) -> Dict[str, Optional[float]]:
    """Unit latency over every traced pass of a run, with its n."""
    if "exec.unit" in missing:
        return {"exec.unit_p50_ms": None, "exec.unit_tail_ms": None,
                "exec.unit_tail_pct": None, "exec.unit_n": None}
    pct, tail = _tail(unit_ms)
    return {
        "exec.unit_p50_ms": statistics.median(unit_ms) if unit_ms else 0.0,
        "exec.unit_tail_ms": tail,
        "exec.unit_tail_pct": pct,
        "exec.unit_n": float(len(unit_ms)),
    }
