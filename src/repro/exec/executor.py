"""Parallel sweep executor: dedup, cache, batch, dispatch, reassemble.

Every evaluation in the repo reduces to a batch of independent,
deterministic (workload, config, budget) simulations.
:class:`SweepExecutor` is the *planner* for such a batch:

1. **deduplicates** it by content hash -- both within one call and across
   calls of the same executor (one suite submission), so a result requested
   by several figures (the Fig. 9 scatter reuses every Fig. 8 run) or by
   several sampled cells is simulated once even on a cold cache;
2. serves what it can from the **persistent result cache**
   (:mod:`repro.exec.cache`);
3. **groups** the remaining misses by
   :func:`~repro.exec.jobs.batch_signature` into units of up to
   ``--batch`` / ``REPRO_BATCH`` jobs, each run by
   :func:`~repro.exec.jobs.execute_unit` as one batched trace walk (see
   :mod:`repro.batch`), so N same-window configs walk their trace once
   instead of N times;
4. hands the resulting units to a backend (:mod:`repro.exec.backend`)
   -- inline, or a local process pool sized by ``--jobs`` /
   ``REPRO_JOBS``;
5. returns results in request order, so callers are oblivious to
   scheduling.

Because each simulation is deterministic (seeded generators, fixed dynamic
stream) and batch members keep private microarchitectural state, a parallel,
cached or batched run is *identical* to a serial fresh one -- the
property the backend-conformance suite pins down.  Every batch member keeps
its own job key, so warm-cache behavior is unchanged: cached members are
served before grouping and never re-simulated.

The default backend is the process pool, whose "a single unit, or
``jobs=1``, runs inline in this process" rule keeps small calls like
``run_pair`` free of pool and pickling overhead.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import env_int
from ..core.simulator import SimulationResult
from .backend import InlineBackend, ProcessPoolBackend
from .cache import ResultCache, cache_enabled_by_env
from .jobs import SimJob, batch_signature, job_key

#: Default cap on members per batched replay unit.  Large enough to cover
#: a Fig. 10-style sweep in one walk, small enough that one unit does not
#: serialize a whole many-config sweep behind a single worker.
DEFAULT_BATCH_LIMIT = 16


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the CPUs *this process
    may actually use*.

    Containers routinely pin processes to a CPU subset (and some report
    ``os.cpu_count() is None``), so the affinity mask -- when the
    platform exposes one -- is the honest parallelism bound: trusting
    the raw CPU count oversubscribes every worker on the host.  Falls
    back to ``os.cpu_count()``, then 1.  A ``REPRO_JOBS`` that is not a
    positive integer raises :class:`~repro.core.config.EnvValueError`.
    """
    jobs = env_int("REPRO_JOBS", None, minimum=1)
    if jobs is not None:
        return jobs
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux, or query refused
        return os.cpu_count() or 1


def default_batch_limit() -> int:
    """Batch cap: ``REPRO_BATCH`` if set, else the default.

    ``0`` (or ``1``) disables batched grouping.  A ``REPRO_BATCH`` that
    is not a non-negative integer raises
    :class:`~repro.core.config.EnvValueError`.
    """
    return env_int("REPRO_BATCH", DEFAULT_BATCH_LIMIT, minimum=0)


_Entry = Tuple[str, SimJob]


class SweepExecutor:
    """Batch planner: dedup + cache + batching, then inline or a pool."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: "Optional[ResultCache | bool]" = None,
                 batch: Optional[int] = None,
                 backend: "Optional[str | InlineBackend | ProcessPoolBackend]"
                 = None):
        """``jobs``: worker count (None -> :func:`default_jobs`).

        ``cache``: a :class:`ResultCache` to use, ``False`` to disable
        caching, or None to follow the environment policy (enabled unless
        ``REPRO_CACHE=0``, directory from ``REPRO_CACHE_DIR``).

        ``batch``: max members per batched replay unit; ``0`` or ``1``
        disables grouping, None follows ``REPRO_BATCH`` (default
        :data:`DEFAULT_BATCH_LIMIT`).

        ``backend``: where planned units execute -- ``"inline"`` (this
        process, in order), ``"process"`` or None (the local process
        pool sized by ``jobs``), or any object with a ``run_units``
        method like those in :mod:`repro.exec.backend`.  Any other name
        raises :class:`ValueError`.
        """
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.batch = default_batch_limit() if batch is None \
            else max(0, int(batch))
        if backend is None or backend == "process":
            self.backend = ProcessPoolBackend(self.jobs)
        elif backend == "inline":
            self.backend = InlineBackend()
        elif isinstance(backend, str):
            raise ValueError(f"unknown execution backend {backend!r} "
                             "(expected 'inline' or 'process')")
        else:
            self.backend = backend
        if cache is None:
            self.cache: Optional[ResultCache] = (
                ResultCache() if cache_enabled_by_env() else None)
        elif cache is False:
            self.cache = None
        elif cache is True:
            self.cache = ResultCache()
        else:
            self.cache = cache
        #: Simulations actually executed (cache misses after dedup).
        self.simulations_run = 0
        #: Requests answered by deduplication (same key in one call, or
        #: already produced by an earlier call of this executor).
        self.deduplicated = 0
        #: Batched replay units executed, and the jobs they covered.
        self.batches_run = 0
        self.batched_jobs = 0
        #: Results produced by this executor, keyed by job key: the
        #: within-submission dedup memo.  Two cells that hash identically
        #: simulate once even with the persistent cache cold or disabled.
        self._produced: Dict[str, SimulationResult] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _plan_units(self, misses: List[_Entry]) -> List[List[_Entry]]:
        """Group cache misses into execution units, request order kept.

        Jobs sharing a :func:`batch_signature` form one unit (up to
        ``self.batch`` members; larger groups split); singletons stay
        individual units.
        """
        if self.batch < 2:
            return [[entry] for entry in misses]
        sequence: List[List[_Entry]] = []
        buckets: Dict[str, List[_Entry]] = {}
        for entry in misses:
            signature = batch_signature(entry[1])
            bucket = buckets.get(signature)
            if bucket is None:
                bucket = buckets[signature] = [entry]
                sequence.append(bucket)
            else:
                bucket.append(entry)
        units: List[List[_Entry]] = []
        for bucket in sequence:
            for i in range(0, len(bucket), self.batch):
                units.append(bucket[i:i + self.batch])
        return units

    def run(self, batch: Sequence[SimJob]) -> List[SimulationResult]:
        """Run every job in ``batch``; results in request order."""
        keys = [job_key(job) for job in batch]
        unique: Dict[str, SimJob] = {}
        for key, job in zip(keys, batch):
            unique.setdefault(key, job)
        self.deduplicated += len(batch) - len(unique)

        results: Dict[str, SimulationResult] = {}
        misses: List[_Entry] = []
        for key, job in unique.items():
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[key] = cached
                continue
            produced = self._produced.get(key)
            if produced is not None:
                results[key] = produced
                self.deduplicated += 1
                continue
            misses.append((key, job))

        if misses:
            self.simulations_run += len(misses)
            units = self._plan_units(misses)
            for unit in units:
                if len(unit) > 1:
                    self.batches_run += 1
                    self.batched_jobs += len(unit)
            produced_units = self.backend.run_units(units)
            for unit_results in produced_units:
                for key, result in unit_results:
                    results[key] = result
                    self._produced[key] = result
                    if self.cache is not None:
                        self.cache.put(key, result)

        return [results[key] for key in keys]

    def run_one(self, job: SimJob) -> SimulationResult:
        """Run a single job (inline; still deduped against the cache)."""
        return self.run([job])[0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> str:
        parts = [f"jobs={self.jobs}",
                 f"simulations={self.simulations_run}",
                 f"deduplicated={self.deduplicated}"]
        if self.batch >= 2:
            parts.append(f"batched={self.batched_jobs}"
                         f"(in {self.batches_run} batches)")
        else:
            parts.append("batch=off")
        if self.cache is not None:
            parts.append(self.cache.stats.summary())
        else:
            parts.append("cache=off")
        return " ".join(parts)
