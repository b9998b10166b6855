"""Parallel execution and persistent result caching.

The subsystem every sweep runs on: content-addressed simulation jobs
(:mod:`repro.exec.jobs`), an on-disk result cache keyed by a canonical
serialization of the full simulation input (:mod:`repro.exec.serialize`,
:mod:`repro.exec.cache`), a deduplicating planner
(:mod:`repro.exec.executor`) and the two backends it dispatches to
(:mod:`repro.exec.backend`): inline, or a local process pool.

Environment knobs:

* ``REPRO_JOBS``      -- worker processes (default: the CPU-affinity
  count, falling back to ``os.cpu_count()``)
* ``REPRO_CACHE_DIR`` -- cache directory (default: ``~/.cache/repro``)
* ``REPRO_CACHE``     -- set to ``0`` to disable the persistent cache
* ``REPRO_BATCH``     -- max members per batched replay unit
  (default: 16; ``0`` disables batching)
"""

from .backend import InlineBackend, ProcessPoolBackend
from .cache import (
    CacheStats,
    ResultCache,
    cache_enabled_by_env,
    default_cache_dir,
)
from .executor import (
    DEFAULT_BATCH_LIMIT,
    SweepExecutor,
    default_batch_limit,
    default_jobs,
)
from .jobs import (
    SimJob,
    batch_signature,
    execute_job,
    execute_unit,
    job_key,
)
from .serialize import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    canonicalize,
    config_fingerprint,
    fingerprint,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_BATCH_LIMIT",
    "CacheStats",
    "InlineBackend",
    "ProcessPoolBackend",
    "ResultCache",
    "SimJob",
    "SweepExecutor",
    "batch_signature",
    "cache_enabled_by_env",
    "canonical_json",
    "canonicalize",
    "config_fingerprint",
    "default_batch_limit",
    "default_cache_dir",
    "default_jobs",
    "execute_job",
    "execute_unit",
    "fingerprint",
    "job_key",
]
