"""Parallel execution, persistent result caching and the sweep fabric.

The subsystem every sweep runs on: content-addressed simulation jobs
(:mod:`repro.exec.jobs`), an on-disk result cache keyed by a canonical
serialization of the full simulation input (:mod:`repro.exec.serialize`,
:mod:`repro.exec.cache`), a deduplicating planner
(:mod:`repro.exec.executor`) and the pluggable execution backends it
dispatches to (:mod:`repro.exec.backend`): inline, a local process
pool, or the shared lease-based job queue (:mod:`repro.exec.queue`)
that ``repro worker`` processes drain.  Requests and queue payloads
cross process boundaries as versioned JSON (:mod:`repro.exec.wire`).

Environment knobs:

* ``REPRO_JOBS``      -- worker processes (default: the CPU-affinity
  count, falling back to ``os.cpu_count()``)
* ``REPRO_CACHE_DIR`` -- cache directory (default: ``~/.cache/repro``)
* ``REPRO_CACHE``     -- set to ``0`` to disable the persistent cache
* ``REPRO_BATCH``     -- max members per batched replay unit
  (default: 16; ``0`` disables batching)
* ``REPRO_BACKEND``   -- execution backend spec
  (``inline`` / ``process`` / ``queue``; default: ``process``)
* ``REPRO_QUEUE_DIR`` -- shared queue directory (default: the cache's
  ``queue`` namespace)
"""

from .backend import (
    BACKENDS,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    backend_names,
    create_backend,
    default_backend_spec,
    register_backend,
)
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
from .queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    JobQueue,
    LeasedJob,
    QueueBackend,
    QueueDirError,
    default_queue_dir,
    run_worker,
    spawn_worker,
    unit_job_id,
)
from .serialize import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    canonicalize,
    config_fingerprint,
    fingerprint,
)
from .wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    wire_decode,
    wire_encode,
)

__all__ = [
    "BACKENDS",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_BATCH_LIMIT",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "CacheStats",
    "ExecutionBackend",
    "InlineBackend",
    "JobQueue",
    "LeasedJob",
    "ProcessPoolBackend",
    "QueueBackend",
    "QueueDirError",
    "ResultCache",
    "SimJob",
    "SweepExecutor",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "backend_names",
    "batch_signature",
    "cache_enabled_by_env",
    "canonical_json",
    "canonicalize",
    "config_fingerprint",
    "create_backend",
    "default_backend_spec",
    "default_batch_limit",
    "default_cache_dir",
    "default_jobs",
    "default_queue_dir",
    "execute_job",
    "execute_unit",
    "fingerprint",
    "job_key",
    "register_backend",
    "run_worker",
    "spawn_worker",
    "unit_job_id",
    "wire_decode",
    "wire_encode",
]
