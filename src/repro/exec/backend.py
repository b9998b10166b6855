"""Pluggable execution backends: where planned simulation units run.

:class:`~repro.exec.executor.SweepExecutor` is the *planner* -- it
deduplicates jobs, consults the persistent cache, and groups replay
misses into batched units.  What happens to the units that survive
planning is this module's job: an :class:`ExecutionBackend` takes a list
of units (each a sequence of ``(job_key, SimJob)`` entries) and returns
their results, one result list per unit, in submission order.

Three backends ship:

* :class:`InlineBackend` -- run every unit in this process, in order.
  The reference semantics; every other backend must be bit-identical
  to it (the conformance suite in ``tests/test_exec_backends.py``
  pins this).
* :class:`ProcessPoolBackend` -- fan units across a local
  :class:`concurrent.futures.ProcessPoolExecutor`.  This reproduces the
  pre-backend executor behavior exactly, including its "a single unit
  or ``jobs=1`` runs inline, no pool" rule.
* ``QueueBackend`` (:mod:`repro.exec.queue`) -- push units onto a
  shared filesystem/SQLite job queue that ``repro worker`` processes
  (local or on other hosts pointed at the same directory) lease,
  execute and complete.

Backends register by name in :data:`BACKENDS`; :func:`create_backend`
turns a spec string (``"inline"`` / ``"process"`` / ``"queue"``, from
``--backend`` or ``REPRO_BACKEND``) into an instance.  Because every
simulation is deterministic and every unit carries content-addressed
keys, *which* backend ran a unit is unobservable in the results -- the
property that lets one sweep table be assembled from any mix of local
and remote execution.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.simulator import SimulationResult
from .jobs import SimJob, execute_unit

#: One planned execution unit: keyed jobs that run together (multi-entry
#: units share one batched trace walk).
Unit = Sequence[Tuple[str, SimJob]]
UnitResults = List[Tuple[str, SimulationResult]]


class ExecutionBackend(ABC):
    """Executes planned units; returns per-unit keyed results in order."""

    #: Registry name (set per subclass).
    name: str = "?"

    @abstractmethod
    def run_units(self, units: Sequence[Unit]) -> List[UnitResults]:
        """Run every unit; result lists in submission order.

        Implementations must preserve unit order in the returned list
        and entry order within each unit, and must raise (not drop
        units) on unrecoverable failure -- the planner owns retries at
        the sweep level, the queue owns retries at the lease level.
        """

    def describe(self) -> str:
        """One token for executor summaries (default: the name)."""
        return self.name


class InlineBackend(ExecutionBackend):
    """Run units sequentially in the calling process (the reference)."""

    name = "inline"

    def run_units(self, units: Sequence[Unit]) -> List[UnitResults]:
        return [execute_unit(unit) for unit in units]


class ProcessPoolBackend(ExecutionBackend):
    """Fan units across local worker processes.

    Reproduces the historical executor behavior exactly: a pool sized
    ``min(jobs, len(units))`` is created per call and torn down after
    it, and a call that needs at most one worker runs inline -- no
    pool, no pickling.
    """

    name = "process"

    def __init__(self, jobs: Optional[int] = None) -> None:
        from .executor import default_jobs  # late: executor imports us
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))

    def run_units(self, units: Sequence[Unit]) -> List[UnitResults]:
        units = list(units)
        workers = min(self.jobs, len(units))
        if workers <= 1:
            return [execute_unit(unit) for unit in units]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(execute_unit, units))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Backend factories by spec name.  Factories accept the keyword
#: arguments of :func:`create_backend` and ignore what they do not use.
BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(name: str,
                     factory: Callable[..., ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (last wins)."""
    BACKENDS[name] = factory


def backend_names() -> Tuple[str, ...]:
    """Registered backend spec names, sorted."""
    return tuple(sorted(BACKENDS))


def default_backend_spec() -> str:
    """Backend policy: ``REPRO_BACKEND`` if set and known, else process."""
    env = os.environ.get("REPRO_BACKEND")
    if env and env in BACKENDS:
        return env
    return "process"


def create_backend(spec: Optional[str] = None,
                   jobs: Optional[int] = None,
                   queue_dir: "Optional[str | os.PathLike]" = None,
                   ) -> ExecutionBackend:
    """Build the backend a spec names.

    ``spec`` is a registered name (None follows ``REPRO_BACKEND``, then
    the process default).  ``jobs`` sizes pool-like backends;
    ``queue_dir`` points the queue backend at a shared directory (None
    follows ``REPRO_QUEUE_DIR``, then the cache's ``queue`` namespace).
    """
    # The queue backend registers itself on first import.
    from . import queue as _queue  # noqa: F401  (registration side effect)
    name = default_backend_spec() if spec is None else spec
    factory = BACKENDS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(registered: {', '.join(backend_names())})")
    return factory(jobs=jobs, queue_dir=queue_dir)


register_backend(
    "inline", lambda jobs=None, queue_dir=None: InlineBackend())
register_backend(
    "process", lambda jobs=None, queue_dir=None: ProcessPoolBackend(jobs))


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "Unit",
    "UnitResults",
    "backend_names",
    "create_backend",
    "default_backend_spec",
    "register_backend",
]
