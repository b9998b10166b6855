"""Execution backends: where planned simulation units run.

:class:`~repro.exec.executor.SweepExecutor` is the *planner* -- it
deduplicates jobs, consults the persistent cache, and groups replay
misses into batched units.  A backend takes the units that survive
planning (each a sequence of ``(job_key, SimJob)`` entries) and returns
their results, one result list per unit, in submission order.

Two backends ship:

* :class:`InlineBackend` -- run every unit in this process, in order.
  The reference semantics; the pool must be bit-identical to it (the
  conformance tests in ``tests/test_exec_backends.py`` pin this).
* :class:`ProcessPoolBackend` -- fan units across a local
  :class:`concurrent.futures.ProcessPoolExecutor`; a call that needs at
  most one worker runs inline, with no pool and no pickling.

Every simulation is deterministic and every unit carries
content-addressed keys, so *which* backend ran a unit is unobservable
in the results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Sequence, Tuple

from ..core.simulator import SimulationResult
from .jobs import SimJob, execute_unit

#: One planned execution unit: keyed jobs that run together (multi-entry
#: units share one batched trace walk).
Unit = Sequence[Tuple[str, SimJob]]
UnitResults = List[Tuple[str, SimulationResult]]


class InlineBackend:
    """Run units sequentially in the calling process (the reference)."""

    def run_units(self, units: Sequence[Unit]) -> List[UnitResults]:
        return [execute_unit(unit) for unit in units]


class ProcessPoolBackend:
    """Fan units across local worker processes.

    A pool sized ``min(jobs, len(units))`` is created per call and torn
    down after it, and a call that needs at most one worker runs inline
    -- no pool, no pickling.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))

    def run_units(self, units: Sequence[Unit]) -> List[UnitResults]:
        units = list(units)
        workers = min(self.jobs, len(units))
        if workers <= 1:
            return [execute_unit(unit) for unit in units]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(execute_unit, units))


__all__ = [
    "InlineBackend",
    "ProcessPoolBackend",
    "Unit",
    "UnitResults",
]
