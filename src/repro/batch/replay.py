"""Batched multi-config replay: walk the trace once, time N machines.

Every design-space figure (Figs. 10/11/16: priority entries, confidence
bits, processor size) replays the *same* committed instruction stream
once per configuration.  Replaying each config on its own would repeat,
per config, work that depends only on the (workload, budget,
warm-class) triple: acquiring the trace, building the program, and
training (or unpickling) the warm microarchitectural state.

:func:`run_batch` hoists all of that out of the per-config loop, and is
how every unit of the sweep executor runs -- a lone job is a batch of
one.  Each member is seated by the one seat,
:meth:`~repro.core.pipeline.Pipeline._prepare_replay`.  The first member
acquires the :class:`~repro.trace.format.Trace` for the whole batch and
hands it to the later members (fetch only reads its arrays, so nothing
is decoded or buffered per member), and trains or restores the warm
state; when another member follows, that state is pickled once and
every later member is built from an unpickled copy, exactly as the
warm-checkpoint store would hand it over.  Each member then runs to
completion on its own
:class:`~repro.core.pipeline.Pipeline` -- private IQ, ROB, predictor,
caches, wrong-path fetch -- so results are bit-identical to running
each job alone, which the golden and property tests pin down.

What may share a batch is defined by
:func:`~repro.exec.jobs.batch_signature`: same workload, budget and
replay window, same memory configuration, same warm front-end slice
(:func:`~repro.core.pipeline._front_warm_config`).  Members may differ
in anything that only steers timing -- issue-policy/PUBS knobs
(priority entries, stall policy, mode switching), IQ organization,
window sizes, verification level.
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Sequence

from ..core.pipeline import WARM_FIELDS, Pipeline, replay_reach
from ..core.simulator import SimulationResult, result_from_pipeline
from ..exec.jobs import SimJob, batch_signature
from ..trace.store import TraceStore, shared_store


def run_batch(jobs: Sequence[SimJob],
              trace_source: Optional[TraceStore] = None
              ) -> List[SimulationResult]:
    """Run same-signature replay jobs with one walk of their trace.

    Returns one :class:`SimulationResult` per job, in request order,
    bit-identical to running each job on its own through
    :func:`~repro.exec.jobs.execute_job`.  ``trace_source`` overrides
    the trace store (tests point it at a temporary directory); None
    uses the shared environment-selected store.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if len(jobs) > 1 and len(set(map(batch_signature, jobs))) > 1:
        raise ValueError(
            "batch members must share workload, budget, replay window, "
            "memory configuration and warm front-end configuration")

    from ..workloads.generator import build_program
    profile = jobs[0].profile
    program = build_program(profile)
    store = trace_source if trace_source is not None else shared_store()
    # The first member acquires the trace for the widest window, so no
    # later member runs past it.
    reach = max(replay_reach(job.config) for job in jobs)
    trace = None
    warm_blob: Optional[bytes] = None
    results: List[SimulationResult] = []
    for n, job in enumerate(jobs, 1):
        # Geometry-equal by signature: a later member is built straight
        # from the snapshot, not from fresh components it would throw
        # away.
        warm = pickle.loads(warm_blob) if warm_blob is not None else None
        pipeline = Pipeline(program, job.config, mem_seed=profile.mem_seed,
                            trace_source=store, warm=warm)
        pipeline._prepare_replay(job.instructions, job.skip, trace,
                                 reach=reach)
        trace = pipeline.trace
        if warm_blob is None and n < len(jobs):
            warm_blob = pickle.dumps(
                tuple(getattr(pipeline, name) for name in WARM_FIELDS),
                protocol=pickle.HIGHEST_PROTOCOL)
        stats = pipeline.run(job.instructions, job.skip)
        results.append(result_from_pipeline(pipeline, stats))
        # Release this member before the next snapshot is unpickled,
        # so peak memory holds one member, not two.
        pipeline = warm = None
    return results


__all__ = ["run_batch"]
