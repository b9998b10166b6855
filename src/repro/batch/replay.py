"""Batched multi-config replay: walk the trace once, time N machines.

Every design-space figure (Figs. 10/11/16: priority entries, confidence
bits, processor size) replays the *same* committed instruction stream
once per configuration.  Sequential replay therefore repeats, per
config, work that depends only on the (workload, budget, warm-class)
triple: acquiring and decoding the trace, materializing
:class:`~repro.isa.executor.DynamicOp` records, building the program,
and training (or unpickling) the warm microarchitectural state.

:func:`run_batch` hoists all of that out of the per-config loop.  One
:class:`SharedReplayWindow` materializes each trace record exactly once
-- a numpy structure-of-arrays pass over the trace's typed arrays turns
the flag bytes into taken/memory columns chunk-wise, and the resulting
``DynamicOp`` objects are shared by every member (the pipeline never
mutates them).  The first member trains the warm state through the
ordinary :class:`~repro.core.pipeline.Pipeline` warm path; the rest
restore a pickled snapshot of it, exactly as the warm-checkpoint store
would hand it to them.  Each member then runs to completion on its own
:class:`Pipeline` -- private IQ, ROB, predictor, caches, wrong-path
fetch -- so results are bit-identical to sequential replay, which the
golden and property tests pin down.

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

from ..core.pipeline import Pipeline
from ..core.simulator import SimulationResult, result_from_pipeline
from ..exec.jobs import SimJob, batch_signature
from ..isa.executor import DynamicOp
from ..trace.format import Trace
from ..trace.replay import ReplayWindow
from ..trace.store import REPLAY_MARGIN, TraceStore, shared_store

#: Pipeline attributes snapshot-copied from the first member to the rest
#: -- the same component set the warm-checkpoint store persists, in the
#: order ``Pipeline(warm=...)`` takes them, plus the I-line dedup mark
#: the warm walk leaves behind.
_WARM_FIELDS = ("hierarchy", "predictor", "btb", "slice_tracker",
                "_last_ifetch_line")


class SharedReplayWindow(ReplayWindow):
    """One materialization of a trace span, shared by a whole batch.

    The chunked decoder of :class:`~repro.trace.replay.ReplayWindow`,
    decoding each record once for every member: records are immutable
    to the pipeline, so every :class:`BatchCursor` hands out the *same*
    objects -- the per-record decode cost is paid once per batch, not
    once per member.

    Unlike :class:`~repro.trace.replay.TraceReplayFrontEnd`, releases do
    not free records: later members still need the span the first one
    has finished with.  Memory is bounded by the batch's single window
    (measure + detail + fetch-ahead), which ``end`` bounds the decoding
    to.
    """

    @property
    def high(self) -> int:
        """Sequence number just past the highest decoded record."""
        return self.decoded


class BatchCursor:
    """One member's cursor-protocol view of a :class:`SharedReplayWindow`.

    Implements the fetch/commit contract of
    :class:`~repro.trace.replay.TraceReplayFrontEnd` -- ``get`` by
    dynamic sequence number, ``release`` advancing a low-water mark --
    but backed by the shared window, so a ``get`` that the previous
    member already materialized is a list index.  The per-member mark
    only guards against re-reading released records; it frees nothing.
    """

    def __init__(self, window: SharedReplayWindow):
        self._window = window
        self._low = window.base

    @property
    def trace(self) -> Trace:
        return self._window.trace

    @property
    def high(self) -> int:
        return self._window.high

    def get(self, seq: int) -> DynamicOp:
        if seq < self._low:
            raise IndexError(
                f"trace record {seq} already released (base={self._low})")
        return self._window.get(seq)

    def release(self, seq: int) -> None:
        if seq > self._low:
            self._low = seq

    def attach(self, trace: Trace, end: Optional[int] = None) -> None:
        raise RuntimeError(
            "batch members are single-run: resume the pipeline through "
            "sequential replay instead")


def _prepare_member(pipeline: Pipeline, window: SharedReplayWindow,
                    store: TraceStore, job: SimJob,
                    warm_blob: Optional[bytes]) -> bytes:
    """Install the shared cursor and warm state into one member.

    The first member (``warm_blob`` is None) trains or restores warm
    state through the pipeline's own replay-warmup code -- the exact
    branch structure of :meth:`Pipeline._prepare_replay` -- and the
    trained components are pickled once.  Every later member was built
    from an unpickled copy of that snapshot (see :func:`run_batch`),
    which is precisely how the warm-checkpoint store would deliver the
    state to it (fresh objects per member, tracker config rebound), so
    the result is bit-identical either way.
    """
    region = pipeline.config.replay_region
    trace = window.trace
    if region is not None:
        if job.skip:
            raise ValueError(
                "replay_region and skip_instructions are mutually "
                "exclusive: the region's warmup already positions "
                "the timed window")
        seat = region.start - region.detail
    else:
        seat = job.skip
    pipeline.cursor = BatchCursor(window)
    if warm_blob is None:
        if region is not None:
            if region.warmup == seat and seat > 0:
                pipeline._restore_or_train_warm(store, trace, seat)
            else:
                pipeline._prewarm_regions()
                pipeline._warm_mem_span(trace, seat - region.warmup, seat)
                pipeline._warm_front_span(trace, seat - region.warmup, seat)
        elif seat > 0:
            pipeline._restore_or_train_warm(store, trace, seat)
        else:
            pipeline._prewarm_regions()
        warm_blob = pickle.dumps(
            tuple(getattr(pipeline, name) for name in _WARM_FIELDS),
            protocol=pickle.HIGHEST_PROTOCOL)
    pipeline._next_trace_seq = seat
    if region is not None:
        pipeline._pending_detail = region.detail
        if pipeline.verifier is not None:
            pipeline.verifier.on_region(trace, seat)
    pipeline.cursor.release(seat)
    pipeline._replay_prepared = True
    return warm_blob


def run_batch(jobs: Sequence[SimJob],
              trace_source: Optional[TraceStore] = None
              ) -> List[SimulationResult]:
    """Run same-signature replay jobs with one walk of their trace.

    Returns one :class:`SimulationResult` per job, in request order,
    bit-identical to running each job through
    :func:`~repro.exec.jobs.execute_job`.  ``trace_source`` overrides
    the trace store (tests point it at a temporary directory); None
    uses the shared environment-selected store, as sequential replay
    does.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    signature = batch_signature(jobs[0])
    for job in jobs[1:]:
        if batch_signature(job) != signature:
            raise ValueError(
                "batch members must share workload, budget, replay window, "
                "memory configuration and warm front-end configuration")

    from ..workloads.generator import build_program
    profile = jobs[0].profile
    program = build_program(profile)
    store = trace_source if trace_source is not None else shared_store()
    lead = jobs[0]
    region = lead.config.replay_region
    if region is not None:
        end = region.start + lead.instructions
        base = region.start - region.detail
        skip_hint = 0
    else:
        end = lead.skip + lead.instructions
        base = lead.skip
        skip_hint = lead.skip
    trace = store.acquire(program, profile.mem_seed, end + REPLAY_MARGIN,
                          skip_hint=skip_hint)
    window = SharedReplayWindow(trace, program, base, end)

    warm_blob: Optional[bytes] = None
    results: List[SimulationResult] = []
    for job in jobs:
        warm = None
        if warm_blob is not None:
            # Geometry-equal by signature: build the member straight
            # from the snapshot, not from fresh components it would
            # throw away.
            *warm, last_ifetch_line = pickle.loads(warm_blob)
        pipeline = Pipeline(program, job.config, mem_seed=profile.mem_seed,
                            trace_source=store, warm=warm)
        if warm is not None:
            pipeline._last_ifetch_line = last_ifetch_line
        warm_blob = _prepare_member(pipeline, window, store, job, warm_blob)
        stats = pipeline.run(job.instructions, job.skip)
        results.append(result_from_pipeline(pipeline, stats))
        # Release this member before the next snapshot is unpickled,
        # so peak memory holds one member, not two.
        pipeline = None
    return results


__all__ = [
    "BatchCursor",
    "SharedReplayWindow",
    "run_batch",
]
