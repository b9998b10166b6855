"""Trace capture: one functional execution pass per (program, mem_seed).

:func:`capture_trace` steps a fresh :class:`~repro.isa.executor.
FunctionalExecutor` for ``length`` instructions and records each one
into the parallel arrays of :class:`~repro.trace.format.Trace`,
snapshotting the architectural state after ``skip`` records, at every
positive multiple of ``checkpoint_interval`` inside the stream, and at
the end.  Capture runs the executor's compiled per-instruction closures
directly, so it builds no :class:`~repro.isa.executor.DynamicOp`.

:func:`extend_trace` grows an existing trace without re-executing its
prefix: it restores an executor from the end checkpoint and continues
stepping, carrying the interval-checkpoint cadence forward.  Functional
execution is deterministic, so an extended trace is bit-identical to a
longer fresh capture (pinned by the format tests).
"""

from __future__ import annotations

from array import array

from ..isa.executor import FunctionalExecutor
from ..isa.instruction import Program
from .format import (
    DEFAULT_CHECKPOINT_INTERVAL,
    FLAG_COND_BRANCH,
    FLAG_MEM,
    FLAG_TAKEN,
    ArchCheckpoint,
    Trace,
)


def _record_stream(executor: FunctionalExecutor, count: int,
                   pcs: array, flags: bytearray, mem_addrs: array) -> None:
    """Append ``count`` records of ``executor``'s stream to the arrays.

    Runs the executor's compiled closures directly (what
    :meth:`~repro.isa.executor.FunctionalExecutor.step_raw` does one
    call at a time) and writes its PC and sequence number back at the
    end.  A memory record appends its address; no other record does.
    """
    # Per static instruction: its closure and the flag bits fixed by
    # decode.
    static = [(op, (FLAG_COND_BRANCH if inst.is_conditional_branch else 0)
               | (FLAG_MEM if inst.is_mem else 0))
              for op, inst in zip(executor._ops, executor.program.insts)]
    regs = executor.regs
    add_pc, add_flag, add_addr = pcs.append, flags.append, mem_addrs.append
    pc = executor.pc
    for _ in range(count):
        op, f = static[pc >> 2]
        add_pc(pc)
        pc, taken, mem_addr = op(regs)
        add_flag(f | FLAG_TAKEN if taken else f)
        if mem_addr is not None:
            add_addr(mem_addr)
    executor.pc = pc
    executor._seq += count


def _snapshot_points(start: int, length: int, interval: int,
                     skip: int) -> list:
    """Sorted interior sequence numbers where a checkpoint is taken.

    Interval multiples strictly inside ``(start, length)`` plus ``skip``
    when it falls in ``(start, length]`` -- the end of the stream is
    snapshotted unconditionally by the callers.
    """
    points = set()
    if interval:
        first = (start // interval + 1) * interval
        points.update(range(first, length, interval))
    if start < skip <= length:
        points.add(skip)
    return sorted(points)


def capture_trace(program: Program, mem_seed: int, length: int,
                  skip: int = 0,
                  checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                  ) -> Trace:
    """Functionally execute ``length`` instructions and record them.

    ``skip`` positions the warmup checkpoint; it must not exceed
    ``length``.  A ``skip`` of 0 records no warmup checkpoint.
    ``checkpoint_interval`` spaces the mid-stream checkpoints (0 records
    none).
    """
    if length < 1:
        raise ValueError("trace length must be positive")
    if not 0 <= skip <= length:
        raise ValueError(f"skip {skip} outside trace length {length}")
    if checkpoint_interval < 0:
        raise ValueError("checkpoint interval must be >= 0")
    executor = FunctionalExecutor(program, mem_seed=mem_seed)
    pcs = array("I")
    flags = bytearray()
    mem_addrs = array("Q")
    skip_checkpoint = None
    intervals = []
    pos = 0
    for point in _snapshot_points(0, length, checkpoint_interval, skip):
        _record_stream(executor, point - pos, pcs, flags, mem_addrs)
        ckpt = ArchCheckpoint.of(executor)
        if point == skip:
            skip_checkpoint = ckpt
        if checkpoint_interval and point % checkpoint_interval == 0 \
                and point < length:
            intervals.append(ckpt)
        pos = point
    _record_stream(executor, length - pos, pcs, flags, mem_addrs)
    end = ArchCheckpoint.of(executor)
    return Trace(pcs, flags, mem_addrs, skip_checkpoint, end, skip,
                 mem_seed, checkpoint_interval, tuple(intervals))


def adopt_skip_checkpoint(trace: Trace, skip_hint: int) -> Trace:
    """Fill in a missing skip checkpoint from an existing snapshot.

    When a trace first recorded with ``skip=0`` already carries a
    checkpoint exactly at ``skip_hint`` (an interval or end checkpoint),
    promote it to the skip checkpoint without re-executing anything.
    Returns ``trace`` unchanged when it already has a skip checkpoint,
    the hint is 0, or no snapshot sits exactly at the hint -- in that
    last case callers fall back to warm-training from the record arrays,
    which needs no architectural checkpoint.
    """
    if not skip_hint or trace.skip_checkpoint is not None:
        return trace
    ckpt = trace.checkpoint_at(skip_hint)
    if ckpt is None or ckpt.seq != skip_hint:
        return trace
    return Trace(trace.pcs, trace.flags, trace.mem_addrs, ckpt,
                 trace.end_checkpoint, skip_hint, trace.mem_seed,
                 trace.checkpoint_interval, trace.interval_checkpoints)


def extend_trace(trace: Trace, program: Program, length: int,
                 skip_hint: int = 0) -> Trace:
    """A trace covering ``length`` records, reusing ``trace``'s prefix.

    Resumes functional execution from the end checkpoint; the existing
    arrays are copied, not mutated, so the input trace stays valid.
    ``skip_hint`` requests a warmup checkpoint for a trace that lacks
    one: it is snapshotted live when the extension pass crosses it, or
    adopted from an existing interval checkpoint when it points into the
    already-captured prefix (see :func:`adopt_skip_checkpoint`).
    """
    if length <= len(trace):
        return adopt_skip_checkpoint(trace, skip_hint)
    start = len(trace)
    executor = trace.end_checkpoint.restore(program)
    pcs = array("I", trace.pcs)
    flags = bytearray(trace.flags)
    mem_addrs = array("Q", trace.mem_addrs)
    interval = trace.checkpoint_interval
    intervals = list(trace.interval_checkpoints)
    # A fresh capture of ``length`` records snapshots the splice point
    # when it lands on an interval multiple; the old end checkpoint *is*
    # that state.
    if interval and start % interval == 0 \
            and (not intervals or intervals[-1].seq < start):
        intervals.append(trace.end_checkpoint)
    skip_checkpoint = trace.skip_checkpoint
    captured_skip = trace.captured_skip
    want_skip = skip_checkpoint is None and start < skip_hint <= length
    pos = start
    for point in _snapshot_points(start, length, interval,
                                  skip_hint if want_skip else 0):
        _record_stream(executor, point - pos, pcs, flags, mem_addrs)
        ckpt = ArchCheckpoint.of(executor)
        if want_skip and point == skip_hint:
            skip_checkpoint = ckpt
            captured_skip = skip_hint
        if interval and point % interval == 0 and point < length:
            intervals.append(ckpt)
        pos = point
    _record_stream(executor, length - pos, pcs, flags, mem_addrs)
    end = ArchCheckpoint.of(executor)
    extended = Trace(pcs, flags, mem_addrs, skip_checkpoint, end,
                     captured_skip, trace.mem_seed, interval,
                     tuple(intervals))
    return adopt_skip_checkpoint(extended, skip_hint)
