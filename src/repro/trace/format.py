"""Compact versioned on-disk format for functional-execution traces.

A trace is the committed dynamic instruction stream of one (program,
``mem_seed``) pair, captured once by running the
:class:`~repro.isa.executor.FunctionalExecutor` and replayed by every
machine configuration in a sweep.  Records are stored as parallel typed
arrays rather than per-record objects:

* ``pcs``        -- ``array('I')``, the PC of record *i*;
* ``flags``      -- one byte per record (taken / conditional-branch /
  memory-op / has-writeback bits);
* ``next_pcs``   -- ``array('I')``, the architectural successor PC;
* ``mem_addrs``  -- ``array('Q')``, the effective address of loads and
  stores (0 for non-memory records; the flag bit disambiguates);
* ``wb_values``  -- ``array('Q')``, the register write-back value (0 for
  records without a destination; the flag bit disambiguates).

Architectural-state checkpoints ride along with the arrays: one taken
after the capture-time ``skip`` (warmup fast-forward), one at the end of
the captured stream, and -- since format version 2 -- one every
``checkpoint_interval`` records.  The end checkpoint makes a trace
*extendable* (a later request for more records resumes functional
execution from it instead of re-executing from scratch) and gives the
differential oracle a reference state to diff replayed runs against.
The interval checkpoints let a replayed run *start* anywhere: the
nearest checkpoint at or below a requested region start seats the
oracle, and only the residue up to the region needs fast-forwarding
(SimPoint/SMARTS-style mid-run sampling).

The serialized payload is a plain dict of primitives (arrays rendered as
bytes) so it pickles compactly, carries ``TRACE_FORMAT_VERSION``, and is
self-checking: a SHA-256 checksum over the record arrays detects
truncation or corruption at decode time.  Any mismatch raises
:class:`TraceFormatError`, which the store treats as a cache miss (clean
re-record), never as a crash.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..isa.executor import FunctionalExecutor
from ..isa.instruction import Program

#: Bump whenever the record layout or checkpoint contents change; the
#: version is folded into every trace key *and* checked in the payload, so
#: stale entries stop being found and, belt-and-braces, fail decode.
#:
#: v2: interval checkpoints (``ArchCheckpoint`` every
#: ``checkpoint_interval`` records) for mid-run region sampling.
TRACE_FORMAT_VERSION = 2

#: Default spacing of interval checkpoints.  8192 records keeps the
#: checkpoint overhead small (one register/memory snapshot per ~200 KB of
#: record arrays) while bounding the oracle's fast-forward residue for
#: any region start.  0 disables interval checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 8192

#: Per-record flag bits.
FLAG_TAKEN = 1  #: branch outcome (conditional branches and jumps)
FLAG_COND_BRANCH = 2  #: the instruction is a conditional branch
FLAG_MEM = 4  #: the record carries an effective memory address
FLAG_WB = 8  #: the record carries a register write-back value

#: Flag-byte tables, indexed by a record's flag byte.  The two ``bytes``
#: tables hold 1 where their bit is set, so ``flags[a:b].translate(t)``
#: turns a span of flag bytes into a mask for :func:`itertools.compress`.
FLAG_MEM_TABLE = bytes(1 if f & FLAG_MEM else 0 for f in range(256))
FLAG_COND_BRANCH_TABLE = bytes(1 if f & FLAG_COND_BRANCH else 0
                               for f in range(256))
#: The branch outcome each flag byte records, as a bool.
FLAG_TAKEN_TABLE = tuple(bool(f & FLAG_TAKEN) for f in range(256))


class TraceFormatError(ValueError):
    """A trace payload failed validation (version, checksum, layout)."""


class TraceExhaustedError(RuntimeError):
    """The pipeline fetched a correct-path record past the captured stream.

    Should never fire when the trace was acquired through
    :meth:`repro.trace.store.TraceStore.acquire` with the pipeline's
    fetch reach (:func:`~repro.core.pipeline.replay_reach`); it exists
    so an undersized hand-built trace fails loudly instead of silently
    desynchronizing the simulation.
    """


@dataclass(frozen=True)
class ArchCheckpoint:
    """Complete architectural state at one point of the dynamic stream."""

    seq: int  #: dynamic sequence number the state corresponds to
    pc: int
    regs: Tuple[int, ...]
    mem_words: Dict[int, int]  #: every memory word written so far
    mem_seed: int

    @staticmethod
    def of(executor: FunctionalExecutor) -> "ArchCheckpoint":
        """Snapshot ``executor``'s architectural state."""
        return ArchCheckpoint(
            seq=executor.seq,
            pc=executor.pc,
            regs=tuple(executor.regs),
            mem_words=executor.memory.words(),
            mem_seed=executor.memory.seed,
        )

    def restore(self, program: Program) -> FunctionalExecutor:
        """A fresh executor resumed exactly at this checkpoint."""
        return FunctionalExecutor.from_state(
            program, self.mem_seed, self.regs, self.pc, self.seq,
            self.mem_words)


class Trace:
    """A decoded trace: record arrays plus the checkpoints.

    The object is program-agnostic (records reference instructions by PC);
    the pipeline's fetch stage reads the arrays directly and looks each
    PC up in its own :class:`Program`.
    """

    __slots__ = ("pcs", "flags", "next_pcs", "mem_addrs", "wb_values",
                 "skip_checkpoint", "end_checkpoint", "captured_skip",
                 "mem_seed", "checkpoint_interval", "interval_checkpoints")

    def __init__(self, pcs: array, flags: bytearray, next_pcs: array,
                 mem_addrs: array, wb_values: array,
                 skip_checkpoint: Optional[ArchCheckpoint],
                 end_checkpoint: ArchCheckpoint,
                 captured_skip: int, mem_seed: int,
                 checkpoint_interval: int = 0,
                 interval_checkpoints: Tuple[ArchCheckpoint, ...] = ()):
        self.pcs = pcs
        self.flags = flags
        self.next_pcs = next_pcs
        self.mem_addrs = mem_addrs
        self.wb_values = wb_values
        #: State after ``captured_skip`` records (None when skip was 0).
        self.skip_checkpoint = skip_checkpoint
        #: State after the final captured record (extension/verify anchor).
        self.end_checkpoint = end_checkpoint
        self.captured_skip = captured_skip
        self.mem_seed = mem_seed
        #: Spacing of :attr:`interval_checkpoints` (0 = none recorded).
        self.checkpoint_interval = checkpoint_interval
        #: Checkpoints at every positive multiple of the interval strictly
        #: inside the captured stream, ascending by ``seq``.
        self.interval_checkpoints = interval_checkpoints

    def __len__(self) -> int:
        return len(self.pcs)

    def checkpoint_at(self, seq: int) -> Optional[ArchCheckpoint]:
        """The nearest checkpoint with ``ckpt.seq <= seq``, or None.

        Considers the skip, interval, and end checkpoints.  ``None`` means
        no recorded state at or below ``seq``; the caller starts a fresh
        functional executor at sequence 0 and fast-forwards all of ``seq``.
        """
        best = None
        for ckpt in self.interval_checkpoints:
            if ckpt.seq > seq:
                break
            best = ckpt
        for ckpt in (self.skip_checkpoint, self.end_checkpoint):
            if ckpt is not None and ckpt.seq <= seq:
                if best is None or ckpt.seq > best.seq:
                    best = ckpt
        return best

    def payload_bytes(self) -> int:
        """Approximate in-memory size of the record arrays."""
        return (self.pcs.itemsize * len(self.pcs)
                + len(self.flags)
                + self.next_pcs.itemsize * len(self.next_pcs)
                + self.mem_addrs.itemsize * len(self.mem_addrs)
                + self.wb_values.itemsize * len(self.wb_values))


def _checksum(pcs: bytes, flags: bytes, next_pcs: bytes,
              mem_addrs: bytes, wb_values: bytes) -> str:
    h = hashlib.sha256()
    for chunk in (pcs, flags, next_pcs, mem_addrs, wb_values):
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def encode_trace(trace: Trace) -> dict:
    """Render ``trace`` as a picklable, self-checking payload dict."""
    pcs = trace.pcs.tobytes()
    flags = bytes(trace.flags)
    next_pcs = trace.next_pcs.tobytes()
    mem_addrs = trace.mem_addrs.tobytes()
    wb_values = trace.wb_values.tobytes()
    return {
        "format": TRACE_FORMAT_VERSION,
        "count": len(trace),
        "captured_skip": trace.captured_skip,
        "mem_seed": trace.mem_seed,
        "pcs": pcs,
        "flags": flags,
        "next_pcs": next_pcs,
        "mem_addrs": mem_addrs,
        "wb_values": wb_values,
        "checksum": _checksum(pcs, flags, next_pcs, mem_addrs, wb_values),
        "skip_checkpoint": trace.skip_checkpoint,
        "end_checkpoint": trace.end_checkpoint,
        "checkpoint_interval": trace.checkpoint_interval,
        "interval_checkpoints": tuple(trace.interval_checkpoints),
    }


def decode_trace(payload: dict) -> Trace:
    """Validate and decode a payload produced by :func:`encode_trace`.

    Raises :class:`TraceFormatError` on any inconsistency -- unknown
    version, checksum mismatch (truncation/corruption), or array-length
    disagreement with the recorded count.
    """
    if not isinstance(payload, dict):
        raise TraceFormatError("trace payload is not a mapping")
    if payload.get("format") != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"trace format version {payload.get('format')!r} != "
            f"{TRACE_FORMAT_VERSION}")
    try:
        count = payload["count"]
        raw = tuple(payload[k] for k in
                    ("pcs", "flags", "next_pcs", "mem_addrs", "wb_values"))
        checksum = payload["checksum"]
        skip_ckpt = payload["skip_checkpoint"]
        end_ckpt = payload["end_checkpoint"]
        captured_skip = payload["captured_skip"]
        mem_seed = payload["mem_seed"]
        interval = payload["checkpoint_interval"]
        interval_ckpts = tuple(payload["interval_checkpoints"])
    except KeyError as exc:
        raise TraceFormatError(f"trace payload lacks field {exc}") from exc
    if _checksum(*raw) != checksum:
        raise TraceFormatError("trace checksum mismatch (corrupt payload)")
    pcs = array("I")
    pcs.frombytes(raw[0])
    next_pcs = array("I")
    next_pcs.frombytes(raw[2])
    mem_addrs = array("Q")
    mem_addrs.frombytes(raw[3])
    wb_values = array("Q")
    wb_values.frombytes(raw[4])
    flags = bytearray(raw[1])
    if not (len(pcs) == len(flags) == len(next_pcs) == len(mem_addrs)
            == len(wb_values) == count):
        raise TraceFormatError("trace array lengths disagree with count")
    if not isinstance(end_ckpt, ArchCheckpoint) or end_ckpt.seq != count:
        raise TraceFormatError("trace end checkpoint out of position")
    if not isinstance(interval, int) or interval < 0:
        raise TraceFormatError("trace checkpoint interval invalid")
    prev = 0
    for ckpt in interval_ckpts:
        if not isinstance(ckpt, ArchCheckpoint):
            raise TraceFormatError("interval checkpoint has wrong type")
        if (not interval or ckpt.seq % interval != 0
                or not prev < ckpt.seq < count):
            raise TraceFormatError(
                f"interval checkpoint at seq {ckpt.seq} out of position")
        prev = ckpt.seq
    return Trace(pcs, flags, next_pcs, mem_addrs, wb_values,
                 skip_ckpt, end_ckpt, captured_skip, mem_seed,
                 interval, interval_ckpts)


def trace_metadata(payload: dict) -> dict:
    """Summarize a payload without materializing or checksumming arrays.

    Used by :meth:`~repro.trace.store.TraceStore.describe`: metadata reads
    (record count, checkpoint positions, byte sizes) must not pay the
    decode cost of multi-megabyte record arrays.  Raises
    :class:`TraceFormatError` on a wrong version or missing fields; it
    deliberately does *not* verify the checksum -- a later full decode
    still would.
    """
    if not isinstance(payload, dict):
        raise TraceFormatError("trace payload is not a mapping")
    if payload.get("format") != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"trace format version {payload.get('format')!r} != "
            f"{TRACE_FORMAT_VERSION}")
    try:
        skip_ckpt = payload["skip_checkpoint"]
        return {
            "records": payload["count"],
            "captured_skip": payload["captured_skip"],
            "mem_seed": payload["mem_seed"],
            "checkpoint_interval": payload["checkpoint_interval"],
            "skip_checkpoint_seq":
                skip_ckpt.seq if skip_ckpt is not None else None,
            "end_checkpoint_seq": payload["end_checkpoint"].seq,
            "interval_checkpoint_seqs": tuple(
                ckpt.seq for ckpt in payload["interval_checkpoints"]),
            "payload_bytes": sum(
                len(payload[k]) for k in
                ("pcs", "flags", "next_pcs", "mem_addrs", "wb_values")),
        }
    except (KeyError, AttributeError) as exc:
        raise TraceFormatError(f"trace payload lacks field {exc}") from exc
