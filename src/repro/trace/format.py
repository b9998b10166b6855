"""Compact versioned on-disk format for functional-execution traces.

A trace is the committed dynamic instruction stream of one (program,
``mem_seed``) pair, captured once by running the
:class:`~repro.isa.executor.FunctionalExecutor` and replayed by every
machine configuration in a sweep.  Records are stored as three typed
arrays rather than per-record objects, about 6 B per record:

* ``pcs``        -- ``array('I')``, the PC of record *i*;
* ``flags``      -- one byte per record (taken / conditional-branch /
  memory-op bits);
* ``mem_addrs``  -- ``array('Q')``, the effective address of each memory
  record (load or store), one per memory record in stream order.

Nothing else is needed.  A trace is the committed stream, so the
successor of record *i* is ``pcs[i + 1]``: replay derives it from the
static instruction and the taken bit (the branch target, or the
fall-through), exactly as the executor computed it.  The address of
memory record *i* sits at ``mem_addrs[mem_rank(i)]``, where
:meth:`Trace.mem_rank` counts the memory records before *i* from a
per-trace table of cumulative counts, one every
:data:`MEM_RANK_BLOCK` records, built on construction and never stored.

Architectural-state checkpoints ride along with the arrays: one taken
after the capture-time ``skip`` (warmup fast-forward), one at the end of
the captured stream, and one every ``checkpoint_interval`` records.  The
end checkpoint makes a trace *extendable* (a later request for more
records resumes functional execution from it instead of re-executing
from record 0) and gives the differential oracle a reference state to
diff replayed runs against.  The interval checkpoints let a replayed
run *start* anywhere: the nearest checkpoint at or below a requested
region start seats the oracle, and only the residue up to the region
needs fast-forwarding (SimPoint/SMARTS-style mid-run sampling).

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
#: v3: three arrays -- no successor PCs or write-back values, and one
#: address per memory record instead of one per record.
TRACE_FORMAT_VERSION = 3

#: Default spacing of interval checkpoints.  8192 records keeps the
#: checkpoint overhead small (one register/memory snapshot per ~50 KB of
#: record arrays) while bounding the oracle's fast-forward residue for
#: any region start.  0 disables interval checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 8192

#: Per-record flag bits.
FLAG_TAKEN = 1  #: branch outcome (conditional branches and jumps)
FLAG_COND_BRANCH = 2  #: the instruction is a conditional branch
FLAG_MEM = 4  #: the record has an address in ``mem_addrs``

#: Flag-byte tables, indexed by a record's flag byte.  The two ``bytes``
#: tables hold 1 where their bit is set, so ``flags[a:b].translate(t)``
#: turns a span of flag bytes into a mask for :func:`itertools.compress`
#: (and ``.count(1)`` counts the span's records of that kind).
FLAG_MEM_TABLE = bytes(1 if f & FLAG_MEM else 0 for f in range(256))
FLAG_COND_BRANCH_TABLE = bytes(1 if f & FLAG_COND_BRANCH else 0
                               for f in range(256))
#: The branch outcome each flag byte records, as a bool.
FLAG_TAKEN_TABLE = tuple(bool(f & FLAG_TAKEN) for f in range(256))

#: Records per entry of :meth:`Trace.mem_rank`'s table of cumulative
#: memory-record counts: one call scans at most this many flag bytes
#: less one.
MEM_RANK_BLOCK = 4096


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

    __slots__ = ("pcs", "flags", "mem_addrs", "_mem_ranks",
                 "skip_checkpoint", "end_checkpoint", "captured_skip",
                 "mem_seed", "checkpoint_interval", "interval_checkpoints")

    def __init__(self, pcs: array, flags: bytearray, mem_addrs: array,
                 skip_checkpoint: Optional[ArchCheckpoint],
                 end_checkpoint: ArchCheckpoint,
                 captured_skip: int, mem_seed: int,
                 checkpoint_interval: int = 0,
                 interval_checkpoints: Tuple[ArchCheckpoint, ...] = ()):
        self.pcs = pcs
        self.flags = flags
        #: One address per memory record, in stream order.
        self.mem_addrs = mem_addrs
        #: ``_mem_ranks[k]``: memory records among the first
        #: ``k * MEM_RANK_BLOCK`` records.
        self._mem_ranks = ranks = [0]
        for base in range(MEM_RANK_BLOCK, len(flags) + 1, MEM_RANK_BLOCK):
            ranks.append(ranks[-1] + flags[base - MEM_RANK_BLOCK:base]
                         .translate(FLAG_MEM_TABLE).count(1))
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

    def mem_rank(self, seq: int) -> int:
        """Memory records before record ``seq`` (``0 <= seq <= len``):
        the index in :attr:`mem_addrs` of the first memory record at or
        after ``seq``."""
        block = seq // MEM_RANK_BLOCK
        base = block * MEM_RANK_BLOCK
        return self._mem_ranks[block] + self.flags[base:seq].translate(
            FLAG_MEM_TABLE).count(1)

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
        """In-memory size of the record arrays."""
        return (self.pcs.itemsize * len(self.pcs) + len(self.flags)
                + self.mem_addrs.itemsize * len(self.mem_addrs))


#: The payload fields holding the record arrays, in checksum order.
_ARRAYS = ("pcs", "flags", "mem_addrs")


def _checksum(*arrays: bytes) -> str:
    h = hashlib.sha256()
    for chunk in arrays:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def encode_trace(trace: Trace) -> dict:
    """Render ``trace`` as a picklable, self-checking payload dict."""
    pcs = trace.pcs.tobytes()
    flags = bytes(trace.flags)
    mem_addrs = trace.mem_addrs.tobytes()
    return {
        "format": TRACE_FORMAT_VERSION,
        "count": len(trace),
        "captured_skip": trace.captured_skip,
        "mem_seed": trace.mem_seed,
        "pcs": pcs,
        "flags": flags,
        "mem_addrs": mem_addrs,
        "checksum": _checksum(pcs, flags, mem_addrs),
        "skip_checkpoint": trace.skip_checkpoint,
        "end_checkpoint": trace.end_checkpoint,
        "checkpoint_interval": trace.checkpoint_interval,
        "interval_checkpoints": tuple(trace.interval_checkpoints),
    }


def decode_trace(payload: dict) -> Trace:
    """Validate and decode a payload produced by :func:`encode_trace`.

    Raises :class:`TraceFormatError` on any inconsistency -- unknown
    version, checksum mismatch (truncation/corruption), array lengths
    that disagree with the recorded count, or an address count that
    disagrees with the memory flags.
    """
    if not isinstance(payload, dict):
        raise TraceFormatError("trace payload is not a mapping")
    if payload.get("format") != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"trace format version {payload.get('format')!r} != "
            f"{TRACE_FORMAT_VERSION}")
    try:
        count = payload["count"]
        raw = tuple(payload[k] for k in _ARRAYS)
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
    flags = bytearray(raw[1])
    mem_addrs = array("Q")
    mem_addrs.frombytes(raw[2])
    if not len(pcs) == len(flags) == count:
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
    trace = Trace(pcs, flags, mem_addrs, skip_ckpt, end_ckpt,
                  captured_skip, mem_seed, interval, interval_ckpts)
    mem_records = trace.mem_rank(count)
    if mem_records != len(mem_addrs):
        raise TraceFormatError(
            f"trace holds {len(mem_addrs)} addresses for {mem_records} "
            f"memory records")
    return trace


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
            "payload_bytes": sum(len(payload[k]) for k in _ARRAYS),
        }
    except (KeyError, AttributeError) as exc:
        raise TraceFormatError(f"trace payload lacks field {exc}") from exc
