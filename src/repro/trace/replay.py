"""The trace-replay front end: feeds the pipeline from a recorded trace.

:class:`ReplayWindow` is the pipeline's correct-path supply and its only
trace cursor: the fetch stage asks for records by dynamic sequence number
(rewinding after mispredictions), and commit advances a low-water mark
through :meth:`~ReplayWindow.release`.  Records are decoded from the
trace's typed arrays chunk by chunk (a numpy structure-of-arrays pass
per chunk, with no architectural execution on the hot path), and the
members of a batch (:mod:`repro.batch`) share one window, so each record
is decoded once per batch.

Wrong-path fetch is *not* served here: the pipeline keeps walking the
static code itself, because wrong-path behaviour
depends on the machine configuration (predictor state, BTB contents) and
therefore cannot be part of a config-independent trace.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.executor import DynamicOp
from ..isa.instruction import INST_BYTES, Program, StaticInst
from .format import FLAG_MEM, FLAG_TAKEN, Trace

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a baked-in dependency
    _np = None

#: Records decoded per chunk inside a run's committed window.  Large
#: enough to amortize the numpy column extraction.
CHUNK = 4096

#: Records decoded per chunk past the window's end, where only the
#: fetch-ahead of the last in-flight instructions reads: small, so a run
#: never decodes far past what it fetches.
TAIL = 64


def decode_records(trace: Trace, decode: Tuple[StaticInst, ...],
                   lo: int, hi: int) -> List[DynamicOp]:
    """Materialize trace records ``[lo, hi)`` as :class:`DynamicOp`.

    Structure-of-arrays in, array-of-objects out: numpy turns the typed
    columns (pcs, flags, next_pcs, mem_addrs) into Python-level lists in
    one pass each, and ``map`` builds the records without a Python loop.
    """
    if _np is None:
        flags, pcs, next_pcs, mem_addrs = (trace.flags, trace.pcs,
                                           trace.next_pcs, trace.mem_addrs)
        return [DynamicOp(seq, decode[pcs[seq] // INST_BYTES],
                          bool(flags[seq] & FLAG_TAKEN), next_pcs[seq],
                          mem_addrs[seq] if flags[seq] & FLAG_MEM else None)
                for seq in range(lo, hi)]
    f = _np.frombuffer(trace.flags, dtype=_np.uint8)[lo:hi]
    idx = (_np.frombuffer(trace.pcs, dtype=_np.uint32)[lo:hi]
           // INST_BYTES).tolist()
    addrs = _np.frombuffer(trace.mem_addrs, dtype=_np.uint64)[lo:hi] \
        .astype(object)
    addrs[(f & FLAG_MEM) == 0] = None
    return list(map(DynamicOp, range(lo, hi), map(decode.__getitem__, idx),
                    ((f & FLAG_TAKEN) != 0).tolist(),
                    _np.frombuffer(trace.next_pcs, dtype=_np.uint32)[lo:hi]
                    .tolist(),
                    addrs.tolist()))


class TraceExhaustedError(RuntimeError):
    """The pipeline requested a record beyond the captured stream.

    Should never fire when the trace was acquired through
    :meth:`repro.trace.store.TraceStore.acquire` with the pipeline's
    fetch reach (:func:`~repro.core.pipeline.replay_reach`); it exists
    so an undersized hand-built trace fails loudly instead of silently
    desynchronizing the simulation.
    """


class ReplayWindow:
    """The pipeline's trace cursor: records of one trace from ``base`` on.

    Fetch asks for records by dynamic sequence number (rewinding after
    mispredictions); commit advances a low-water mark through
    :meth:`release`, and asking for a record below it is an error.

    ``end`` is the sequence number the run commits up to (None: the
    whole trace).  Below it every record will be fetched, so records are
    decoded :data:`CHUNK` at a time; past it only the fetch-ahead of the
    last in-flight instructions reads, so decoding proceeds :data:`TAIL`
    records at a time.  A run therefore never decodes more than ``TAIL``
    records past the furthest one it fetches, and never past the need it
    acquired its trace for (``end`` plus the machine's fetch reach).

    ``readers`` runs replay the window one after another, each starting
    at :meth:`seat` -- the members of a batch
    (:func:`repro.batch.run_batch`), so each record is decoded once per
    batch.  While a later reader will re-read them, released records
    stay buffered; once the last (or only) reader is seated they are
    freed in amortized batches (once they are at least half the buffer),
    bounding memory to the in-flight window plus the decoded chunk ahead
    of it.
    """

    def __init__(self, trace: Trace, program: Program, base: int = 0,
                 end: Optional[int] = None, readers: int = 1):
        self._trace = trace
        # The instruction at pc is program.insts[pc // INST_BYTES].
        self._decode = program.insts
        self._records: List[DynamicOp] = []
        self._base = base  # seq number of _records[0]
        self._low = base  # release mark
        self._readers = readers  # readers not yet seated
        self.end = len(trace) if end is None else end

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def base(self) -> int:
        return self._base

    @property
    def decoded(self) -> int:
        """Sequence number just past the highest decoded record."""
        return self._base + len(self._records)

    @property
    def retained(self) -> int:
        """Number of records currently buffered."""
        return len(self._records)

    def _decode_through(self, seq: int) -> None:
        """Extend the decoded records (in place) to cover ``seq``."""
        n = len(self._trace)
        if seq >= n:
            raise TraceExhaustedError(
                f"trace exhausted at record {seq} "
                f"(captured {n}); acquire a longer trace")
        lo = self.decoded
        hi = min(lo + CHUNK, self.end) if lo < self.end else lo + TAIL
        self._records.extend(decode_records(
            self._trace, self._decode, lo, min(max(hi, seq + 1), n)))

    def get(self, seq: int) -> DynamicOp:
        """The trace record with dynamic sequence number ``seq``."""
        if seq < self._low:
            raise IndexError(
                f"trace record {seq} already released (mark {self._low})")
        records = self._records
        off = seq - self._base
        if off >= len(records):
            self._decode_through(seq)
        return records[off]

    def seat(self, seq: int) -> None:
        """Start the next reader: its first record is ``seq``."""
        if seq < self._base:
            raise IndexError(
                f"record {seq} is before the window base ({self._base})")
        self._readers -= 1
        self._low = self._base
        self.release(seq)

    def release(self, seq: int) -> None:
        """Move the low-water mark up to ``seq``.

        ``seq`` may run ahead of what has been decoded (a seat past the
        base skips whole prefixes); decoding then resumes from the mark.
        """
        if seq <= self._low:
            return
        self._low = seq
        if self._readers > 0:
            return  # a later reader re-reads these records
        records = self._records
        drop = seq - self._base
        if drop >= len(records):
            records.clear()
            self._base = seq
        elif 2 * drop >= len(records):
            del records[:drop]
            self._base = seq
