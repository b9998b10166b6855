"""The trace-replay front end: feeds the pipeline from a recorded trace.

:class:`TraceReplayFrontEnd` is a drop-in replacement for
:class:`~repro.isa.executor.TraceCursor`: the pipeline's fetch stage asks
for correct-path records by dynamic sequence number (rewinding after
mispredictions), and commit advances a low-water mark through
:meth:`release`.  Instead of stepping a live functional executor, records
are decoded from the trace's typed arrays by :class:`ReplayWindow`, the
chunked materializer this front end shares with the batched replay path
(:mod:`repro.batch`): a numpy structure-of-arrays pass per chunk, with no
architectural execution on the hot path.

Wrong-path fetch is *not* served here: the pipeline keeps walking the
static code itself, exactly as in live mode, because wrong-path behaviour
depends on the machine configuration (predictor state, BTB contents) and
therefore cannot be part of a config-independent trace.
"""

from __future__ import annotations

import weakref
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

#: Program-keyed static-decode tables, shared by every front end replaying
#: the same program (weak so programs are not kept alive by the memo).
_DECODE_TABLES: "weakref.WeakKeyDictionary[Program, Tuple[StaticInst, ...]]" \
    = weakref.WeakKeyDictionary()


def static_decode_table(program: Program) -> Tuple[StaticInst, ...]:
    """PC-indexed decode table: ``table[pc // INST_BYTES]`` is the inst.

    Resolving a record's static instruction through a dense tuple index
    is cheaper than the ``program.at`` dict lookup and method call.
    Program PCs are dense multiples of ``INST_BYTES`` starting at 0, so
    the program's own instruction list *is* the table.
    """
    table = _DECODE_TABLES.get(program)
    if table is None:
        table = tuple(program.insts)
        _DECODE_TABLES[program] = table
    return table


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
    fetch-ahead margin; it exists so an undersized hand-built trace fails
    loudly instead of silently desynchronizing the simulation.
    """


class ReplayWindow:
    """Records of one trace from ``base`` on, decoded in chunks on demand.

    ``end`` is the sequence number the run commits up to (None: the
    whole trace).  Below it every record will be fetched, so records are
    decoded :data:`CHUNK` at a time; past it only the fetch-ahead of the
    last in-flight instructions reads, so decoding proceeds :data:`TAIL`
    records at a time.  A run therefore never decodes more than ``TAIL``
    records past the furthest one it fetches, and never past the need it
    acquired its trace for (``end`` plus the fetch-ahead margin).
    """

    def __init__(self, trace: Trace, program: Program, base: int = 0,
                 end: Optional[int] = None):
        self._trace = trace
        self._decode = static_decode_table(program)
        self._records: List[DynamicOp] = []
        self._base = base  # seq number of _records[0]
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
        off = seq - self._base
        if off < 0:
            raise IndexError(
                f"record {seq} is before the window base ({self._base})")
        records = self._records
        if off >= len(records):
            self._decode_through(seq)
        return records[off]


class TraceReplayFrontEnd(ReplayWindow):
    """Cursor-compatible window over a recorded trace.

    Mirrors :class:`~repro.isa.executor.TraceCursor`: random access below
    the low-water mark :meth:`release` advances is an error, and records
    below it are freed (in amortized batches: once they are at least
    half the buffer), bounding memory to the in-flight window plus the
    decoded chunk ahead of it.
    """

    def __init__(self, trace: Trace, program: Program,
                 end: Optional[int] = None):
        super().__init__(trace, program, 0, end)
        self._low = 0  # release mark
        self._fetched = 0  # just past the highest record handed out

    def attach(self, trace: Trace, end: Optional[int] = None) -> None:
        """Swap in an extended trace (a superset of the current one) and,
        when given, the resumed run's window end."""
        if len(trace) < len(self._trace):
            raise ValueError("an attached trace must extend the current one")
        self._trace = trace
        if end is not None:
            self.end = end

    @property
    def high(self) -> int:
        """Sequence number just past the highest record fetched.

        The replay analogue of the live executor's position, which is
        what a resumed run's warmup starts from -- *not* how far the
        chunked decoder has run ahead.  A release past every fetched
        record moves it to the release mark, as in live mode.
        """
        return max(self._low, self._fetched)

    def get(self, seq: int) -> DynamicOp:
        """The trace record with dynamic sequence number ``seq``."""
        if seq < self._low:
            raise IndexError(
                f"trace record {seq} already released (base={self._low})")
        if seq >= self._fetched:
            self._fetched = seq + 1
        records = self._records
        off = seq - self._base
        if off >= len(records):
            self._decode_through(seq)
        return records[off]

    def release(self, seq: int) -> None:
        """Discard records with sequence numbers below ``seq``.

        As with the live cursor, ``seq`` may run ahead of what has been
        decoded (the warmup fast-forward skips whole prefixes); decoding
        then resumes from the new mark.
        """
        if seq <= self._low:
            return
        self._low = seq
        records = self._records
        drop = seq - self._base
        if drop >= len(records):
            records.clear()
            self._base = seq
        elif 2 * drop >= len(records):
            del records[:drop]
            self._base = seq

    @property
    def retained(self) -> int:
        """Number of records currently buffered (for tests)."""
        return len(self._records)
