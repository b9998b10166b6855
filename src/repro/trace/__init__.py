"""Trace capture/replay: record the dynamic stream once, replay per config.

See DESIGN.md §9.  Public surface:

* :func:`~repro.trace.capture.capture_trace` /
  :func:`~repro.trace.capture.extend_trace` -- record the committed
  dynamic stream via one functional-execution pass;
* :class:`~repro.trace.format.Trace` / :class:`~repro.trace.format.
  ArchCheckpoint` and the encode/decode pair -- the versioned,
  checksummed on-disk format.  The pipeline's fetch stage reads the
  trace's typed arrays directly (replay is the only timed front end;
  the functional executor feeds capture and the verification oracle),
  and the members of a batch share one ``Trace``;
* :class:`~repro.trace.store.TraceStore` / :func:`~repro.trace.store.
  shared_store` -- content-addressed persistence for traces and warm
  microarchitectural checkpoints.
"""

from .capture import adopt_skip_checkpoint, capture_trace, extend_trace
from .format import (
    DEFAULT_CHECKPOINT_INTERVAL,
    TRACE_FORMAT_VERSION,
    ArchCheckpoint,
    Trace,
    TraceExhaustedError,
    TraceFormatError,
    decode_trace,
    encode_trace,
    trace_metadata,
)
from .store import (
    TraceStore,
    program_fingerprint,
    reset_shared_stores,
    shared_store,
)

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "TRACE_FORMAT_VERSION",
    "ArchCheckpoint",
    "Trace",
    "TraceFormatError",
    "TraceExhaustedError",
    "TraceStore",
    "adopt_skip_checkpoint",
    "capture_trace",
    "decode_trace",
    "encode_trace",
    "extend_trace",
    "program_fingerprint",
    "reset_shared_stores",
    "shared_store",
    "trace_metadata",
]
