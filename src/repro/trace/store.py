"""Content-addressed stores for traces and warmup checkpoints.

Two kinds of state let a config sweep avoid redundant per-config work:

* **Traces** (:mod:`repro.trace.format`): the committed dynamic stream of
  one (program, ``mem_seed``) pair, captured once and replayed by every
  configuration.  Keyed by the *content* of the program (instructions,
  warm regions) plus the memory seed and the trace format version, so
  equal programs built independently share one capture.
* **Warm-component checkpoints**: pickled snapshots of the
  microarchitectural state that warmup training produces.  Warmup trains
  two independent groups -- the memory hierarchy, and the front-end
  predictor complex (direction predictor + BTB + PUBS slice tracker,
  which are coupled because slice-tracker training consumes each
  prediction outcome) -- so each group is checkpointed separately, keyed
  by the trace, the skip length and *only the configuration fields that
  shape its state*.  A sweep over, say, PUBS priority-entry counts then
  restores every warm component instead of re-training any of them
  (priority entries steer dispatch, not warmup training).

Both stores persist through :class:`~repro.exec.cache.ResultCache`
namespaces under the shared cache root (``REPRO_CACHE_DIR``), inheriting
its robustness rules: corrupt or stale entries are invalidated and
re-recorded, never crash, and ``REPRO_CACHE=0`` degrades to in-process
memoization only.
"""

from __future__ import annotations

import os
import pickle
import time
import weakref
from typing import Any, Dict, Optional, Tuple

from ..exec.cache import ResultCache, cache_enabled_by_env, default_cache_dir
from ..exec.serialize import fingerprint
from ..isa.instruction import Program
from .capture import adopt_skip_checkpoint, capture_trace, extend_trace
from .format import (
    TRACE_FORMAT_VERSION,
    Trace,
    TraceFormatError,
    decode_trace,
    encode_trace,
    trace_metadata,
)

#: Fetch runs ahead of commit by at most the in-flight window (ROB +
#: front-end buffer + one fetch group); captures are padded by this many
#: records -- far beyond any Table IV machine -- and rounded up to it, so
#: every configuration of a sweep addresses the *same* capture.
REPLAY_MARGIN = 4096

#: Cross-process capture claim: how long a non-claiming process waits for
#: the claim holder to publish before recording redundantly anyway, and
#: how often it polls the cache while waiting.  A claim file older than
#: the timeout is presumed orphaned (claim holder died) and is removed.
CLAIM_TIMEOUT = 120.0
CLAIM_POLL = 0.02


#: Per-program fingerprint memo, keyed by ``mem_seed`` (weak so programs
#: are not kept alive by it).
_FINGERPRINTS: "weakref.WeakKeyDictionary[Program, Dict[int, str]]" \
    = weakref.WeakKeyDictionary()


def program_fingerprint(program: Program, mem_seed: int) -> str:
    """Content hash identifying ``program``'s dynamic stream.

    Memoized per ``(program, mem_seed)``: canonicalizing every static
    instruction costs about half a millisecond, and each replay run
    needs the key three times (trace, memory and front-end warm state).
    A program's instructions and warm regions must not change once it
    has been fingerprinted, or the memo goes stale.
    """
    memo = _FINGERPRINTS.get(program)
    if memo is None:
        memo = _FINGERPRINTS[program] = {}
    key = memo.get(mem_seed)
    if key is None:
        key = memo[mem_seed] = fingerprint({
            "kind": "trace",
            "format": TRACE_FORMAT_VERSION,
            "insts": list(program.insts),
            "warm_regions": [list(r) for r in program.warm_regions],
            "mem_seed": mem_seed,
        })
    return key


class TraceStore:
    """Acquire-or-record front end over the trace and warm caches."""

    def __init__(self, root: "Optional[str | os.PathLike]" = None,
                 persistent: Optional[bool] = None):
        if persistent is None:
            persistent = cache_enabled_by_env()
        self.root = root if root is not None else default_cache_dir()
        self._traces: Optional[ResultCache] = (
            ResultCache.for_namespace("traces", self.root) if persistent
            else None)
        self._warm: Optional[ResultCache] = (
            ResultCache.for_namespace("warm", self.root) if persistent
            else None)
        #: In-process memos; the decoded trace is shared by every config
        #: of a sweep, warm blobs stay pickled so each run restores fresh
        #: (mutable) objects.
        self._trace_memo: Dict[str, Trace] = {}
        self._warm_memo: Dict[str, bytes] = {}
        self.captures = 0
        self.extensions = 0
        self.warm_restores = 0
        self.warm_trainings = 0

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------

    def _load_trace(self, key: str, refresh: bool = False
                    ) -> Optional[Trace]:
        # ``refresh`` re-reads what another process may have published;
        # a memory-only store has no such source -- its memo *is* its
        # storage, so a longer need extends the memoized trace instead
        # of re-recording it from the start.
        if not refresh or self._traces is None:
            trace = self._trace_memo.get(key)
            if trace is not None:
                return trace
        if self._traces is None:
            return None
        payload = self._traces.get(key)
        if payload is None:
            return None
        try:
            trace = decode_trace(payload)
        except TraceFormatError:
            # Corrupt/stale entry: drop it and let the caller re-record.
            self._traces.stats.invalidations += 1
            try:
                self._traces._path(key).unlink()
            except OSError:
                pass
            return None
        self._trace_memo[key] = trace
        return trace

    def _store_trace(self, key: str, trace: Trace) -> bool:
        """Publish ``trace``; True when it landed on persistent disk.

        A memory-only store always "lands" (the memo *is* its storage);
        a persistent store reports whether the write actually succeeded,
        so the capture/extension counters reflect on-disk reality.
        """
        self._trace_memo[key] = trace
        if self._traces is None:
            return True
        before = self._traces.stats.stores
        self._traces.put(key, encode_trace(trace))
        return self._traces.stats.stores > before

    # -- cross-process capture claim -----------------------------------

    def _claim_path(self, key: str) -> "os.PathLike":
        return self._traces.directory / (key + ".claim")

    def _try_claim(self, key: str) -> bool:
        """Atomically claim the right to record ``key`` (O_EXCL create)."""
        try:
            fd = os.open(self._claim_path(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # Unwritable directory: no coordination possible; record
            # uncoordinated (os.replace still keeps entries untorn).
            return True
        os.close(fd)
        return True

    def _release_claim(self, key: str) -> None:
        try:
            os.unlink(self._claim_path(key))
        except OSError:
            pass

    def _break_stale_claim(self, key: str) -> None:
        """Remove a claim file whose holder evidently died."""
        try:
            age = time.time() - os.stat(self._claim_path(key)).st_mtime
            if age > CLAIM_TIMEOUT:
                os.unlink(self._claim_path(key))
        except OSError:
            pass

    def _produce(self, key: str, program: Program, mem_seed: int,
                 needed: int, skip_hint: int,
                 checkpoint_interval: Optional[int]) -> Trace:
        """Capture or extend so the entry covers ``needed`` records."""
        kwargs = {}
        if checkpoint_interval is not None:
            kwargs["checkpoint_interval"] = checkpoint_interval
        trace = self._load_trace(key, refresh=True)
        if trace is not None and checkpoint_interval is not None \
                and trace.checkpoint_interval != checkpoint_interval:
            trace = None  # caller wants a different cadence: re-record
        if trace is None:
            trace = capture_trace(program, mem_seed, needed,
                                  skip=skip_hint, **kwargs)
            if self._store_trace(key, trace):
                self.captures += 1
            return trace
        grown = extend_trace(trace, program, max(needed, len(trace)),
                             skip_hint=skip_hint)
        if grown is not trace:
            # Count an extension only when records actually grew -- a
            # pure skip-checkpoint adoption rewrites metadata, not stream.
            if self._store_trace(key, grown) and len(grown) > len(trace):
                self.extensions += 1
        return grown

    def acquire(self, program: Program, mem_seed: int, min_records: int,
                skip_hint: int = 0,
                checkpoint_interval: Optional[int] = None) -> Trace:
        """The trace for ``program``, recording or extending as needed.

        The returned trace covers at least ``min_records`` records
        (rounded up to the :data:`REPLAY_MARGIN` granularity so differing
        per-config margins still share one capture).  ``skip_hint``
        positions the warmup checkpoint: live-snapshotted on a fresh
        capture, threaded through :func:`~repro.trace.capture.extend_trace`
        on the extension path, or adopted from an exactly-aligned interval
        checkpoint; when none of those apply the replay warm-training
        path (which reads the record arrays, not checkpoints) still works.
        ``checkpoint_interval`` pins the interval-checkpoint cadence
        (None accepts whatever the stored trace has, defaulting new
        captures to :data:`~repro.trace.format.DEFAULT_CHECKPOINT_INTERVAL`).

        Concurrent processes coordinate through an ``O_EXCL`` claim file:
        one records while the rest poll for the published entry, so a
        parallel sweep over one workload captures its trace exactly once.
        """
        key = program_fingerprint(program, mem_seed)
        needed = -(-min_records // REPLAY_MARGIN) * REPLAY_MARGIN

        def _covers(trace: Optional[Trace]) -> bool:
            if trace is None or len(trace) < min_records:
                return False
            if (checkpoint_interval is not None
                    and trace.checkpoint_interval != checkpoint_interval):
                return False
            if skip_hint and trace.skip_checkpoint is None:
                # An exactly-aligned snapshot satisfies the hint for
                # free; otherwise the trace still covers -- replay's
                # warm training reads the record arrays directly and
                # needs no architectural skip checkpoint (the tested
                # fallback for traces first recorded with skip=0).
                adopted = adopt_skip_checkpoint(trace, skip_hint)
                if adopted is not trace:
                    self._store_trace(key, adopted)
            return True

        trace = self._load_trace(key)
        if _covers(trace):
            return self._trace_memo[key]
        if self._traces is None:
            return self._produce(key, program, mem_seed, needed, skip_hint,
                                 checkpoint_interval)
        deadline = time.monotonic() + CLAIM_TIMEOUT
        while True:
            if self._try_claim(key):
                try:
                    return self._produce(key, program, mem_seed, needed,
                                         skip_hint, checkpoint_interval)
                finally:
                    self._release_claim(key)
            trace = self._load_trace(key, refresh=True)
            if _covers(trace):
                return self._trace_memo[key]
            if time.monotonic() > deadline:
                # Claim holder is stuck or gone: record redundantly
                # (safe -- os.replace publishes whole entries) rather
                # than deadlock, and clear the orphaned claim.
                self._break_stale_claim(key)
                return self._produce(key, program, mem_seed, needed,
                                     skip_hint, checkpoint_interval)
            self._break_stale_claim(key)
            time.sleep(CLAIM_POLL)

    def describe(self, program: Program, mem_seed: int) -> Optional[dict]:
        """Metadata about the stored trace, or None when absent.

        Reads checkpoint positions and sizes from the payload *without*
        materializing the record arrays (:func:`trace_metadata`) -- a
        metadata query must not pay the decode cost of a multi-megabyte
        trace.  An already-memoized decoded trace is summarized directly.
        """
        key = program_fingerprint(program, mem_seed)
        trace = self._trace_memo.get(key)
        if trace is not None:
            return {
                "key": key,
                "records": len(trace),
                "captured_skip": trace.captured_skip,
                "payload_bytes": trace.payload_bytes(),
                "checkpoint_interval": trace.checkpoint_interval,
                "skip_checkpoint_seq": (trace.skip_checkpoint.seq
                                        if trace.skip_checkpoint else None),
                "end_checkpoint_seq": trace.end_checkpoint.seq,
                "interval_checkpoint_seqs": tuple(
                    ckpt.seq for ckpt in trace.interval_checkpoints),
                "mem_seed": trace.mem_seed,
            }
        if self._traces is None:
            return None
        payload = self._traces.get(key)
        if payload is None:
            return None
        try:
            meta = trace_metadata(payload)
        except TraceFormatError:
            return None  # read-only query: report absent, do not unlink
        meta["key"] = key
        return meta

    # ------------------------------------------------------------------
    # Warm-component checkpoints
    # ------------------------------------------------------------------

    def warm_key(self, trace_key_program: Program, mem_seed: int, skip: int,
                 component: str, relevant_config: Any) -> str:
        """Content key for one warm component's post-skip state."""
        return fingerprint({
            "kind": "warm",
            "trace": program_fingerprint(trace_key_program, mem_seed),
            "skip": skip,
            "component": component,
            "config": relevant_config,
        })

    def get_warm(self, key: str) -> Optional[Tuple[Any, ...]]:
        """Restore one warm component: fresh objects on every call."""
        blob = self._warm_memo.get(key)
        if blob is None and self._warm is not None:
            blob = self._warm.get(key)
            if blob is not None and not isinstance(blob, bytes):
                blob = None  # malformed entry; treat as a miss
            if blob is not None:
                self._warm_memo[key] = blob
        if blob is None:
            return None
        try:
            objects = pickle.loads(blob)
        except Exception:
            self._warm_memo.pop(key, None)
            return None
        self.warm_restores += 1
        return objects

    def put_warm(self, key: str, objects: Tuple[Any, ...]) -> None:
        """Snapshot one warm component's freshly-trained state."""
        blob = pickle.dumps(objects, protocol=pickle.HIGHEST_PROTOCOL)
        self._warm_memo[key] = blob
        if self._warm is not None:
            self._warm.put(key, blob)
        self.warm_trainings += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> str:
        return (f"captures={self.captures} extensions={self.extensions} "
                f"warm_restores={self.warm_restores} "
                f"warm_trainings={self.warm_trainings}")


#: Shared stores, one per cache root (``REPRO_CACHE_DIR`` is re-read on
#: every resolution so tests and benches can redirect it).
_STORES: Dict[Tuple[str, bool], TraceStore] = {}


def shared_store() -> TraceStore:
    """The process-wide store for the environment-selected cache root."""
    key = (str(default_cache_dir()), cache_enabled_by_env())
    store = _STORES.get(key)
    if store is None:
        store = _STORES[key] = TraceStore()
    return store


def reset_shared_stores() -> None:
    """Drop all shared stores (tests/benches that redirect the root)."""
    _STORES.clear()
