"""Canonical serialization and content hashing for simulation inputs.

The persistent result cache and the sweep executor's job deduplication both
need a *stable identity* for "the same simulation": two
:class:`~repro.core.config.ProcessorConfig` objects built independently with
equal fields must produce the same key, and any field change anywhere in the
nested configuration (FU pool, predictor geometry, cache hierarchy, PUBS
knobs, workload profile, budget) must produce a different key.

Identity is the SHA-256 hex digest of a canonical JSON rendering: dataclasses
serialize as ``{"<qualified class name>": {field: value, ...}}`` with fields
in declaration order, enums as their name, and mappings with sorted keys.
Hashing the *content* rather than the object (the old
``benchmarks/common.py`` keyed a dict on the config object itself) makes keys
stable across processes and sessions -- the property the on-disk cache needs.

``CACHE_SCHEMA_VERSION`` is folded into every job fingerprint.  Bump it
whenever the timing model changes behaviour (even bit-identical refactors
are safe to leave alone): every previously cached result is then invalidated
by construction, because no new key can collide with an old one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

#: Version of (timing model semantics x result layout) baked into every key.
#: Bump on any change that alters simulation results or SimulationResult's
#: shape; stale on-disk entries then simply stop being found.
#: v2: SimulationResult grew verification fields (verify_level,
#: verified_commits, invariant_sweeps) and ProcessorConfig grew the
#: verify_level/verify_interval knobs -- verified and unverified runs now
#: hash to distinct keys by construction.
#: v3: ProcessorConfig grew the frontend_mode knob (trace replay) and
#: SimulationResult grew frontend_mode -- live and replay runs hash to
#: distinct keys even though their stats are bit-identical, so a cache
#: hit always tells the truth about how the result was produced.
#: v4: ProcessorConfig grew replay_region (sampled region replay) and the
#: trace format gained interval checkpoints (v2) -- a sampled region is an
#: ordinary job whose key differs from the full run's, and every region of
#: a sampling plan caches independently.
#: v5: ProcessorConfig grew the smt interference knobs and SimStats grew
#: the stall-cause split, l1i_misses and smt_injections counters -- old
#: cached results lack the new fields, so every key rolls over.
#: v6: SimStats grew the td_* topdown slot buckets and the per-cause stall
#: counters became disjoint (priority stalls no longer double-count into
#: iq_full_stall_cycles) -- cached v5 stats would fail the new
#: topdown-cycle-accounting invariant, so every key rolls over.
#: v7: trace replay became the only timed front end -- ProcessorConfig
#: and SimulationResult lost frontend_mode, so every key rolls over.
#: v8: the SMT co-runner is gone -- ProcessorConfig lost its smt block
#: and SimStats its smt_injections counter, so every key rolls over.
CACHE_SCHEMA_VERSION = 8


def canonicalize(obj: Any) -> Any:
    """Render ``obj`` as a JSON-serializable canonical structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__qualname__}.{obj.name}"}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonicalize(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {type(obj).__qualname__: fields}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items())}
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for cache hashing")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"))


def fingerprint(obj: Any) -> str:
    """SHA-256 content hash of ``obj``'s canonical rendering."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def config_fingerprint(config: Any) -> str:
    """Content hash of a processor configuration (equal configs == equal)."""
    return fingerprint(config)
