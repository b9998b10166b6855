"""Versioned JSON wire codec for run requests, jobs and fabric payloads.

The distributed sweep fabric moves two kinds of values between
processes that do not share memory: queue payloads (``SimJob`` units a
``repro worker`` leases) and the CLI's ``--request-file`` input
(a ``RunRequest``).  Both share one canonical serialization,
defined here, so a request round-trips bit-identically no matter which
transport carried it.

The codec is the reversible sibling of :func:`repro.exec.serialize.
canonicalize` (which is hash-oriented and one-way): dataclasses encode
as ``{"__dc__": "<module>:<qualname>", "fields": {...}}``, enums as
``{"__enum__": "<module>:<qualname>.<member>"}``, and tuples keep their
identity via ``{"__tuple__": [...]}`` so frozen dataclasses compare
equal after a round trip.  Decoding only ever imports modules inside
the ``repro`` package and only instantiates dataclasses/enums found
there -- a wire payload cannot name arbitrary callables the way a
pickle can, which is what makes the queue directory safe to share
between mutually untrusting hosts.

Every top-level payload travels in an envelope ``{"wire": <version>,
"kind": <payload kind>, "payload": ...}``.  ``WIRE_SCHEMA_VERSION``
bumps whenever the encoding itself changes shape; payload *content*
changes (new config fields) are already covered by dataclass field
defaults on decode being absent -- unknown fields raise, missing fields
fall back to the dataclass defaults, so old clients fail loudly and new
fields stay optional.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json
from typing import Any, Optional

#: Version of the wire encoding (envelope + marker scheme).  Distinct
#: from ``CACHE_SCHEMA_VERSION``: the cache version tracks *simulation
#: semantics*, this tracks the *serialization format* peers must agree
#: on before they can talk at all.
WIRE_SCHEMA_VERSION = 1

#: Only modules under this package may be imported while decoding.
_TRUSTED_PREFIX = "repro"

_DC_MARK = "__dc__"
_ENUM_MARK = "__enum__"
_TUPLE_MARK = "__tuple__"
_MARKS = (_DC_MARK, _ENUM_MARK, _TUPLE_MARK)


class WireError(ValueError):
    """A payload that cannot be encoded or decoded under this schema."""


def wire_encode(obj: Any) -> Any:
    """Render ``obj`` as a JSON-serializable, reversible structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        cls = type(obj)
        return {_ENUM_MARK: f"{cls.__module__}:{cls.__qualname__}.{obj.name}"}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        fields = {f.name: wire_encode(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {_DC_MARK: f"{cls.__module__}:{cls.__qualname__}",
                "fields": fields}
    if isinstance(obj, tuple):
        return {_TUPLE_MARK: [wire_encode(item) for item in obj]}
    if isinstance(obj, list):
        return [wire_encode(item) for item in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise WireError(
                    f"wire mappings need string keys, got {type(key).__name__}")
            if key in _MARKS or key == "fields":
                raise WireError(f"reserved mapping key on the wire: {key!r}")
            out[key] = wire_encode(value)
        return out
    raise WireError(f"cannot wire-encode {type(obj).__name__!r}")


def _resolve(path: str) -> Any:
    """Import ``module:QualName`` restricted to the repro package."""
    module_name, _, qualname = path.partition(":")
    if not qualname:
        raise WireError(f"malformed wire type reference: {path!r}")
    if module_name.partition(".")[0] != _TRUSTED_PREFIX:
        raise WireError(
            f"wire payloads may only reference {_TRUSTED_PREFIX}.* types, "
            f"got {path!r}")
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise WireError(f"unknown wire type {path!r}: {exc}") from None
    return target


def wire_decode(data: Any) -> Any:
    """Reconstruct the value :func:`wire_encode` rendered as ``data``."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [wire_decode(item) for item in data]
    if isinstance(data, dict):
        if _ENUM_MARK in data:
            path, _, member = data[_ENUM_MARK].rpartition(".")
            target = _resolve(path)
            if not isinstance(target, enum.EnumMeta):
                raise WireError(f"{path!r} is not an enum")
            try:
                return target[member]
            except KeyError:
                raise WireError(
                    f"unknown enum member {member!r} of {path!r}") from None
        if _TUPLE_MARK in data:
            return tuple(wire_decode(item) for item in data[_TUPLE_MARK])
        if _DC_MARK in data:
            cls = _resolve(data[_DC_MARK])
            if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)):
                raise WireError(f"{data[_DC_MARK]!r} is not a dataclass")
            fields = data.get("fields", {})
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = set(fields) - known
            if unknown:
                raise WireError(
                    f"unknown field(s) for {cls.__qualname__}: "
                    f"{', '.join(sorted(unknown))}")
            try:
                return cls(**{name: wire_decode(value)
                              for name, value in fields.items()})
            except (TypeError, ValueError) as exc:
                raise WireError(
                    f"invalid {cls.__qualname__} payload: {exc}") from None
        return {key: wire_decode(value) for key, value in data.items()}
    raise WireError(f"cannot wire-decode {type(data).__name__!r}")


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------

def envelope(kind: str, payload: Any) -> dict:
    """Wrap an encoded payload with the schema version and its kind."""
    return {"wire": WIRE_SCHEMA_VERSION, "kind": kind,
            "payload": wire_encode(payload)}


def open_envelope(data: Any, kind: Optional[str] = None) -> Any:
    """Validate an envelope and decode its payload.

    ``kind`` pins the expected payload kind; a version or kind mismatch
    raises :class:`WireError` with the peer's version in the message,
    so a skewed fabric fails with "speak version N" instead of a deep
    attribute error.
    """
    if not isinstance(data, dict) or "wire" not in data:
        raise WireError("not a wire envelope (missing 'wire' version)")
    version = data["wire"]
    if version != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"wire schema mismatch: peer speaks version {version!r}, "
            f"this side speaks {WIRE_SCHEMA_VERSION}")
    if kind is not None and data.get("kind") != kind:
        raise WireError(
            f"expected a {kind!r} payload, got {data.get('kind')!r}")
    return wire_decode(data.get("payload"))


def dumps(kind: str, payload: Any) -> str:
    """Compact one-line JSON text of an enveloped payload."""
    return json.dumps(envelope(kind, payload), sort_keys=True,
                      separators=(",", ":"))


def loads(text: str, kind: Optional[str] = None) -> Any:
    """Decode enveloped JSON ``text`` (see :func:`open_envelope`)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError(f"malformed wire JSON: {exc}") from None
    return open_envelope(data, kind)


__all__ = [
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "dumps",
    "envelope",
    "loads",
    "open_envelope",
    "wire_decode",
    "wire_encode",
]
