"""Content-addressed segment identity: canonical JSON and ``SegmentKey``.

A segment's result is a pure function of (what code ran, against which
configuration, from which snapshot, with which payload programs, under
which derived seed, with which injected-fault schedule). This module
reduces that tuple to a single hex digest so identical segments — across
campaigns, tenants, and process restarts — share one cache entry.

Key-material discipline (statically enforced by lint rule ``RL013``):
every :class:`SegmentKey` field must come from :func:`digest_of` or
:func:`~repro.rng.derive_seed` (or be threaded through a local name that
does) — never from ambient entropy, wall clock, or pids. Anything the
result depends on that cannot be captured this way (an unserialisable
kwarg, a fault plane without a recorded seed) makes the key builders
return ``None``, which callers treat as "bypass the cache", never as
"guess a key".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.rng import derive_seed

__all__ = [
    "SegmentKey",
    "canonical_json",
    "code_version",
    "digest_of",
    "payload_key",
    "source_digest",
]

#: Segment kwargs whose *values* vary run-to-run without changing the
#: result (shared-memory snapshot names are fresh every capture). Their
#: presence is keyed; their values are not.
VOLATILE_KWARGS = ("snapshot", "snapshot_names")

#: Segment kwargs that carry payload programs; digested separately so the
#: key mirrors the issue contract (payload digest is its own component).
PAYLOAD_KWARGS = ("payload", "payloads", "program", "programs")


def canonical_json(obj: Any) -> str:
    """The one canonical rendering: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def source_digest(package_dir: Path) -> str:
    """sha256 over the relative path and bytes of every ``*.py`` under a package.

    Any edit to the simulator's sources changes it, so a cache entry is
    only ever replayed by the code that computed it.
    """
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(path.relative_to(package_dir).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@lru_cache(maxsize=None)
def code_version() -> str:
    """The salt mixed into every key: :func:`source_digest` of ``repro``.

    Computed once per process, on the first key built. Worker processes
    read the same installed files, so they derive the same salt as their
    parent; an entry written by other sources becomes a miss instead of
    a stale replay.
    """
    return source_digest(Path(__file__).resolve().parents[2])


@dataclass(frozen=True)
class SegmentKey:
    """The content address of one segment result.

    Every field is a digest or a :func:`~repro.rng.derive_seed` product;
    :meth:`digest` collapses them into the store key. ``attempt`` is
    always 0 today — the cache unit is the whole retry loop (retries
    derive their own seeds *inside* the segment computation and their
    count is part of the cached record), but the field is kept so a
    future per-attempt cache is a key change, not a contract change.
    """

    config_digest: str
    snapshot_digest: str
    payload_digest: str
    seed: int
    attempt: int
    fault_digest: str
    code_version: str = field(default_factory=code_version)

    def digest(self) -> str:
        """Hex store key: digest of the canonical JSON of all fields."""
        return digest_of(
            {
                "config": self.config_digest,
                "snapshot": self.snapshot_digest,
                "payload": self.payload_digest,
                "seed": self.seed,
                "attempt": self.attempt,
                "faults": self.fault_digest,
                "version": self.code_version,
            }
        )


def _payload_token(value: Any) -> Any:
    """JSON-able identity of one payload-program kwarg value."""
    digest = getattr(value, "digest", None)
    if callable(digest):
        return digest()
    if isinstance(value, (list, tuple)):
        return [_payload_token(item) for item in value]
    return value


def _jsonable(obj: Any) -> bool:
    try:
        canonical_json(obj)
    except (TypeError, ValueError):
        return False
    return True


def _snapshot_digest(kwargs: Mapping[str, Any]) -> str:
    """Key the *presence and shape* of snapshot kwargs, not their names.

    Warm and cold segment runs are byte-identical by the snapshot
    contract, but they are keyed apart anyway: sharing entries across
    the warm/cold boundary would make a cache hit depend on that
    contract holding forever, instead of only on this run's own inputs.
    """
    present = {key: kwargs[key] for key in VOLATILE_KWARGS if key in kwargs}
    if not present:
        return ""
    token: Dict[str, Any] = {}
    for key, value in present.items():
        if isinstance(value, Mapping):
            token[key] = sorted(str(k) for k in value)
        elif isinstance(value, (list, tuple)):
            token[key] = len(value)
        else:
            token[key] = True
    return digest_of(token)


def _split_kwargs(
    kwargs: Mapping[str, Any],
) -> Optional[Tuple[Dict[str, Any], str]]:
    """(stable config kwargs, payload digest); None if unserialisable."""
    stable: Dict[str, Any] = {}
    payload_material: Dict[str, Any] = {}
    for key in sorted(kwargs):
        if key in VOLATILE_KWARGS:
            continue
        value = kwargs[key]
        if key in PAYLOAD_KWARGS:
            payload_material[key] = _payload_token(value)
        else:
            stable[key] = value
    if not _jsonable(stable) or not _jsonable(payload_material):
        return None
    return stable, digest_of(payload_material) if payload_material else ""


def payload_key(
    payload: Mapping[str, Any], fault_digest: str
) -> Optional[SegmentKey]:
    """Key for one :func:`repro.perf.parallel.run_segment_task` payload.

    ``fault_digest`` comes from
    :func:`repro.perf.memo.runtime.ambient_fault_digest` (or a recorded
    override when the key is built in a worker). Returns ``None`` when
    the payload carries kwargs that cannot be canonically serialized —
    such segments compute uncached rather than risk a colliding key.
    """
    kwargs = payload.get("kwargs", {})
    split = _split_kwargs(kwargs)
    if split is None:
        return None
    stable_kwargs, payload_digest = split
    config_digest = digest_of(
        {
            "kind": "segment-task",
            "target": payload["target"],
            "name": payload["name"],
            "retryable": list(payload["retryable"]),
            "max_retries": payload["max_retries"],
            "kwargs": stable_kwargs,
        }
    )
    snapshot_digest = _snapshot_digest(kwargs)
    seed = derive_seed(payload["seed"], payload["index"], 0)
    attempt = 0
    return SegmentKey(
        config_digest=config_digest,
        snapshot_digest=snapshot_digest,
        payload_digest=payload_digest,
        seed=seed,
        attempt=attempt,
        fault_digest=fault_digest,
    )
