"""repro.perf.memo — content-addressed segment memoization.

A deterministic result cache for campaign segments: the key is the
digest of everything a segment's result is a function of (config,
snapshot shape, payload programs, derived seed, fault schedule, source
digest — see :mod:`repro.perf.memo.key`), the value is the canonical
JSON of the full segment outcome (record + exported obs state), and the
contract is strict byte-identity: a cache hit merges into reports,
registries, and checkpoints exactly as recomputation would (sampled and
enforced at runtime by ``--memo-verify``, statically by lint rule
``RL013`` keeping ambient entropy out of key material).

Stores are two-tier (:mod:`repro.perf.memo.store`): an in-process LRU
with a byte budget, optionally backed by an append-only on-disk store
with atomic temp-file/rename writes shared across workers, tenants, and
process restarts. :class:`SegmentMemo` (:mod:`repro.perf.memo.runtime`)
is the facade the campaign runner (inline or pooled), the service tier
and the CLI all share.
"""

from repro.perf.memo.key import (
    SegmentKey,
    canonical_json,
    code_version,
    digest_of,
    payload_key,
    source_digest,
)
from repro.perf.memo.runtime import (
    SAFE_AMBIENT_EVENTS,
    SegmentMemo,
    ambient_fault_digest,
    build_memo,
)
from repro.perf.memo.store import (
    DEFAULT_MEMORY_BUDGET,
    DiskMemoStore,
    InMemoryMemoStore,
    TieredMemoStore,
)

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "SAFE_AMBIENT_EVENTS",
    "SegmentKey",
    "SegmentMemo",
    "DiskMemoStore",
    "InMemoryMemoStore",
    "TieredMemoStore",
    "ambient_fault_digest",
    "build_memo",
    "canonical_json",
    "code_version",
    "digest_of",
    "payload_key",
    "source_digest",
]
