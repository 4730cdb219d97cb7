"""Two-tier memo stores: in-process LRU bytes + crash-safe disk files.

Both tiers speak the same two-method protocol — ``get(digest) ->
Optional[bytes]`` / ``put(digest, blob)`` — over opaque serialized
segment outcomes keyed by :meth:`~repro.perf.memo.key.SegmentKey.digest`
hex strings. :class:`TieredMemoStore` stacks them: memory answers first,
disk backs it and survives process restarts.

The disk tier mirrors the campaign-checkpoint write discipline
(:func:`repro.faults.campaign.write_checkpoint`): every entry is written
to a temp file in the store directory and published with one atomic
``os.replace``, so readers — including concurrent workers sharing the
directory — only ever observe absent or complete entries, and a crash
mid-store leaves at worst an orphaned ``*.tmp`` that recovery sweeps on
the next open. Entries are append-only: a digest, once published, is
never rewritten (the byte-identity contract makes any rewrite a no-op
by definition), which is what makes concurrent publication of the same
key from two workers safe.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.units import MIB

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "InMemoryMemoStore",
    "DiskMemoStore",
    "TieredMemoStore",
]

#: Default in-process byte budget: enough for tens of thousands of
#: trial-sized outcomes, small enough to never matter next to a kernel.
DEFAULT_MEMORY_BUDGET = 64 * MIB

_ENTRY_SUFFIX = ".json"
_TMP_SUFFIX = ".tmp"

#: Writes of one entry before a swept temp file is reported (see ``put``).
_PUBLISH_ATTEMPTS = 3


class InMemoryMemoStore:
    """Process-local LRU over serialized outcomes with a byte budget.

    ``get`` refreshes recency; ``put`` evicts least-recently-used
    entries until the budget holds. A blob larger than the whole budget
    is refused (not stored) rather than flushing the entire cache for
    one entry. ``evictions`` and :attr:`total_bytes` feed the
    ``memo.bytes`` gauge and the eviction-accounting tests.
    """

    def __init__(self, max_bytes: int = DEFAULT_MEMORY_BUDGET):
        if max_bytes < 1:
            raise ConfigurationError(f"max_bytes {max_bytes} must be >= 1")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self.total_bytes = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> Optional[bytes]:
        blob = self._entries.get(digest)
        if blob is not None:
            self._entries.move_to_end(digest)
        return blob

    def put(self, digest: str, blob: bytes) -> None:
        if len(blob) > self.max_bytes:
            return
        existing = self._entries.pop(digest, None)
        if existing is not None:
            self.total_bytes -= len(existing)
        self._entries[digest] = blob
        self.total_bytes += len(blob)
        while self.total_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.total_bytes -= len(evicted)
            self.evictions += 1


class DiskMemoStore:
    """Append-only on-disk tier: one ``<digest>.json`` file per entry.

    Opening the store recovers from crashes: orphaned ``*.tmp`` files
    (a writer died between ``mkstemp`` and ``os.replace``) are removed,
    published entries are counted. A published entry that fails to read
    back (truncated by external interference) is treated as absent and
    deleted, never returned.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.total_bytes = 0
        self.entries = 0
        self.recovered_partials = 0
        for path in sorted(self.directory.iterdir()):
            if path.name.endswith(_TMP_SUFFIX):
                path.unlink(missing_ok=True)
                self.recovered_partials += 1
            elif path.name.endswith(_ENTRY_SUFFIX):
                self.entries += 1
                self.total_bytes += path.stat().st_size

    def _path(self, digest: str) -> Path:
        if not digest or any(ch in digest for ch in "/\\."):
            raise ConfigurationError(f"malformed memo digest {digest!r}")
        return self.directory / f"{digest}{_ENTRY_SUFFIX}"

    def get(self, digest: str) -> Optional[bytes]:
        path = self._path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if not blob:
            # Truncated by something outside the atomic-write discipline;
            # drop it so the slot can be repopulated.
            path.unlink(missing_ok=True)
            return None
        return blob

    def put(self, digest: str, blob: bytes) -> None:
        path = self._path(digest)
        for attempt in range(_PUBLISH_ATTEMPTS):
            if path.exists():
                # Append-only: the existing bytes are identical by contract.
                return
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, suffix=_TMP_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except FileNotFoundError:
                # A store opened on this directory meanwhile (a pool
                # worker rebuilding the memo) swept the temp file as a
                # crash leftover before it was published: write it again.
                if attempt + 1 == _PUBLISH_ATTEMPTS:
                    raise
                continue
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.entries += 1
            self.total_bytes += len(blob)
            return

    def stats(self) -> Dict[str, int]:
        """Fresh on-disk accounting (rescans the directory)."""
        entries = 0
        total = 0
        for path in self.directory.iterdir():
            if path.name.endswith(_ENTRY_SUFFIX):
                entries += 1
                total += path.stat().st_size
        self.entries = entries
        self.total_bytes = total
        return {"entries": entries, "total_bytes": total}

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Prune oldest entries (by mtime) until ``max_bytes`` holds.

        File mtimes are operational retention metadata only — they never
        enter key material, so pruning cannot affect correctness, only
        future hit rates.
        """
        if max_bytes < 0:
            raise ConfigurationError(f"max_bytes {max_bytes} must be >= 0")
        paths = [
            path
            for path in self.directory.iterdir()
            if path.name.endswith(_ENTRY_SUFFIX)
        ]
        paths.sort(key=lambda path: (path.stat().st_mtime, path.name))
        total = sum(path.stat().st_size for path in paths)
        removed = 0
        freed = 0
        for path in paths:
            if total <= max_bytes:
                break
            size = path.stat().st_size
            path.unlink(missing_ok=True)
            total -= size
            freed += size
            removed += 1
        self.entries = len(paths) - removed
        self.total_bytes = total
        return {
            "removed": removed,
            "freed_bytes": freed,
            "entries": self.entries,
            "total_bytes": total,
        }


class TieredMemoStore:
    """Memory in front, optional disk behind; hits promote to memory."""

    def __init__(
        self,
        memory: Optional[InMemoryMemoStore] = None,
        disk: Optional[DiskMemoStore] = None,
    ):
        self.memory = memory if memory is not None else InMemoryMemoStore()
        self.disk = disk

    def get(self, digest: str) -> Optional[bytes]:
        blob = self.memory.get(digest)
        if blob is not None:
            return blob
        if self.disk is None:
            return None
        blob = self.disk.get(digest)
        if blob is not None:
            self.memory.put(digest, blob)
        return blob

    def put(self, digest: str, blob: bytes) -> None:
        self.memory.put(digest, blob)
        if self.disk is not None:
            self.disk.put(digest, blob)
