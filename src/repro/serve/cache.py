"""Persistent, content-addressed schedule cache.

The cache stores fully rendered response *bytes* keyed by the request's
content digest (``cache_key`` over the program/topology/options digest
triple), so a hit serves exactly the bytes the cold computation produced
-- byte-identity is structural, not a property the solver has to
maintain.  Storage is the :class:`~repro.recovery.CheckpointStore`'s:
one ``<key>.json`` file per entry, created by
:func:`repro.recovery.files.publish` -- a temporary name no other write
shares (in this process or another one pointed at the same directory),
atomically renamed into place -- so a crash mid-write never leaves a
torn entry under its final name and concurrent writers of the same key
are idempotent.

A small in-memory LRU front (:data:`MAX_MEMORY_ENTRIES`) keeps the hot keys
out of the filesystem entirely; the on-disk tier is the durable,
restart-surviving one.  :class:`LRU` is that front, and the bounded
memo the service keeps its request keys in.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any, Optional

from ..recovery.files import publish

__all__ = ["LRU", "ScheduleCache"]

_KEY_CHARS = set("0123456789abcdef")

#: entries the in-memory front of a :class:`ScheduleCache` holds
MAX_MEMORY_ENTRIES = 256


class LRU(OrderedDict):
    """A mapping that holds at most its ``capacity`` most recently used
    entries; :meth:`get` and :meth:`put` count as use."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = int(capacity)

    def get(self, key: Any, default: Any = None) -> Any:
        """The value under ``key`` (now the most recent), or ``default``."""
        try:
            self.move_to_end(key)
        except KeyError:
            return default
        return self[key]

    def put(self, key: Any, value: Any) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.capacity:
            self.popitem(last=False)


class ScheduleCache:
    """Two-tier (memory + disk) cache of rendered response bytes.

    ``root=None`` keeps the cache purely in-memory (tests, ephemeral
    servers); with a directory, entries persist across restarts and are
    shared by every server pointed at the same ``--cache-dir``.
    """

    def __init__(self, root: Optional[object] = None) -> None:
        self.root = Path(root) if root is not None else None
        self._memory = LRU(MAX_MEMORY_ENTRIES)
        #: lookups answered from memory or disk
        self.hits = 0
        #: lookups that found nothing
        self.misses = 0
        #: entries written by this instance
        self.writes = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.json"

    @staticmethod
    def _check_key(key: str) -> str:
        if not key or not set(key) <= _KEY_CHARS:
            raise ValueError(f"cache key must be a hex digest, got {key!r}")
        return key

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """The cached response bytes for ``key``, or ``None``."""
        key = self._check_key(key)
        body = self._memory.get(key)
        if body is not None:
            self.hits += 1
            return body
        if self.root is not None:
            path = self._path(key)
            if path.exists():
                body = path.read_bytes()
                self._memory.put(key, body)
                self.hits += 1
                return body
        self.misses += 1
        return None

    def put(self, key: str, body: bytes) -> None:
        """Store ``body`` under ``key`` (published atomically on disk; an
        existing entry is identical, content addressing, and stays)."""
        key = self._check_key(key)
        self._memory.put(key, bytes(body))
        if self.root is not None and publish(
            self._path(key), lambda fh: fh.write(body)
        ):
            self.writes += 1

    def __len__(self) -> int:
        if self.root is not None and self.root.exists():
            disk = {p.stem for p in self.root.glob("*.json")}
            return len(disk | set(self._memory))
        return len(self._memory)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
