"""Byte-budgeted LRU cache for materialized intermediate Datasets.

The engine memoizes a handful of expensive verified-pair sets
(minhash / ngram / containment pairs, image near-dup pairs, the
co-presence edge list) per input directory so N consumer queries
don't re-execute the producing lineage N times (CLAUDE.md: a Dataset
consumed by N operators re-runs its lineage N times).  The r4 shape
was plain module dicts keyed by sf_dir — unbounded in count, so a
long-lived cluster session (many inputs, many rounds) would
accumulate stale materialized blocks in the object store forever.

This cache bounds them: one process-wide byte budget, LRU eviction
on insert (the ChunkPair 8-entry actor cache is the template, but
sized in bytes because pair sets vary 1000x with sf).  Evicting an
entry drops the last Python reference to the MaterializedDataset,
which releases its object-store blocks via Ray's reference counting.
The freshly inserted entry is always kept, even if it alone exceeds
the budget — callers rely on getting their dataset back.

The cache is thread-safe: one re-entrant lock guards the entries and
counters and is held across a miss's build, so concurrent misses on
one key share a single build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable


DEFAULT_BUDGET_BYTES = 2 << 30  # 2 GiB of materialized pair sets


class MaterializedCache:
    """LRU of key -> MaterializedDataset under a total byte budget."""

    def __init__(self, max_bytes: int = DEFAULT_BUDGET_BYTES):
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, tuple[object, int]]" = OrderedDict()
        self._lock = threading.RLock()
        self.builds = 0   # observability + tests
        self.evictions = 0

    def total_bytes(self) -> int:
        with self._lock:
            return sum(sz for _, sz in self._entries.values())

    def get_or_build(self, key: str, build: Callable[[], object]):
        """Return the cached dataset for ``key``, building (and
        materializing, if the builder didn't) on miss.  Touches the
        entry to most-recently-used; evicts LRU entries until the
        total fits the budget (never the entry just inserted).
        Concurrent callers with the same key share one build."""
        with self._lock:
            hit = self.get(key)
            if hit is not None:
                return hit
            ds = build()
            try:
                size = int(ds.size_bytes() or 0)
            except (AttributeError, TypeError):
                size = 0  # non-Dataset payloads count as free
            self.builds += 1
            self._entries[key] = (ds, size)
            self._entries.move_to_end(key)
            while self.total_bytes() > self.max_bytes and len(self._entries) > 1:
                self._entries.popitem(last=False)
                self.evictions += 1
            return ds

    def get(self, key: str):
        """Warm-hit lookup (touches LRU) or None — for callers whose
        build step is not a single closure."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            self._entries.move_to_end(key)
            return hit[0]

    def invalidate(self, key: str | None = None) -> None:
        with self._lock:
            if key is None:
                self._entries.clear()
            else:
                self._entries.pop(key, None)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# The process-wide instance every query-side memo routes through.
PAIR_CACHE = MaterializedCache()
