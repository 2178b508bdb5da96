"""Versioned LRU cache for anchored k-core query results.

Entries are keyed by ``(graph_version, k, budget, solver)``.  When a delta is
flushed the graph version advances, which would naively orphan every cached
entry — but the maintenance traversal tells us exactly *where* the graph
changed.  An anchored-k-core answer for degree constraint ``k`` only depends
on vertices whose core number is below ``k`` (the candidate/follower region)
and on the membership of the k-core itself; a delta whose touched vertices all
keep core numbers ``>= k`` before and after cannot alter either, so those
entries are *promoted* to the new version instead of evicted.  The engine
computes that threshold (the minimum old/new core number over the touched
set) and hands the cache a keep-predicate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro.anchored.result import AnchoredKCoreResult
from repro.errors import require_int


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached query answer."""

    version: int
    k: int
    budget: int
    solver: str

    def as_tuple(self) -> Tuple[int, int, int, str]:
        """Plain-tuple form used by the checkpoint serialiser."""
        return (self.version, self.k, self.budget, self.solver)


class ResultCache:
    """LRU cache of :class:`AnchoredKCoreResult` with version promotion.

    It keeps no counters: the engine counts hits, misses, promotions and
    invalidations in its :class:`~repro.engine.stats.EngineStats`, from what
    :meth:`get` and :meth:`promote` return.
    """

    def __init__(self, capacity: int = 256) -> None:
        require_int("cache capacity", capacity, 1)
        self._capacity = capacity
        self._entries: "OrderedDict[CacheKey, AnchoredKCoreResult]" = OrderedDict()

    # ------------------------------------------------------------------
    # Basic LRU operations
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of retained entries."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[AnchoredKCoreResult]:
        """Return the cached result for ``key`` (refreshing recency) or None."""
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def put(self, key: CacheKey, result: AnchoredKCoreResult) -> None:
        """Store ``result`` under ``key``, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Version maintenance
    # ------------------------------------------------------------------
    def promote(
        self,
        old_version: int,
        new_version: int,
        keep: Callable[[CacheKey], bool],
    ) -> Tuple[int, int]:
        """Advance the cache across one graph-version bump.

        Entries at ``old_version`` satisfying ``keep`` are re-keyed to
        ``new_version`` (their answers provably survive the delta); everything
        else — including entries left over from even older versions — is
        dropped.  Relative LRU order of the survivors is preserved.  Returns
        ``(promoted, invalidated)`` counts.
        """
        promoted = 0
        invalidated = 0
        survivors: "OrderedDict[CacheKey, AnchoredKCoreResult]" = OrderedDict()
        for key, result in self._entries.items():
            if key.version == old_version and keep(key):
                survivors[
                    CacheKey(new_version, key.k, key.budget, key.solver)
                ] = result
                promoted += 1
            else:
                invalidated += 1
        self._entries = survivors
        return promoted, invalidated

    # ------------------------------------------------------------------
    # Introspection / checkpointing
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[CacheKey, AnchoredKCoreResult]]:
        """Iterate entries from least- to most-recently used."""
        return iter(self._entries.items())

    def keys(self) -> Iterator[CacheKey]:
        """Iterate keys from least- to most-recently used."""
        return iter(self._entries)
