"""A memoizing wrapper around any :class:`DistanceMetric`.

The batch loop evaluates the same worker/task location pairs over and over:
feasibility builds, the lazy per-batch deadline filter, ``Closest``'s
distance-sorted matching and the simulator's travel accounting all ask for
``metric(l_w, l_t)``.  For the planar metrics an evaluation is cheap but not
free; for the road-network metric it is a Dijkstra query.  ``CachedMetric``
memoizes evaluations by exact point pair so every repeat is a dict hit, and
counts hits/misses so the engine can report cache effectiveness.

The wrapper is transparent: it reports the same ``name`` (metrics compare
equal by name) and the same ``euclidean_lower_bound`` flag, so grid-index
pruning decisions are unchanged, and it returns bit-identical values to the
wrapped metric.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.spatial.distance import DistanceMetric, Point

_Key = Tuple[Point, Point]

#: Shared empty prefetch map: the common (no-prefetch) case costs one
#: truthiness check per miss instead of a per-instance allocation.
_NO_PREFETCH: Dict[_Key, float] = {}


class CachedMetric(DistanceMetric):
    """Memoizes a base metric by ``(a, b)`` point pair.

    Args:
        base: the metric to wrap.  Wrapping an already-cached metric reuses
            its underlying base rather than stacking caches.
        maxsize: optional entry bound.  None keeps the historic unbounded
            behaviour.
        policy: eviction order for bounded caches.  ``"fifo"`` (default)
            evicts by insertion order, which for the engine's access pattern
            approximates staleness: old entries belong to departed workers
            and assigned tasks.  ``"lru"`` moves entries to the back on
            every hit and evicts the least recently used — better for
            workloads with stable hot pairs (e.g. ``Closest`` re-ranking
            the same neighbourhood every batch).  The default stays FIFO so
            benchmark trajectories remain comparable across versions.

    Keys are directional (``(a, b)`` and ``(b, a)`` are distinct entries) so
    the wrapper stays correct for asymmetric metrics such as one-way road
    networks.  Eviction affects only which repeats are dict hits, never the
    returned values, so bounded and unbounded caches are interchangeable
    for correctness.
    """

    def __init__(
        self,
        base: DistanceMetric,
        maxsize: Optional[int] = None,
        policy: str = "fifo",
    ) -> None:
        if isinstance(base, CachedMetric):
            base = base.base
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        if policy not in ("fifo", "lru"):
            raise ValueError(f"policy must be 'fifo' or 'lru', got {policy!r}")
        self.base = base
        self.name = base.name
        self.euclidean_lower_bound = base.euclidean_lower_bound
        # ``columnar_code`` is deliberately NOT forwarded: a cached metric's
        # hit/miss trajectory is observable state (engine_stats), so generic
        # consumers (FeasibilityChecker) must keep the per-pair scalar path
        # that populates it.  The engine selects the kernels on the
        # instance's own metric and replays each tile's access sequence into
        # its private cache (:meth:`replay`).
        self.maxsize = maxsize
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lru = policy == "lru"
        self._cache: Dict[_Key, float] = {}
        self._prefetched: Mapping[_Key, float] = _NO_PREFETCH

    def __call__(self, a: Point, b: Point) -> float:
        key = (a, b)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            if self._lru:
                # Move-to-end: a plain dict keeps insertion order, so
                # delete + reinsert makes this entry the newest.
                del self._cache[key]
                self._cache[key] = cached
            return cached
        self.misses += 1
        value = self._prefetched.get(key) if self._prefetched else None
        if value is None:
            value = self.base(a, b)
        if self.maxsize is not None and len(self._cache) >= self.maxsize:
            del self._cache[next(iter(self._cache))]
            self.evictions += 1
        self._cache[key] = value
        return value

    def __contains__(self, key: _Key) -> bool:
        """Whether ``(a, b)`` is currently memoized (no counters touched)."""
        return key in self._cache

    def preload(self, prefetched: Mapping[_Key, float]) -> None:
        """Install precomputed distances consulted on cache misses.

        A prefetched pair still *counts* as a miss and is inserted into the
        cache exactly as if ``base`` had been called — same counters, same
        insertion (and therefore eviction) order — the base evaluation is
        simply skipped.  The engine's full build over a table-capable
        metric uses it: one table call evaluates the distances, then the
        serial access sequence replays against the prefetched values, so
        the resulting cache state is bit-identical to a per-pair build.
        """
        self._prefetched = prefetched

    def clear_preload(self) -> None:
        """Drop the prefetched overlay (memoized entries are kept)."""
        self._prefetched = _NO_PREFETCH

    def replay(self, keys, values) -> None:
        """Apply the access sequence ``[self(a, b) for (a, b) in keys]`` in bulk.

        The caller supplies, pair for pair, the value ``base`` would return
        — the columnar kernels' exactness contract guarantees exactly that —
        and this method mutates hits, misses, contents and eviction order
        precisely as the equivalent ``__call__`` sequence would, minus the
        per-call overhead.  This is the vectorised sibling of
        :meth:`preload`: preload intercepts a serial replay the caller still
        drives call-by-call; ``replay`` *is* the replay, driven here in one
        tight loop.  Duplicate keys behave exactly like repeated calls
        (first a miss, repeats hits).
        """
        cache = self._cache
        lru = self._lru
        maxsize = self.maxsize
        hits = misses = 0
        for key, value in zip(keys, values):
            cached = cache.get(key)
            if cached is not None:
                hits += 1
                if lru:
                    del cache[key]
                    cache[key] = cached
                continue
            misses += 1
            if maxsize is not None and len(cache) >= maxsize:
                del cache[next(iter(cache))]
                self.evictions += 1
            cache[key] = value
        self.hits += hits
        self.misses += misses

    def clear(self) -> None:
        """Drop every memoized entry (counters are kept)."""
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def __bool__(self) -> bool:
        # ``__len__`` would otherwise make an *empty* cache falsy, and the
        # ``metric or _EUCLIDEAN`` defaulting idiom would silently bypass it.
        return True

    def __repr__(self) -> str:
        return (
            f"CachedMetric({self.base!r}, entries={len(self._cache)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
