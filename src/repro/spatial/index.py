"""A uniform-grid spatial index over 2-D points.

The batch allocators need, for every worker, the set of tasks within a
reachability radius (``min(d_w, v_w * remaining_time)``).  A brute-force scan
is O(n*m); bucketing points into a uniform grid reduces the candidate set to
the cells overlapping the query disc, which is near-linear for the point
densities the experiments use.

The index is intentionally simple (no rebalancing, no deletion compaction):
batches are rebuilt from scratch each allocation round, so build speed and
query speed are what matter.  Inner loops compare *squared* distances
against a hoisted ``radius * radius``, saving a ``math.sqrt`` per candidate
— the single hottest instruction in a feasibility build.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.spatial.distance import Point

K = TypeVar("K", bound=Hashable)

Cell = Tuple[int, int]


class GridIndex(Generic[K]):
    """Maps hashable keys to points and answers radius queries.

    Args:
        cell_size: side length of a grid cell.  A good default is the median
            query radius; anything within ~4x of that is fine.

    The index uses Euclidean geometry for its candidate pruning.  Radius
    queries with other metrics remain *correct* as long as the metric is
    lower-bounded by a constant multiple of the Euclidean distance on the data
    region — callers doing that should query with an inflated radius and
    re-check exactly (this is what the feasibility builder does).
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = cell_size
        self._cells: Dict[Cell, List[K]] = {}
        self._points: Dict[K, Point] = {}
        # Bounding box of occupied cells (min_i, max_i, min_j, max_j),
        # maintained incrementally: grown on insert, marked dirty when a
        # removal empties a cell on the current boundary and recomputed
        # lazily on the next query that needs it.  The Chebyshev radius of
        # the box around any center cell equals the exact max occupied ring
        # (the farthest cell in either axis realises the maximum).
        self._bounds: Optional[Tuple[int, int, int, int]] = None
        self._bounds_dirty = False

    @property
    def cell_size(self) -> float:
        return self._cell_size

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: K) -> bool:
        return key in self._points

    def __iter__(self) -> Iterator[K]:
        return iter(self._points)

    def _cell_of(self, point: Point) -> Cell:
        return (
            math.floor(point[0] / self._cell_size),
            math.floor(point[1] / self._cell_size),
        )

    def insert(self, key: K, point: Point) -> None:
        """Insert (or move) ``key`` at ``point``."""
        if key in self._points:
            self.remove(key)
        self._points[key] = point
        cell = self._cell_of(point)
        self._cells.setdefault(cell, []).append(key)
        if not self._bounds_dirty:
            i, j = cell
            if self._bounds is None:
                self._bounds = (i, i, j, j)
            else:
                min_i, max_i, min_j, max_j = self._bounds
                if i < min_i or i > max_i or j < min_j or j > max_j:
                    self._bounds = (
                        min(min_i, i), max(max_i, i), min(min_j, j), max(max_j, j)
                    )

    def insert_many(self, items: Iterable[Tuple[K, Point]]) -> None:
        for key, point in items:
            self.insert(key, point)

    def remove(self, key: K) -> None:
        """Remove ``key``; raises KeyError if absent."""
        point = self._points.pop(key)
        cell = self._cell_of(point)
        bucket = self._cells[cell]
        bucket.remove(key)
        if not bucket:
            del self._cells[cell]
            # Only an emptied *extreme* cell can shrink the bounding box;
            # interior holes leave it exact.
            if self._bounds is not None and not self._bounds_dirty:
                min_i, max_i, min_j, max_j = self._bounds
                i, j = cell
                if i == min_i or i == max_i or j == min_j or j == max_j:
                    self._bounds_dirty = True

    def _occupied_bounds(self) -> Optional[Tuple[int, int, int, int]]:
        if self._bounds_dirty:
            self._bounds = None
            self._bounds_dirty = False
            for i, j in self._cells:
                if self._bounds is None:
                    self._bounds = (i, i, j, j)
                else:
                    min_i, max_i, min_j, max_j = self._bounds
                    self._bounds = (
                        min(min_i, i), max(max_i, i), min(min_j, j), max(max_j, j)
                    )
        return self._bounds if self._cells else None

    def point_of(self, key: K) -> Point:
        return self._points[key]

    def query_radius(self, center: Point, radius: float) -> List[K]:
        """All keys whose point is within Euclidean ``radius`` of ``center``."""
        if radius < 0.0:
            return []
        if radius == math.inf:
            # Every point qualifies (an unbounded worker's reach disc); the
            # cell arithmetic below cannot floor an infinite coordinate.
            return [key for bucket in self._cells.values() for key in bucket]
        cx, cy = center
        radius_sq = radius * radius
        points = self._points
        lo_i = math.floor((cx - radius) / self._cell_size)
        hi_i = math.floor((cx + radius) / self._cell_size)
        lo_j = math.floor((cy - radius) / self._cell_size)
        hi_j = math.floor((cy + radius) / self._cell_size)
        out: List[K] = []
        # When the query rectangle spans more cells than actually exist
        # (tiny cell size vs a huge radius), walking the occupied cells is
        # both equivalent and bounded.
        span_cells = (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
        if span_cells > len(self._cells):
            for (i, j), bucket in self._cells.items():
                if lo_i <= i <= hi_i and lo_j <= j <= hi_j:
                    for key in bucket:
                        px, py = points[key]
                        dx = px - cx
                        dy = py - cy
                        if dx * dx + dy * dy <= radius_sq:
                            out.append(key)
            return out
        for i in range(lo_i, hi_i + 1):
            for j in range(lo_j, hi_j + 1):
                bucket = self._cells.get((i, j))
                if not bucket:
                    continue
                for key in bucket:
                    px, py = points[key]
                    dx = px - cx
                    dy = py - cy
                    if dx * dx + dy * dy <= radius_sq:
                        out.append(key)
        return out

    def cells_overlapping(self, box: Tuple[float, float, float, float]) -> List[Cell]:
        """Occupied cells intersecting an axis-aligned box, in sorted order.

        ``box`` is ``(min_x, min_y, max_x, max_y)``; infinite bounds are
        allowed and clamp to the occupied bounding box, so a partitioner can
        hand in the half-planes of a space-tiling split without overflowing
        the cell arithmetic.  The result is a candidate *superset*: a cell is
        reported when its area intersects the closed box, so callers doing
        exact containment re-check the points (see :meth:`keys_in_box`).
        Cells are returned in ``(i, j)``-sorted order on every code path —
        partition builds iterate them and must be deterministic.
        """
        x0, y0, x1, y1 = box
        bounds = self._occupied_bounds()
        if bounds is None or x1 < x0 or y1 < y0:
            return []
        min_i, max_i, min_j, max_j = bounds
        cell = self._cell_size
        lo_i = min_i if x0 == -math.inf else max(min_i, math.floor(x0 / cell))
        hi_i = max_i if x1 == math.inf else min(max_i, math.floor(x1 / cell))
        lo_j = min_j if y0 == -math.inf else max(min_j, math.floor(y0 / cell))
        hi_j = max_j if y1 == math.inf else min(max_j, math.floor(y1 / cell))
        if lo_i > hi_i or lo_j > hi_j:
            return []
        # Same cutoff rule as query_radius: when the clamped box spans more
        # cells than are occupied, walking the occupied cells is equivalent
        # and bounded.  Clamping *before* this comparison is what keeps a
        # box touching (or crossing) the occupied-bounds edge from inflating
        # the span estimate and silently skipping the range walk's edge
        # column — the regression pinned by tests/spatial/test_index_cells.
        out: List[Cell] = []
        span_cells = (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
        if span_cells > len(self._cells):
            for i, j in self._cells:
                if lo_i <= i <= hi_i and lo_j <= j <= hi_j:
                    out.append((i, j))
            out.sort()
            return out
        for i in range(lo_i, hi_i + 1):
            for j in range(lo_j, hi_j + 1):
                if (i, j) in self._cells:
                    out.append((i, j))
        return out

    def keys_in_box(self, box: Tuple[float, float, float, float]) -> List[K]:
        """Keys whose point lies in the half-open box ``[x0,x1) x [y0,y1)``.

        Half-open on the upper edges so adjacent boxes of a space tiling
        partition the keys without double-counting (a point exactly on a
        shared edge belongs to the higher box); infinite bounds admit
        everything on that side.
        """
        x0, y0, x1, y1 = box
        points = self._points
        out: List[K] = []
        for cell in self.cells_overlapping(box):
            for key in self._cells[cell]:
                px, py = points[key]
                if x0 <= px < x1 and y0 <= py < y1:
                    out.append(key)
        return out

    def nearest(self, center: Point, max_radius: float | None = None) -> K | None:
        """The key nearest to ``center`` (ties broken arbitrarily).

        Searches outward ring by ring; ``max_radius`` bounds the search.
        Returns None when the index is empty or nothing lies within range.
        """
        if not self._points:
            return None
        cx, cy = center
        points = self._points
        best_key: K | None = None
        best_sq = math.inf
        ring = 0
        ccell = self._cell_of(center)
        max_occupied = self._max_occupied_ring(ccell)
        max_ring = (
            math.inf if max_radius is None else math.ceil(max_radius / self._cell_size) + 1
        )
        while ring <= max_ring:
            # Ring enumeration costs O(ring); once rings outgrow the whole
            # population a direct scan is cheaper (and bounded).
            if 8 * ring > len(self._points):
                for key, (px, py) in points.items():
                    dx = px - cx
                    dy = py - cy
                    d_sq = dx * dx + dy * dy
                    if d_sq < best_sq:
                        best_key, best_sq = key, d_sq
                break
            for i, j in self._ring_cells(ccell, ring):
                bucket = self._cells.get((i, j))
                if not bucket:
                    continue
                for key in bucket:
                    px, py = points[key]
                    dx = px - cx
                    dy = py - cy
                    d_sq = dx * dx + dy * dy
                    if d_sq < best_sq:
                        best_key, best_sq = key, d_sq
            # once we have a candidate, one extra ring suffices: any point in
            # farther rings is at least (ring-1)*cell_size away.
            if best_key is not None:
                lower = (ring - 1) * self._cell_size
                if lower > 0.0 and lower * lower > best_sq:
                    break
            if best_key is None and ring > max_occupied:
                break
            ring += 1
        if max_radius is not None and best_sq > max_radius * max_radius:
            return None
        return best_key

    def _max_occupied_ring(self, center_cell: Cell) -> int:
        bounds = self._occupied_bounds()
        if bounds is None:
            return 0
        ci, cj = center_cell
        min_i, max_i, min_j, max_j = bounds
        return max(ci - min_i, max_i - ci, cj - min_j, max_j - cj, 0)

    @staticmethod
    def _ring_cells(center: Cell, ring: int) -> Iterator[Cell]:
        ci, cj = center
        if ring == 0:
            yield (ci, cj)
            return
        for i in range(ci - ring, ci + ring + 1):
            yield (i, cj - ring)
            yield (i, cj + ring)
        for j in range(cj - ring + 1, cj + ring):
            yield (ci - ring, j)
            yield (ci + ring, j)
