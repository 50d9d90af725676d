"""A uniform-grid spatial index over 2-D points.

Two callers bucket a fixed point set once and query it many times:
road-network snapping asks for the :meth:`GridIndex.nearest` node of a
free point, and the KD shard partition gathers each region's members with
:meth:`GridIndex.keys_in_box`.  Neither removes or moves a point, so the
index is insert-only.  Inner loops compare *squared* distances, saving a
``math.sqrt`` per candidate.
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
    """Maps hashable keys to points; answers nearest and box queries.

    Args:
        cell_size: side length of a grid cell, on the order of the typical
            spacing between points.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = cell_size
        self._cells: Dict[Cell, List[K]] = {}
        self._points: Dict[K, Point] = {}
        # Bounding box of occupied cells (min_i, max_i, min_j, max_j), grown
        # on insert.  The Chebyshev radius of the box around any center cell
        # equals the exact max occupied ring (the farthest cell in either
        # axis realises the maximum).
        self._bounds: Optional[Tuple[int, int, int, int]] = None

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
        """Insert ``key`` at ``point``; raises KeyError if already present."""
        if key in self._points:
            raise KeyError(f"key {key!r} is already indexed")
        self._points[key] = point
        cell = self._cell_of(point)
        self._cells.setdefault(cell, []).append(key)
        i, j = cell
        if self._bounds is None:
            self._bounds = (i, i, j, j)
        else:
            min_i, max_i, min_j, max_j = self._bounds
            self._bounds = (
                min(min_i, i), max(max_i, i), min(min_j, j), max(max_j, j)
            )

    def insert_many(self, items: Iterable[Tuple[K, Point]]) -> None:
        for key, point in items:
            self.insert(key, point)

    def point_of(self, key: K) -> Point:
        return self._points[key]

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
        bounds = self._bounds
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
        # When the clamped box spans more cells than are occupied, walking
        # the occupied cells is equivalent and bounded.  Clamping *before*
        # this comparison is what keeps a box touching (or crossing) the
        # occupied-bounds edge from inflating the span estimate and silently
        # skipping the range walk's edge column — the regression pinned by
        # tests/spatial/test_index_cells.
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
        bounds = self._bounds
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
