"""A uniform-grid spatial index over 2-D points.

Road-network snapping buckets the network's nodes once and asks for the
:meth:`GridIndex.nearest` node of each free point.  It never removes or
moves a point, so the index is insert-only.  Inner loops compare *squared* distances, saving a
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
    """Maps hashable keys to points; answers nearest-point queries.

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

    def nearest(self, center: Point) -> K | None:
        """The key nearest to ``center`` (ties broken arbitrarily).

        Searches outward ring by ring.  Returns None when the index is
        empty.
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
        while True:
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
