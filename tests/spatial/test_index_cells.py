"""Box queries on the grid index: ``cells_overlapping`` / ``keys_in_box``.

Includes the ring-cutoff regression: the occupied-cells shortcut compares
the query's cell span against the occupied count, and that span must be
computed *after* clamping to the occupied bounds — a box touching or
crossing the occupied edge (or an infinite half-plane) would otherwise
inflate the estimate and take the shortcut with stale bounds, dropping the
edge column.
"""

import math

import pytest

from repro.spatial.index import GridIndex


def _filled_index(n=6, cell_size=1.0):
    """One key per unit cell of an n x n block, key = (i, j) flattened."""
    index = GridIndex(cell_size=cell_size)
    index.insert_many(
        ((i * n + j, (i + 0.5, j + 0.5)) for i in range(n) for j in range(n))
    )
    return index


def _brute_cells(index, box):
    x0, y0, x1, y1 = box
    out = []
    for cell in sorted(index._cells):
        i, j = cell
        cx0, cy0 = i * index.cell_size, j * index.cell_size
        cx1, cy1 = cx0 + index.cell_size, cy0 + index.cell_size
        if cx1 >= x0 and cx0 <= x1 and cy1 >= y0 and cy0 <= y1:
            out.append(cell)
    return out


def _brute_keys(index, box):
    x0, y0, x1, y1 = box
    return sorted(
        key
        for key, (px, py) in index._points.items()
        if x0 <= px < x1 and y0 <= py < y1
    )


class TestCellsOverlapping:
    def test_interior_box(self):
        index = _filled_index()
        box = (1.2, 1.2, 3.8, 2.4)
        assert index.cells_overlapping(box) == _brute_cells(index, box)

    def test_box_is_a_candidate_superset(self):
        # A box clipping only the corner of a cell still reports it.
        index = _filled_index()
        assert (0, 0) in index.cells_overlapping((0.9, 0.9, 1.1, 1.1))

    def test_infinite_half_planes(self):
        index = _filled_index()
        left = index.cells_overlapping((-math.inf, -math.inf, 2.9, math.inf))
        right = index.cells_overlapping((2.9, -math.inf, math.inf, math.inf))
        assert left == [(i, j) for i in range(3) for j in range(6)]
        assert right == [(i, j) for i in range(2, 6) for j in range(6)]

    def test_whole_plane_returns_every_occupied_cell(self):
        index = _filled_index()
        box = (-math.inf, -math.inf, math.inf, math.inf)
        assert index.cells_overlapping(box) == sorted(index._cells)

    def test_empty_index_and_inverted_box(self):
        index = GridIndex(cell_size=1.0)
        assert index.cells_overlapping((0.0, 0.0, 5.0, 5.0)) == []
        index.insert(0, (0.5, 0.5))
        assert index.cells_overlapping((3.0, 0.0, 1.0, 5.0)) == []

    def test_disjoint_box_beyond_bounds(self):
        index = _filled_index()
        assert index.cells_overlapping((100.0, 100.0, 101.0, 101.0)) == []

    def test_sorted_on_both_code_paths(self):
        # Sparse population forces the occupied-walk path; a small box the
        # range-walk path.  Both must come back (i, j)-sorted.
        index = GridIndex(cell_size=1.0)
        index.insert_many((k, (7.0 * k + 0.5, 0.5)) for k in range(5))
        wide = index.cells_overlapping((-math.inf, -math.inf, math.inf, math.inf))
        assert wide == sorted(wide) and len(wide) == 5
        narrow = index.cells_overlapping((0.0, 0.0, 7.5, 1.0))
        assert narrow == sorted(narrow) == [(0, 0), (7, 0)]

    def test_ring_cutoff_regression_box_touching_occupied_edge(self):
        """A box crossing the occupied edge must not skip the edge column.

        The unclamped span of this box is huge (it extends far past the
        population), so a pre-clamp span estimate would take the
        occupied-walk shortcut.  The clamp-first rule keeps both paths
        equivalent.
        """
        index = _filled_index(n=6)
        box = (4.2, -50.0, 90.0, 50.0)  # crosses the right/bottom/top edges
        assert index.cells_overlapping(box) == _brute_cells(index, box)
        assert index.cells_overlapping(box) == [
            (i, j) for i in (4, 5) for j in range(6)
        ]


class TestKeysInBox:
    def test_half_open_shared_edge(self):
        index = GridIndex(cell_size=1.0)
        index.insert(0, (0.5, 0.5))
        index.insert(1, (2.0, 0.5))  # exactly on the cut below
        index.insert(2, (3.5, 0.5))
        left = index.keys_in_box((-math.inf, -math.inf, 2.0, math.inf))
        right = index.keys_in_box((2.0, -math.inf, math.inf, math.inf))
        assert sorted(left) == [0]
        assert sorted(right) == [1, 2]

    def test_partition_of_keys_is_exact(self):
        index = _filled_index()
        cut = 2.5
        left = index.keys_in_box((-math.inf, -math.inf, cut, math.inf))
        right = index.keys_in_box((cut, -math.inf, math.inf, math.inf))
        assert sorted(left + right) == sorted(index._points)
        assert not set(left) & set(right)

    @pytest.mark.parametrize(
        "box",
        [
            (1.0, 1.0, 4.0, 4.0),
            (0.2, 3.7, 5.9, 4.1),
            (-math.inf, 2.0, 3.0, math.inf),
            (5.5, -10.0, 200.0, 10.0),
        ],
    )
    def test_matches_brute_force(self, box):
        index = _filled_index()
        assert sorted(index.keys_in_box(box)) == _brute_keys(index, box)

    def test_points_filtered_within_candidate_cells(self):
        # The overlap is a superset: a key in an overlapped cell but
        # outside the half-open box must be filtered out.
        index = GridIndex(cell_size=2.0)
        index.insert(0, (0.1, 0.1))
        index.insert(1, (1.9, 1.9))  # same cell, other corner
        assert index.keys_in_box((0.0, 0.0, 1.0, 1.0)) == [0]
