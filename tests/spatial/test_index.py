"""Grid index tests."""

import math
import random

import pytest

from repro.spatial.distance import euclidean
from repro.spatial.index import GridIndex


def _populated(n=100, seed=0, cell=0.1):
    rng = random.Random(seed)
    index = GridIndex(cell_size=cell)
    points = {i: (rng.uniform(0, 1), rng.uniform(0, 1)) for i in range(n)}
    index.insert_many(points.items())
    return index, points


class TestGridIndexBasics:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError, match="cell_size"):
            GridIndex(cell_size=0.0)

    def test_len_contains_iter(self):
        index, points = _populated(25)
        assert len(index) == 25
        assert 7 in index
        assert sorted(index) == sorted(points)

    def test_insert_moves_existing_key(self):
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.0, 0.0))
        index.insert("a", (5.0, 5.0))
        assert len(index) == 1
        assert index.point_of("a") == (5.0, 5.0)
        assert index.query_radius((0.0, 0.0), 0.5) == []

    def test_remove(self):
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.0, 0.0))
        index.remove("a")
        assert len(index) == 0
        with pytest.raises(KeyError):
            index.remove("a")


class TestRadiusQueries:
    def test_matches_brute_force(self):
        index, points = _populated(150, seed=3)
        rng = random.Random(9)
        for _ in range(30):
            center = (rng.uniform(0, 1), rng.uniform(0, 1))
            radius = rng.uniform(0.0, 0.5)
            expected = {k for k, p in points.items() if euclidean(p, center) <= radius}
            assert set(index.query_radius(center, radius)) == expected

    def test_negative_radius_is_empty(self):
        index, _ = _populated(10)
        assert index.query_radius((0.5, 0.5), -1.0) == []

    def test_zero_radius_finds_exact_point(self):
        index = GridIndex(cell_size=0.5)
        index.insert(1, (0.25, 0.25))
        assert index.query_radius((0.25, 0.25), 0.0) == [1]

    def test_radius_spanning_all_cells(self):
        index, points = _populated(50, cell=0.01)
        assert set(index.query_radius((0.5, 0.5), 10.0)) == set(points)

    def test_infinite_radius_finds_everything(self):
        # An unbounded worker's reach disc (max_distance = inf).
        index, points = _populated(50, cell=0.01)
        found = index.query_radius((0.5, 0.5), math.inf)
        assert found == index.query_radius((0.5, 0.5), 10.0)
        assert set(found) == set(points)


class TestNearest:
    def test_empty_index_returns_none(self):
        assert GridIndex(cell_size=1.0).nearest((0.0, 0.0)) is None

    def test_matches_brute_force(self):
        index, points = _populated(120, seed=5)
        rng = random.Random(11)
        for _ in range(25):
            center = (rng.uniform(0, 1), rng.uniform(0, 1))
            got = index.nearest(center)
            best = min(points, key=lambda k: euclidean(points[k], center))
            assert euclidean(points[got], center) == pytest.approx(
                euclidean(points[best], center)
            )

    def test_max_radius_limits_search(self):
        index = GridIndex(cell_size=0.1)
        index.insert(1, (0.9, 0.9))
        assert index.nearest((0.0, 0.0), max_radius=0.5) is None
        assert index.nearest((0.0, 0.0), max_radius=2.0) == 1

    def test_distant_center_terminates_and_finds_point(self):
        # The ring walk must stop once it clears the occupied bounding box
        # instead of spiralling toward max_ring, and still return the point.
        index = GridIndex(cell_size=0.1)
        index.insert(1, (0.0, 0.0))
        index.insert(2, (0.3, 0.0))
        assert index.nearest((50.0, 50.0)) == 2


class TestOccupiedBounds:
    """The incrementally-maintained bounding box behind ``nearest``'s
    termination: grown on insert, lazily rebuilt after boundary removals."""

    def test_grows_on_insert(self):
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.5, 0.5))
        assert index._occupied_bounds() == (0, 0, 0, 0)
        index.insert("b", (5.5, -2.5))
        assert index._occupied_bounds() == (0, 5, -3, 0)

    def test_interior_removal_keeps_bounds_clean(self):
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.5, 0.5))
        index.insert("mid", (2.5, 2.5))  # interior on both axes
        index.insert("b", (5.5, 5.5))
        index.remove("mid")
        assert not index._bounds_dirty
        assert index._occupied_bounds() == (0, 5, 0, 5)

    def test_boundary_removal_marks_dirty_then_rescans(self):
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.5, 0.5))
        index.insert("b", (5.5, 0.5))
        index.remove("b")
        assert index._bounds_dirty
        assert index._occupied_bounds() == (0, 0, 0, 0)
        assert not index._bounds_dirty

    def test_boundary_removal_with_cell_sharing_stays_exact(self):
        # Removing one of two keys in an extreme cell leaves the cell
        # occupied, so the bounds must not shrink.
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.5, 0.5))
        index.insert("b1", (5.5, 0.5))
        index.insert("b2", (5.7, 0.3))
        index.remove("b1")
        assert index._occupied_bounds() == (0, 5, 0, 0)

    def test_bounds_match_full_scan_under_churn(self):
        rng = random.Random(13)
        index = GridIndex(cell_size=0.2)
        alive = {}
        for step in range(300):
            if alive and rng.random() < 0.4:
                key = rng.choice(list(alive))
                index.remove(key)
                del alive[key]
            else:
                key = step
                point = (rng.uniform(-3, 3), rng.uniform(-3, 3))
                index.insert(key, point)
                alive[key] = point
            bounds = index._occupied_bounds()
            cells = {index._cell_of(p) for p in alive.values()}
            if not cells:
                assert bounds is None or not index._cells
            else:
                expected = (
                    min(i for i, _ in cells),
                    max(i for i, _ in cells),
                    min(j for _, j in cells),
                    max(j for _, j in cells),
                )
                assert bounds == expected

    def test_max_occupied_ring_matches_definition(self):
        index, points = _populated(60, seed=21, cell=0.15)
        for center in [(0.0, 0.0), (0.5, 0.5), (3.0, -2.0)]:
            ccell = index._cell_of(center)
            expected = max(
                max(abs(ccell[0] - i), abs(ccell[1] - j))
                for (i, j) in (index._cell_of(p) for p in points.values())
            )
            assert index._max_occupied_ring(ccell) == expected


class TestSquaredDistanceEquivalence:
    """The sqrt-free inner loops must accept exactly the points the
    ``euclidean(p, c) <= r`` formulation accepted."""

    def test_boundary_points_are_included(self):
        index = GridIndex(cell_size=1.0)
        index.insert("on", (3.0, 4.0))  # distance exactly 5
        index.insert("out", (3.0, 4.001))
        got = index.query_radius((0.0, 0.0), 5.0)
        assert got == ["on"]

    def test_random_agreement_with_sqrt_form(self):
        index, points = _populated(200, seed=17, cell=0.07)
        rng = random.Random(23)
        for _ in range(40):
            center = (rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
            radius = rng.uniform(0.0, 0.8)
            expected = {k for k, p in points.items() if euclidean(p, center) <= radius}
            assert set(index.query_radius(center, radius)) == expected
