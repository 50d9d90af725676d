"""Grid index tests."""

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

    def test_insert_rejects_existing_key(self):
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.0, 0.0))
        with pytest.raises(KeyError):
            index.insert("a", (5.0, 5.0))
        assert index.point_of("a") == (0.0, 0.0)


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
    """The bounding box behind ``nearest``'s termination, grown on insert."""

    def test_grows_on_insert(self):
        index = GridIndex(cell_size=1.0)
        index.insert("a", (0.5, 0.5))
        assert index._bounds == (0, 0, 0, 0)
        index.insert("b", (5.5, -2.5))
        assert index._bounds == (0, 5, -3, 0)

    def test_max_occupied_ring_matches_definition(self):
        index, points = _populated(60, seed=21, cell=0.15)
        for center in [(0.0, 0.0), (0.5, 0.5), (3.0, -2.0)]:
            ccell = index._cell_of(center)
            expected = max(
                max(abs(ccell[0] - i), abs(ccell[1] - j))
                for (i, j) in (index._cell_of(p) for p in points.values())
            )
            assert index._max_occupied_ring(ccell) == expected
