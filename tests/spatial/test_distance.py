"""Distance metric unit tests."""

import math
import random

import pytest

from repro.spatial.distance import (
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
    euclidean,
    get_metric,
    haversine_km,
    manhattan,
    plain_function,
)


class TestEuclidean:
    def test_zero_for_identical_points(self):
        assert euclidean((1.5, -2.0), (1.5, -2.0)) == 0.0

    def test_pythagorean_triple(self):
        assert euclidean((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_symmetry(self):
        a, b = (0.3, 0.7), (-1.2, 4.4)
        assert euclidean(a, b) == pytest.approx(euclidean(b, a))

    def test_axis_aligned(self):
        assert euclidean((2.0, 0.0), (7.0, 0.0)) == pytest.approx(5.0)

    def test_bitwise_equal_to_the_hypot_of_the_differences(self):
        # Reports are pinned to math.hypot(dx, dy); the engine's link loop
        # calls math.dist directly (plain_function), so both must agree
        # to the last bit, including the infinite and subnormal edges.
        rng = random.Random(5)
        edges = [0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, 1 / 3]
        points = [
            (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(200)
        ]
        points += [(x, y) for x in edges for y in edges]
        for a in points:
            for b in points[::7]:
                expected = math.hypot(a[0] - b[0], a[1] - b[1])
                got = euclidean(a, b)
                assert got == expected or math.isnan(got) and math.isnan(expected)
                assert math.copysign(1.0, got) == math.copysign(1.0, expected)
        assert plain_function(EuclideanDistance()) is math.dist


class TestManhattan:
    def test_unit_square_diagonal(self):
        assert manhattan((0.0, 0.0), (1.0, 1.0)) == pytest.approx(2.0)

    def test_dominates_euclidean(self):
        a, b = (0.1, 0.9), (2.3, -1.7)
        assert manhattan(a, b) >= euclidean(a, b)

    def test_negative_coordinates(self):
        assert manhattan((-1.0, -1.0), (1.0, 1.0)) == pytest.approx(4.0)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km((114.0, 22.3), (114.0, 22.3)) == 0.0

    def test_one_degree_longitude_at_equator(self):
        # 1 degree of longitude at the equator is ~111.19 km.
        assert haversine_km((0.0, 0.0), (1.0, 0.0)) == pytest.approx(111.19, abs=0.5)

    def test_longitude_shrinks_with_latitude(self):
        at_equator = haversine_km((0.0, 0.0), (1.0, 0.0))
        at_hk = haversine_km((114.0, 22.3), (115.0, 22.3))
        assert at_hk < at_equator

    def test_antipodal_is_half_circumference(self):
        assert haversine_km((0.0, 0.0), (180.0, 0.0)) == pytest.approx(20015.0, rel=0.01)


class TestMetricObjects:
    def test_get_metric_by_name(self):
        assert isinstance(get_metric("euclidean"), EuclideanDistance)
        assert isinstance(get_metric("manhattan"), ManhattanDistance)
        assert isinstance(get_metric("haversine"), HaversineDistance)

    def test_get_metric_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown distance metric"):
            get_metric("chebyshev")

    def test_equality_is_by_name(self):
        assert EuclideanDistance() == EuclideanDistance()
        assert EuclideanDistance() != ManhattanDistance()

    def test_hashable(self):
        assert len({EuclideanDistance(), EuclideanDistance(), ManhattanDistance()}) == 2

    def test_callable_matches_function(self):
        a, b = (0.0, 1.0), (2.0, 3.0)
        assert EuclideanDistance()(a, b) == euclidean(a, b)
        assert ManhattanDistance()(a, b) == manhattan(a, b)
        assert HaversineDistance()(a, b) == haversine_km(a, b)
