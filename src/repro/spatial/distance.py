"""Distance metrics over 2-D points.

Points are plain ``(x, y)`` tuples throughout the library.  For haversine
the convention is ``(longitude, latitude)`` in degrees, and distances are
kilometres; the planar metrics are unit-free.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

Point = Tuple[float, float]

_EARTH_RADIUS_KM = 6371.0088


def euclidean(a: Point, b: Point) -> float:
    """Straight-line distance between two planar points.

    ``math.dist`` takes the coordinate differences and the norm in C, bit
    for bit what ``math.hypot(a[0] - b[0], a[1] - b[1])`` returns.
    """
    return math.dist(a, b)


def manhattan(a: Point, b: Point) -> float:
    """L1 (city-block) distance between two planar points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def haversine_km(a: Point, b: Point) -> float:
    """Great-circle distance in kilometres between ``(lon, lat)`` points."""
    lon1, lat1 = map(math.radians, a)
    lon2, lat2 = map(math.radians, b)
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * _EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


class DistanceMetric:
    """A named distance function usable wherever the library needs distances.

    Instances are lightweight and stateless; equality is by name, which makes
    metrics safe to embed in serialised configurations.
    """

    name: str = "abstract"

    def __call__(self, a: Point, b: Point) -> float:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DistanceMetric) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EuclideanDistance(DistanceMetric):
    """The paper's default metric (Section II-A)."""

    name = "euclidean"

    def __call__(self, a: Point, b: Point) -> float:
        return euclidean(a, b)


class ManhattanDistance(DistanceMetric):
    """City-block metric, a simple stand-in for road-network distance."""

    name = "manhattan"

    def __call__(self, a: Point, b: Point) -> float:
        return manhattan(a, b)


class HaversineDistance(DistanceMetric):
    """Great-circle metric for ``(lon, lat)`` degrees; kilometres."""

    name = "haversine"

    def __call__(self, a: Point, b: Point) -> float:
        return haversine_km(a, b)


def plain_function(metric: DistanceMetric) -> Callable[[Point, Point], float]:
    """The closed form behind a euclidean or manhattan ``metric``.

    Hot loops call the returned function directly and skip the
    ``__call__`` frame; the values are the metric's own (``math.dist`` is
    what :func:`euclidean` returns, with no Python frame at all).  Any
    other metric (one that overrides ``__call__``) comes back as itself.
    """
    call = type(metric).__call__
    if call is EuclideanDistance.__call__:
        return math.dist
    if call is ManhattanDistance.__call__:
        return manhattan
    return metric


_METRICS: dict[str, Callable[[], DistanceMetric]] = {
    "euclidean": EuclideanDistance,
    "manhattan": ManhattanDistance,
    "haversine": HaversineDistance,
}


def get_metric(name: str) -> DistanceMetric:
    """Look a metric up by name.

    Raises:
        KeyError: if ``name`` is not one of ``euclidean``, ``manhattan``,
            ``haversine``.
    """
    try:
        return _METRICS[name]()
    except KeyError:
        raise KeyError(
            f"unknown distance metric {name!r}; expected one of {sorted(_METRICS)}"
        ) from None
