"""Spatial substrate: distance metrics, travel time, regions and indexing.

The paper uses Euclidean distance as its running distance function
(Section II-A) but notes that the approaches work with any metric.  This
package provides the Euclidean default, two alternatives (Manhattan and
haversine for lon/lat data such as the Meetup-like generator output) and a
uniform-grid spatial index for road-network snapping.
"""

from repro.spatial.distance import (
    DistanceMetric,
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
    euclidean,
    get_metric,
    haversine_km,
    manhattan,
)
from repro.spatial.index import GridIndex
from repro.spatial.mobility import travel_time
from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import (
    RoadNetwork,
    RoadNetworkDistance,
    grid_road_network,
)

__all__ = [
    "BoundingBox",
    "DistanceMetric",
    "EuclideanDistance",
    "GridIndex",
    "HaversineDistance",
    "ManhattanDistance",
    "RoadNetwork",
    "RoadNetworkDistance",
    "euclidean",
    "get_metric",
    "grid_road_network",
    "haversine_km",
    "manhattan",
    "travel_time",
]
