"""The columnar selection rule, as every feasibility builder applies it.

Feasibility takes the columnar kernels exactly when numpy is importable
and the metric advertises a kernel code: Euclidean and Manhattan with
numpy; never haversine or the road network; never without numpy.  The engine, the sharded engine and a standalone
``FeasibilityChecker`` must all agree with the rule.
"""

import random
from dataclasses import replace

import pytest

from repro.columnar import columnar_code_for, numpy_available
from repro.core.constraints import FeasibilityChecker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.engine import AllocationEngine
from repro.shard.engine import ShardedEngine
from repro.spatial.distance import (
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
)
from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import RoadNetworkDistance, grid_road_network


def _road_network():
    return RoadNetworkDistance(
        grid_road_network(BoundingBox(0.0, 0.0, 1.0, 1.0), 5, 5, rng=random.Random(3))
    )


CASES = [
    ("euclidean", EuclideanDistance, True),
    ("manhattan", ManhattanDistance, True),
    ("haversine", HaversineDistance, False),
    ("roadnet", _road_network, False),
]


@pytest.fixture(scope="module")
def base_instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.03))


@pytest.mark.parametrize("label,make_metric,planar", CASES, ids=[c[0] for c in CASES])
def test_builders_agree_with_the_rule(base_instance, label, make_metric, planar):
    metric = make_metric()
    expected = planar and numpy_available()
    assert (columnar_code_for(metric) is not None) is expected
    instance = replace(base_instance, metric=metric)
    assert AllocationEngine(instance).columnar_active is expected
    sharded = ShardedEngine(instance, 2)
    assert sharded.columnar_active is expected
    assert all(e.columnar_active is expected for e in sharded.engines)
    checker = FeasibilityChecker(instance.workers, instance.tasks, metric, 0.0)
    assert (checker._columnar_code is not None) is expected


def test_selected_code_is_the_metrics_own():
    if not numpy_available():
        pytest.skip("no kernel code is selected without numpy")
    assert columnar_code_for(EuclideanDistance()) == "euclidean"
    assert columnar_code_for(ManhattanDistance()) == "manhattan"
