"""Acceptance: road-network acceleration is invisible to the platform.

A full platform run under :class:`RoadNetworkDistance` must produce exactly
the same ``SimulationReport`` *and* the same ``engine_stats`` with the
contraction hierarchy on as with plain Dijkstra — the acceleration lives
entirely below the metric interface, so assignments, scores, completion
times, cache hit/miss counters and edge totals all stay pinned.
"""

import random

import pytest

from repro.algorithms.registry import make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.engine import AllocationEngine
from repro.simulation.platform import Platform
from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import RoadNetworkDistance, grid_road_network

from tests.reference import ExhaustiveChecker


def _roadnet_instance(seed, accelerate):
    instance = generate_synthetic(SyntheticConfig(seed=seed).scaled(0.05))
    net = grid_road_network(
        BoundingBox(0.0, 0.0, 1.0, 1.0), 8, 8, rng=random.Random(seed),
        closure_prob=0.15, diagonal_prob=0.2, jitter=0.1,
        accelerate=accelerate,
    )
    instance.metric = RoadNetworkDistance(net)
    return instance


def _run(instance, name):
    platform = Platform(
        instance, make_allocator(name, seed=11), batch_interval=5.0
    )
    return platform.run()


class TestAccelerationEquivalence:
    @pytest.mark.parametrize("name", ["Greedy", "Closest", "Game"])
    def test_report_and_engine_stats_pinned(self, name):
        accel = _run(_roadnet_instance(5, True), name)
        plain = _run(_roadnet_instance(5, False), name)
        assert accel.assignments == plain.assignments
        assert accel.completion_times == plain.completion_times
        assert accel.expired_tasks == plain.expired_tasks
        assert [b.score for b in accel.batches] == [b.score for b in plain.batches]
        assert accel.engine_stats == plain.engine_stats

    def test_accelerated_path_actually_engaged(self):
        instance = _roadnet_instance(7, True)
        _run(instance, "Greedy")
        net = instance.metric.network
        assert net.accelerated
        assert net.hierarchy_builds == 1
        assert net.table_queries > 0  # engine prefetch went through the table

    def test_plain_path_never_builds_hierarchy(self):
        instance = _roadnet_instance(7, False)
        _run(instance, "Greedy")
        assert instance.metric.network.hierarchy_builds == 0


class TestTableRouting:
    def test_full_build_routes_through_the_table(self):
        instance = _roadnet_instance(7, True)
        network = instance.metric.network
        engine = AllocationEngine(instance)
        before = network.table_queries
        context = engine.begin_batch(
            instance.workers, instance.tasks, instance.earliest_start
        )
        # One table call answered the build's distances ...
        assert network.table_queries > before
        # ... and the graph is the per-pair oracle's, pair for pair.
        checker = ExhaustiveChecker(
            instance.workers, instance.tasks, instance.metric,
            instance.earliest_start,
        )
        assert list(context.checker.pairs()) == list(checker.pairs())
        assert context.checker.pair_count() > 0
