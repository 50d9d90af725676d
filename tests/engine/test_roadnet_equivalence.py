"""Acceptance: the engine under a road-network metric matches the oracle.

A full platform run under :class:`RoadNetworkDistance` must produce exactly
the same ``SimulationReport`` as the reference that rebuilds an exhaustive
per-pair oracle every batch (:class:`~tests.reference.RebuildEngine`).
The engine's full builds and incremental rows call the metric per pair,
snapping each distinct point once; its distances must agree with the
oracle's per-pair calls float for float, so assignments, scores and
completion times coincide.
"""

import contextlib
import random
from collections import Counter

import pytest

from repro.algorithms.registry import make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.simulation.platform import Platform
from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import RoadNetworkDistance, grid_road_network

from tests.reference import without_engine


def _roadnet_instance(seed, side=8):
    instance = generate_synthetic(SyntheticConfig(seed=seed).scaled(0.05))
    net = grid_road_network(
        BoundingBox(0.0, 0.0, 1.0, 1.0), side, side, rng=random.Random(seed),
        closure_prob=0.15, diagonal_prob=0.2, jitter=0.1,
    )
    instance.metric = RoadNetworkDistance(net)
    return instance


def _run(instance, name, use_engine):
    with contextlib.nullcontext() if use_engine else without_engine():
        platform = Platform(
            instance, make_allocator(name, seed=11), batch_interval=5.0
        )
        return platform.run()


class TestEngineVersusOracle:
    @pytest.mark.parametrize("seed, side", [(5, 8), (9, 12)])
    @pytest.mark.parametrize("name", ["Greedy", "Closest", "Game"])
    def test_report_matches_rebuild_oracle(self, name, seed, side):
        engine = _run(_roadnet_instance(seed, side), name, True)
        oracle = _run(_roadnet_instance(seed, side), name, False)
        assert engine.total_score > 0
        assert engine.assignments == oracle.assignments
        assert engine.completion_times == oracle.completion_times
        assert engine.expired_tasks == oracle.expired_tasks
        assert [b.score for b in engine.batches] == [b.score for b in oracle.batches]
        assert [b.time for b in engine.batches] == [b.time for b in oracle.batches]


class TestSnapOnce:
    @pytest.mark.parametrize("name", ["Greedy", "Closest", "Game"])
    def test_platform_run_snaps_each_point_once(self, name):
        instance = _roadnet_instance(7)
        network = instance.metric.network
        snapped = Counter()
        snap = network.nearest_node

        def counting(point):
            snapped[point] += 1
            return snap(point)

        network.nearest_node = counting
        report = _run(instance, name, True)
        assert report.total_score > 0
        assert snapped and max(snapped.values()) == 1
        # Workers return from service at task locations, so every snapped
        # point is an input location.
        locations = {w.location for w in instance.workers}
        locations |= {t.location for t in instance.tasks}
        assert set(snapped) <= locations
