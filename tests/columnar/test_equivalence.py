"""Acceptance: the columnar and scalar paths are bit-identical end to end.

``SimulationReport`` AND ``engine_stats`` must be byte-for-byte equal
whether feasibility runs through the columnar kernels (a planar metric) or
the scalar per-pair path — the same instance under a metric with no kernel
code, or the same metric on a host without numpy — for every registered
approach.
"""

import math
from dataclasses import replace

import pytest

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.columnar import numpy_available
from repro.core.constraints import FeasibilityChecker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.engine import AllocationEngine
from repro.simulation.platform import Platform, RejoinPolicy
from repro.spatial.distance import EuclideanDistance, ManhattanDistance
from tests.reference import ScalarEuclidean, ScalarManhattan, without_numpy

AUX = ("columnar_full_builds", "columnar_pairs", "scalar_pair_evals")


needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="columnar path needs numpy"
)


@pytest.fixture(scope="module")
def instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))


def _scalar(instance):
    """The same instance under a metric the kernels never select."""
    return replace(instance, metric=ScalarEuclidean())


def _run(instance, name, columnar, rejoin=RejoinPolicy.REMAINING):
    platform = Platform(
        instance if columnar else _scalar(instance),
        make_allocator(name, seed=11),
        batch_interval=5.0,
        rejoin=rejoin,
    )
    report = platform.run()
    registry = platform.metrics_registry
    aux = {key: registry.counter(f"engine_{key}").value for key in AUX}
    return report, aux


def _assert_identical(on_report, off_report):
    assert on_report.assignments == off_report.assignments
    assert on_report.completion_times == off_report.completion_times
    assert on_report.expired_tasks == off_report.expired_tasks
    assert [b.score for b in on_report.batches] == [
        b.score for b in off_report.batches
    ]
    # The headline pin: engine_stats may not even reveal which path ran.
    assert on_report.engine_stats == off_report.engine_stats


class TestPlatformEquivalence:
    @needs_numpy
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_numpy_backend(self, instance, name):
        on_report, on_aux = _run(instance, name, True)
        off_report, off_aux = _run(instance, name, False)
        _assert_identical(on_report, off_report)
        # The auxiliary telemetry is where the modes ARE allowed to differ.
        assert on_aux["columnar_full_builds"] >= 1
        assert off_aux["columnar_full_builds"] == 0
        assert off_aux["columnar_pairs"] == 0

    @needs_numpy
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_fallback_backend(self, instance, name, monkeypatch):
        """The numpy-less fallback: the instance's own metric, run scalar."""
        on_report, _ = _run(instance, name, True)
        without_numpy(monkeypatch)
        off_report, off_aux = _run(instance, name, True)
        _assert_identical(on_report, off_report)
        assert off_aux["columnar_full_builds"] == off_aux["columnar_pairs"] == 0

    @needs_numpy
    @pytest.mark.parametrize("rejoin", list(RejoinPolicy))
    def test_every_rejoin_policy(self, instance, rejoin):
        on_report, _ = _run(instance, "Greedy", True, rejoin)
        off_report, _ = _run(instance, "Greedy", False, rejoin)
        _assert_identical(on_report, off_report)


class TestEngineGraphAndCache:
    @needs_numpy
    @pytest.mark.parametrize("use_index", [True, False])
    def test_graph_counters_and_cache_trajectory(self, instance, use_index):
        engines = {}
        for columnar in (True, False):
            engine = AllocationEngine(
                instance if columnar else _scalar(instance), use_index=use_index
            )
            engine.begin_batch(
                instance.workers, instance.tasks, instance.earliest_start
            )
            engines[columnar] = engine
        on, off = engines[True], engines[False]
        assert on._tasks_of == off._tasks_of
        assert on._workers_of == off._workers_of
        assert on.stats() == off.stats()
        assert on.columnar_active and not off.columnar_active

    @needs_numpy
    def test_fallback_backend_engine(self, instance, monkeypatch):
        """Without numpy the engine goes scalar over the same metric."""
        results = {}
        for numpy in (True, False):
            if not numpy:
                without_numpy(monkeypatch)
            engine = AllocationEngine(instance)
            engine.begin_batch(
                instance.workers, instance.tasks, instance.earliest_start
            )
            assert engine.columnar_active is numpy
            results[numpy] = (engine._tasks_of, engine.stats())
        assert results[True] == results[False]

    def test_road_network_metric_is_ineligible(self):
        """No ``columnar_code`` -> the scalar path runs even with numpy."""
        from repro.spatial.region import BoundingBox
        from repro.spatial.roadnet import RoadNetworkDistance, grid_road_network
        import random

        from repro.core.instance import ProblemInstance
        from repro.core.skills import SkillUniverse

        base = generate_synthetic(SyntheticConfig(seed=5).scaled(0.03))
        net = grid_road_network(
            BoundingBox(-1.0, -1.0, 11.0, 11.0), 6, 6, rng=random.Random(3)
        )
        instance = ProblemInstance(
            workers=base.workers,
            tasks=base.tasks,
            skills=SkillUniverse(size=base.skills.size),
            metric=RoadNetworkDistance(net),
        )
        engine = AllocationEngine(instance)
        assert not engine.columnar_active


class TestFeasibilityChecker:
    @needs_numpy
    @pytest.mark.parametrize(
        "metric,scalar",
        [(EuclideanDistance(), ScalarEuclidean()), (ManhattanDistance(), ScalarManhattan())],
        ids=["metric0", "metric1"],
    )
    @pytest.mark.parametrize("use_index", [True, False])
    @pytest.mark.parametrize("now", [-math.inf, 0.0, 9.0])
    def test_checker_columnar_equivalence(
        self, instance, metric, scalar, use_index, now
    ):
        on = FeasibilityChecker(
            instance.workers, instance.tasks, metric, now, use_index=use_index
        )
        off = FeasibilityChecker(
            instance.workers, instance.tasks, scalar, now, use_index=use_index
        )
        assert on._columnar_code is not None and off._columnar_code is None
        assert on._tasks_of == off._tasks_of
        assert on._workers_of == off._workers_of
