"""Acceptance: exact-mode sharding is bit-identical to the unsharded engine.

The ISSUE's contract: on a boundary-free instance (no reach disc crosses a
shard boundary, every task visible at batch 0) the sharded platform's
``SimulationReport`` AND ``engine_stats`` must be byte-for-byte equal to
the unsharded run, for every registered approach and both partition
schemes.  Stats identity additionally needs all tasks visible at batch 0:
the unsharded engine links an *arriving* task against every worker while a
shard only checks its own residents — that asymmetry is the scale-out win,
so it is excluded from the identity pin rather than papered over.
"""

from dataclasses import replace

import pytest

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.shard.engine import ShardedEngine
from repro.shard.partition import SCHEMES
from repro.simulation.platform import Platform, RejoinPolicy
from tests.reference import ScalarEuclidean


def _run(instance, name, shards=1, scheme="grid", columnar=True):
    platform = Platform(
        instance if columnar else replace(instance, metric=ScalarEuclidean()),
        make_allocator(name, seed=11),
        batch_interval=5.0,
        rejoin=RejoinPolicy.REMAINING,
        shards=shards,
        shard_scheme=scheme,
    )
    return platform.run()


def _assert_identical(sharded, unsharded):
    assert sharded.assignments == unsharded.assignments
    assert sharded.completion_times == unsharded.completion_times
    assert sharded.expired_tasks == unsharded.expired_tasks
    assert [b.score for b in sharded.batches] == [
        b.score for b in unsharded.batches
    ]
    # The headline pin: the counters may not even reveal sharding ran.
    assert sharded.engine_stats == unsharded.engine_stats


class TestExactEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_both_schemes(
        self, boundary_free_instance, name, scheme
    ):
        sharded = _run(boundary_free_instance, name, shards=4, scheme=scheme)
        unsharded = _run(boundary_free_instance, name)
        _assert_identical(sharded, unsharded)

    def test_scalar_engines_identical_too(self, boundary_free_instance):
        sharded = _run(boundary_free_instance, "Greedy", shards=4, columnar=False)
        unsharded = _run(boundary_free_instance, "Greedy", columnar=False)
        _assert_identical(sharded, unsharded)

    def test_shard_count_not_dividing_clusters(self, boundary_free_instance):
        # 2 shards over 4 clusters: each shard owns two whole clusters, so
        # the run is still boundary-free and the pin still holds.
        sharded = _run(boundary_free_instance, "Greedy", shards=2)
        unsharded = _run(boundary_free_instance, "Greedy")
        _assert_identical(sharded, unsharded)


class TestExactEngineDirect:
    def test_merged_view_matches_unsharded_checker(self, boundary_free_instance):
        from repro.engine.engine import AllocationEngine

        instance = boundary_free_instance
        now = instance.earliest_start
        flat = AllocationEngine(instance)
        flat_ctx = flat.begin_batch(instance.workers, instance.tasks, now)
        sharded = ShardedEngine(instance, 4, scheme="kd")
        shard_ctx = sharded.begin_batch(instance.workers, instance.tasks, now)
        flat_view = flat_ctx.checker
        shard_view = shard_ctx.checker
        assert {w.id for w in shard_view.workers} == {w.id for w in flat_view.workers}
        for worker in instance.workers:
            assert list(shard_view.tasks_of(worker.id)) == list(
                flat_view.tasks_of(worker.id)
            )
        for task in instance.tasks:
            assert list(shard_view.workers_of(task.id)) == list(
                flat_view.workers_of(task.id)
            )
        assert shard_view.pair_count() == flat_view.pair_count()

    def test_aggregate_stats_match_unsharded(self, boundary_free_instance):
        from repro.engine.engine import AllocationEngine

        instance = boundary_free_instance
        now = instance.earliest_start
        flat = AllocationEngine(instance)
        flat.begin_batch(instance.workers, instance.tasks, now)
        sharded = ShardedEngine(instance, 4)
        sharded.begin_batch(instance.workers, instance.tasks, now)
        assert sharded.stats() == flat.stats()

    def test_incremental_second_batch_is_incremental(self, boundary_free_instance):
        instance = boundary_free_instance
        now = instance.earliest_start
        sharded = ShardedEngine(instance, 4)
        sharded.begin_batch(instance.workers, instance.tasks, now)
        first = sharded.stats()["engine_full_builds"]
        sharded.begin_batch(instance.workers, instance.tasks, now + 5.0)
        stats = sharded.stats()
        assert stats["engine_full_builds"] == first
        assert stats["engine_incremental_updates"] >= 1

    def test_time_backwards_resets(self, boundary_free_instance):
        instance = boundary_free_instance
        sharded = ShardedEngine(instance, 4)
        sharded.begin_batch(instance.workers, instance.tasks, 10.0)
        sharded.begin_batch(instance.workers, instance.tasks, 0.0)
        assert sharded.stats()["engine_full_builds"] >= 2

    def test_needs_at_least_two_shards(self, boundary_free_instance):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedEngine(boundary_free_instance, 1)

    def test_unknown_mode_rejected(self, boundary_free_instance):
        with pytest.raises(ValueError, match="mode"):
            ShardedEngine(boundary_free_instance, 2, mode="optimistic")


class TestPlatformValidation:
    def test_bad_scheme_rejected(self, boundary_free_instance):
        with pytest.raises(ValueError, match="shard scheme"):
            Platform(
                boundary_free_instance,
                make_allocator("Greedy", seed=11),
                batch_interval=5.0,
                shards=2,
                shard_scheme="voronoi",
            )

    def test_bad_mode_rejected(self, boundary_free_instance):
        with pytest.raises(ValueError, match="shard mode"):
            Platform(
                boundary_free_instance,
                make_allocator("Greedy", seed=11),
                batch_interval=5.0,
                shards=2,
                shard_mode="eventual",
            )

    def test_shards_below_one_rejected(self, boundary_free_instance):
        with pytest.raises(ValueError, match="shards"):
            Platform(
                boundary_free_instance,
                make_allocator("Greedy", seed=11),
                batch_interval=5.0,
                shards=0,
            )
