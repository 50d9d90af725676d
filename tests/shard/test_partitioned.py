"""The sharded two-phase protocol: validity, reconcile, and quality.

Sharding trades exactness for per-shard parallelism, so the pins here are
structural rather than bit-level: every emitted pair is feasible under the
*global* checker, every committed batch of a full run satisfies the four
Definition-3 constraints, no worker or task is ever double-assigned across
shards or the reconcile phase, border/reconcile telemetry is reported, and
measured quality on a genuinely bordered workload stays within the gated
ratio of the unsharded solution.
"""

import pytest

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.core.constraints import FeasibilityChecker, index_cell_size
from repro.engine.context import BatchContext
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.shard.engine import ShardedEngine
from repro.simulation.platform import Platform, RejoinPolicy

QUALITY_FLOOR = 0.9


def _allocate_once(instance, name="Greedy"):
    engine = ShardedEngine(instance, 4)
    allocator = make_allocator(name, seed=11)
    now = instance.earliest_start
    outcome = engine.allocate(
        allocator, instance.workers, instance.tasks, now, frozenset()
    )
    return engine, outcome, now


def _platform_report(instance, name, shards=1, **kwargs):
    platform = Platform(
        instance,
        make_allocator(name, seed=11),
        batch_interval=5.0,
        rejoin=RejoinPolicy.REMAINING,
        shards=shards,
        **kwargs,
    )
    return platform.run()


def _total_score(report):
    return sum(batch.score for batch in report.batches)


class TestCoordinator:
    def test_incremental_second_batch_is_incremental(self, boundary_free_instance):
        instance = boundary_free_instance
        now = instance.earliest_start
        engine, _, _ = _allocate_once(instance)
        first = engine.stats()["engine_full_builds"]
        engine.allocate(
            make_allocator("Greedy", seed=11),
            instance.workers, instance.tasks, now + 5.0, frozenset(),
        )
        stats = engine.stats()
        assert stats["engine_full_builds"] == first
        assert stats["engine_incremental_updates"] >= 1

    def test_time_backwards_resets(self, boundary_free_instance):
        instance = boundary_free_instance
        engine = ShardedEngine(instance, 4)
        for now in (10.0, 0.0):
            engine.allocate(
                make_allocator("Greedy", seed=11),
                instance.workers, instance.tasks, now, frozenset(),
            )
        assert engine.stats()["engine_full_builds"] >= 2

    @pytest.mark.parametrize("fixture", ["boundary_free_instance", "bordered_instance"])
    def test_shard_index_cell_is_the_whole_batch_cell(self, request, fixture):
        instance = request.getfixturevalue(fixture)
        engine, _, now = _allocate_once(instance)
        cell = index_cell_size(instance.workers, instance.tasks, now)
        assert cell is not None
        for shard_engine in engine.engines:
            assert shard_engine.forced_cell == cell
            if shard_engine._index is not None:
                assert shard_engine._index.cell_size == cell

    def test_needs_at_least_two_shards(self, boundary_free_instance):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedEngine(boundary_free_instance, 1)


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

    def test_shards_below_one_rejected(self, boundary_free_instance):
        with pytest.raises(ValueError, match="shards"):
            Platform(
                boundary_free_instance,
                make_allocator("Greedy", seed=11),
                batch_interval=5.0,
                shards=0,
            )


class TestStructuralValidity:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_pair_globally_feasible(self, bordered_instance, name):
        instance = bordered_instance
        _, outcome, now = _allocate_once(instance, name)
        checker = FeasibilityChecker(
            instance.workers, instance.tasks, instance.metric, now
        )
        pairs = list(outcome.assignment.pairs())
        assert pairs, "bordered workload should produce assignments"
        for wid, tid in pairs:
            assert checker.feasible(wid, tid)

    def test_no_double_assignment(self, bordered_instance):
        _, outcome, _ = _allocate_once(bordered_instance)
        pairs = list(outcome.assignment.pairs())
        wids = [w for w, _ in pairs]
        tids = [t for _, t in pairs]
        assert len(wids) == len(set(wids))
        assert len(tids) == len(set(tids))

    def test_previously_assigned_tasks_untouched(self, bordered_instance):
        instance = bordered_instance
        engine = ShardedEngine(instance, 4)
        allocator = make_allocator("Greedy", seed=11)
        now = instance.earliest_start
        blocked = frozenset(t.id for t in instance.tasks[: len(instance.tasks) // 2])
        outcome = engine.allocate(
            allocator, instance.workers, instance.tasks, now, blocked
        )
        assert not {t for _, t in outcome.assignment.pairs()} & blocked


class TestReconcileTelemetry:
    def test_border_and_reconcile_counters(self, bordered_instance):
        engine, outcome, _ = _allocate_once(bordered_instance)
        stats = outcome.stats
        assert stats["shard_phase1_shards"] >= 2
        assert stats["shard_border_workers"] > 0
        assert stats["shard_reconcile_pairs"] > 0
        assert stats["shard_reconcile_assigned"] >= 0
        # The registry mirrors the per-call stats cumulatively.
        assert (
            engine.registry.counter("shard_border_workers").value
            == stats["shard_border_workers"]
        )

    def test_boundary_free_has_no_border_work(self, boundary_free_instance):
        engine, outcome, _ = _allocate_once(boundary_free_instance)
        assert outcome.stats["shard_border_workers"] == 0
        assert outcome.stats["shard_reconcile_pairs"] == 0
        assert engine.registry.counter("shard_conflicts_dropped").value == 0

    def test_densest_shard_gauge_updates(self, bordered_instance):
        engine, _, _ = _allocate_once(bordered_instance)
        engine.stats()
        assert engine.registry.gauge("shard_densest_pairs").value > 0
        assert engine.registry.gauge("shard_count").value == 4


class TestQuality:
    def test_boundary_free_partitioned_matches_unsharded_score(
        self, boundary_free_instance
    ):
        # With no border workers the per-shard subproblems are independent,
        # so the merged total matches the unsharded total.  (The specific
        # worker-task pairing — and hence per-batch timing — may differ:
        # the allocator's tie-breaking sees shards one at a time instead
        # of interleaved.)
        sharded = _platform_report(boundary_free_instance, "Greedy", shards=4)
        unsharded = _platform_report(boundary_free_instance, "Greedy")
        assert _total_score(sharded) == _total_score(unsharded)
        assert sharded.expired_tasks == unsharded.expired_tasks

    @pytest.mark.parametrize("name", ["Greedy", "Closest"])
    def test_bordered_quality_ratio(self, bordered_instance, name):
        sharded = _platform_report(bordered_instance, name, shards=4)
        unsharded = _platform_report(bordered_instance, name)
        assert _total_score(unsharded) > 0
        ratio = _total_score(sharded) / _total_score(unsharded)
        assert ratio >= QUALITY_FLOOR


def _cross_shard_chain_instance(n_links=3):
    """A dependency chain whose links alternate between two far clusters.

    Task ``k`` lives in cluster ``k % 2`` and depends on task ``k - 1`` in
    the *other* cluster; each cluster holds enough skilled workers to serve
    its links.  The clusters sit 100 apart with reach 5, so every worker is
    a core worker of its own shard — no border, no reconcile — and a
    per-shard allocator can never see the prerequisite pick made across
    the boundary in the same batch.
    """
    clusters = [(0.0, 0.0), (100.0, 0.0)]
    workers = []
    tasks = []
    for k in range(n_links):
        cx, cy = clusters[k % 2]
        workers.append(
            Worker(
                id=k,
                location=(cx, cy + k),
                start=0.0,
                wait=50.0,
                velocity=10.0,
                max_distance=5.0,
                skills=frozenset({0}),
            )
        )
        tasks.append(
            Task(
                id=k,
                location=(cx + 1.0, cy + k),
                start=0.0,
                wait=50.0,
                skill=0,
                dependencies=frozenset(range(k)),
            )
        )
    return ProblemInstance(workers, tasks, SkillUniverse(1), name="chain")


class TestCrossShardDependencies:
    """The dependency-retry pass: phase 1's one structural blind spot.

    A shard's allocator validates same-batch dependencies against its own
    picks only, so a task whose prerequisite lands in another shard the
    same batch gets pruned.  The post-merge retry pass must recover it —
    and chains of such tasks — within the batch.
    """

    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_chain_resolves_in_one_batch(self, name):
        # An even link count keeps the clusters population-balanced so the
        # KD cut lands in the 100-wide gap, not inside a cluster.
        instance = _cross_shard_chain_instance(n_links=4)
        engine = ShardedEngine(instance, 2, scheme="kd")
        allocator = make_allocator(name, seed=11)
        outcome = engine.allocate(
            allocator, instance.workers, instance.tasks, 0.0, frozenset()
        )
        # Without the retry pass only task 0 (the chain root) survives.
        assert len(list(outcome.assignment.pairs())) == 4
        assert outcome.stats["shard_dep_retry_assigned"] >= 3
        assert outcome.stats["shard_border_workers"] == 0

    def test_retry_matches_unsharded_single_batch(self):
        instance = _cross_shard_chain_instance(n_links=4)
        allocator = make_allocator("Greedy", seed=11)
        flat = allocator.allocate(
            BatchContext.standalone(
                instance.workers, instance.tasks, instance, 0.0, frozenset()
            )
        )
        engine = ShardedEngine(instance, 2, scheme="kd")
        sharded = engine.allocate(
            make_allocator("Greedy", seed=11),
            instance.workers,
            instance.tasks,
            0.0,
            frozenset(),
        )
        assert sharded.assignment.score == flat.assignment.score

    def test_retry_counter_mirrors_registry(self):
        instance = _cross_shard_chain_instance(n_links=4)
        engine = ShardedEngine(instance, 2, scheme="kd")
        outcome = engine.allocate(
            make_allocator("Closest", seed=11),
            instance.workers,
            instance.tasks,
            0.0,
            frozenset(),
        )
        assert (
            engine.registry.counter("shard_dep_retry_assigned").value
            == outcome.stats["shard_dep_retry_assigned"]
        )

    def test_no_dependencies_means_no_retry_work(self, bordered_instance):
        # The pass must stay free on dependency-light batches where no
        # prerequisite resolved cross-shard.
        engine, outcome, _ = _allocate_once(bordered_instance, "Closest")
        assert outcome.stats["shard_dep_retry_assigned"] == (
            engine.registry.counter("shard_dep_retry_assigned").value
        )


class _BatchView:
    """The instance as one batch saw it: the batch's own worker records.

    Rejoined workers are relocated copies, so a batch's assignment is
    checked against the records it was decided on, not the originals.
    """

    def __init__(self, instance, workers):
        self._instance = instance
        self._workers = {w.id: w for w in workers}
        self.worker_ids = frozenset(self._workers)
        self.task_ids = instance.task_ids
        self.metric = instance.metric
        self.dependency_graph = instance.dependency_graph

    def worker(self, worker_id):
        return self._workers[worker_id]

    def task(self, task_id):
        return self._instance.task(task_id)


class TestCheckedRuns:
    """Every batch a sharded platform run commits satisfies Definition 3.

    Skill, deadline, reach and dependency (the latter under the retry
    pass) per batch, plus exclusivity across batches.
    """

    @pytest.mark.parametrize("workload", ["bordered", "chain"])
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_batch_valid(self, bordered_instance, monkeypatch, name, workload):
        if workload == "bordered":
            instance, shards, scheme = bordered_instance, 4, "grid"
        else:
            instance, shards, scheme = _cross_shard_chain_instance(n_links=4), 2, "kd"
        batches = []
        allocate = ShardedEngine.allocate

        def checked(self, allocator, workers, tasks, now, previously_assigned):
            outcome = allocate(self, allocator, workers, tasks, now, previously_assigned)
            batches.append(
                (list(workers), {t.id for t in tasks}, now, previously_assigned, outcome)
            )
            return outcome

        monkeypatch.setattr(ShardedEngine, "allocate", checked)
        report = _platform_report(instance, name, shards=shards, shard_scheme=scheme)
        assert report.total_score > 0
        committed = set()
        for workers, open_ids, now, before, outcome in batches:
            view = _BatchView(instance, workers)
            assert outcome.assignment.violations(view, now, before) == []
            tids = [tid for _, tid in outcome.assignment.pairs()]
            assert set(tids) <= open_ids
            assert not set(tids) & committed
            committed.update(tids)
        assert committed == set(report.assignments)
        if workload == "chain":
            assert sum(o.stats["shard_dep_retry_assigned"] for *_, o in batches) > 0
