"""AllocationEngine: incremental graph maintenance and instrumentation."""

from repro.engine import AllocationEngine, BatchFeasibilityView

from tests.reference import ExhaustiveChecker


class TestEngineViewParity:
    def test_first_batch_matches_exhaustive_oracle(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        now = instance.earliest_start
        context = engine.begin_batch(instance.workers, instance.tasks, now)
        view = context.checker
        fresh = ExhaustiveChecker(instance.workers, instance.tasks, now=now)
        assert isinstance(view, BatchFeasibilityView)
        for worker in instance.workers:
            assert view.tasks_of(worker.id) == fresh.tasks_of(worker.id)
        for task in instance.tasks:
            assert view.workers_of(task.id) == fresh.workers_of(task.id)
        assert view.pair_count() == fresh.pair_count()
        assert sorted(view.pairs()) == sorted(fresh.pairs())

    def test_feasible_agrees_with_rows(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        context = engine.begin_batch(
            instance.workers, instance.tasks, instance.earliest_start
        )
        view = context.checker
        for worker in instance.workers:
            row = set(view.tasks_of(worker.id))
            for task in instance.tasks:
                assert view.feasible(worker.id, task.id) == (task.id in row)


class TestIncrementalMaintenance:
    def test_second_batch_is_incremental(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        now = instance.earliest_start
        engine.begin_batch(instance.workers, instance.tasks, now)
        engine.begin_batch(instance.workers, instance.tasks, now + 1.0)
        stats = engine.stats()
        assert stats["engine_full_builds"] == 1.0
        assert stats["engine_incremental_updates"] == 1.0

    def test_unchanged_population_recomputes_nothing(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        now = instance.earliest_start
        engine.begin_batch(instance.workers, instance.tasks, now)
        rows_after_build = engine.counters.worker_rows_recomputed
        engine.begin_batch(instance.workers, instance.tasks, now + 1.0)
        assert engine.counters.worker_rows_recomputed == rows_after_build
        assert engine.counters.tasks_added == 0
        assert engine.counters.tasks_removed == 0

    def test_removed_tasks_are_unlinked(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        now = instance.earliest_start
        engine.begin_batch(instance.workers, instance.tasks, now)
        kept = instance.tasks[: len(instance.tasks) // 2]
        context = engine.begin_batch(instance.workers, kept, now + 1.0)
        kept_ids = {t.id for t in kept}
        assert engine.num_tasks == len(kept)
        for worker in instance.workers:
            assert set(context.checker.tasks_of(worker.id)) <= kept_ids

    def test_relocated_worker_row_is_recomputed(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        now = instance.earliest_start
        engine.begin_batch(instance.workers, instance.tasks, now)
        moved = instance.workers[0].relocated(
            instance.tasks[0].location, now + 1.0, travelled=0.0
        )
        workers = [moved] + instance.workers[1:]
        before = engine.counters.worker_rows_recomputed
        context = engine.begin_batch(workers, instance.tasks, now + 1.0)
        assert engine.counters.worker_rows_recomputed == before + 1
        fresh = ExhaustiveChecker(workers, instance.tasks, now=now + 1.0)
        assert sorted(context.checker.pairs()) == sorted(fresh.pairs())

    def test_absent_worker_is_dropped(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        now = instance.earliest_start
        engine.begin_batch(instance.workers, instance.tasks, now)
        remaining = instance.workers[1:]
        context = engine.begin_batch(remaining, instance.tasks, now + 1.0)
        gone = instance.workers[0].id
        assert engine.num_workers == len(remaining)
        assert context.checker.tasks_of(gone) == []
        for task in instance.tasks:
            assert gone not in context.checker.workers_of(task.id)

    def test_new_task_is_linked(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        now = instance.earliest_start
        first, rest = instance.tasks[0], instance.tasks[1:]
        engine.begin_batch(instance.workers, rest, now)
        context = engine.begin_batch(instance.workers, instance.tasks, now + 1.0)
        assert engine.counters.tasks_added == 1
        fresh = ExhaustiveChecker(instance.workers, instance.tasks, now=now + 1.0)
        assert context.checker.workers_of(first.id) == fresh.workers_of(first.id)

    def test_time_backwards_resets(self, small_synthetic):
        instance = small_synthetic
        engine = AllocationEngine(instance)
        for now in (instance.earliest_start + 10.0, instance.earliest_start):
            engine.begin_batch(instance.workers, instance.tasks, now)
        stats = engine.stats()
        assert stats["engine_full_builds"] == 2.0
        assert stats["engine_incremental_updates"] == 0.0

    def test_time_backwards_restores_expired_pairs(self, small_synthetic):
        # Rows synced at a late time have dropped pairs whose deadline had
        # passed; going back to an earlier time must bring them back.
        instance = small_synthetic
        early = instance.earliest_start
        late = max(t.start + t.wait for t in instance.tasks) - 1.0
        at_early = ExhaustiveChecker(instance.workers, instance.tasks, now=early)
        at_late = ExhaustiveChecker(instance.workers, instance.tasks, now=late)
        assert at_late.pair_count() < at_early.pair_count()
        engine = AllocationEngine(instance)
        engine.begin_batch(instance.workers, instance.tasks, late)
        context = engine.begin_batch(instance.workers, instance.tasks, early)
        assert sorted(context.checker.pairs()) == sorted(at_early.pairs())


class TestEngineStats:
    def test_stats_keys_are_prefixed(self, example1):
        engine = AllocationEngine(example1)
        engine.begin_batch(example1.workers, example1.tasks, 0.0)
        stats = engine.stats()
        assert stats and all(key.startswith("engine_") for key in stats)

    def test_cache_counters_flow_into_stats(self, example1):
        from repro.algorithms.baselines import ClosestBaseline

        engine = AllocationEngine(example1)
        context = engine.begin_batch(example1.workers, example1.tasks, 0.0)
        ClosestBaseline().allocate(context)
        # There is no distance cache: the two keys stay in the stats (the
        # benchmark's per-layer split reads them) and stay zero.
        stats = engine.stats()
        assert stats["engine_cache_misses"] == stats["engine_cache_hits"] == 0.0
        assert context.engine_stats()["engine_cache_hits"] == 0.0
        assert context.metric is example1.metric

    def test_per_batch_deltas_reset_between_contexts(self, example1):
        engine = AllocationEngine(example1)
        first = engine.begin_batch(example1.workers, example1.tasks, 0.0)
        first.checker
        first_stats = first.engine_stats()
        assert first_stats["engine_full_builds"] == 1.0
        second = engine.begin_batch(example1.workers, example1.tasks, 1.0)
        second.checker
        second_stats = second.engine_stats()
        assert second_stats["engine_full_builds"] == 0.0
        assert second_stats["engine_incremental_updates"] == 1.0
        assert second_stats["engine_time_filtered"] > 0.0
