"""BatchContext, ReadinessView and the allocate() compatibility shim."""

import math

import pytest

from repro.algorithms.greedy import DASCGreedy
from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.core.constraints import FeasibilityChecker
from repro.engine import AllocationEngine, BatchContext, ReadinessView


class TestStandaloneContext:
    def test_checker_is_lazy_and_memoized(self, example1):
        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1, 0.0
        )
        assert context._checker is None
        first = context.checker
        assert isinstance(first, FeasibilityChecker)
        assert context.checker is first

    def test_matches_fresh_checker(self, example1):
        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1, 0.0
        )
        fresh = FeasibilityChecker(example1.workers, example1.tasks, now=0.0)
        assert sorted(context.checker.pairs()) == sorted(fresh.pairs())

    def test_prebuilt_checker_is_returned(self, example1):
        prebuilt = FeasibilityChecker(example1.workers, example1.tasks, now=0.0)
        context = BatchContext(
            example1.workers, example1.tasks, example1, 0.0, checker=prebuilt
        )
        assert context.checker is prebuilt

    def test_engine_context_holds_its_view_before_any_read(self, example1):
        engine = AllocationEngine(example1)
        before = engine.stats()["engine_time_filtered"]
        context = engine.begin_batch(example1.workers, example1.tasks, 0.0)
        # The view was built (and its links filtered) inside begin_batch.
        assert context._checker is not None
        assert engine.stats()["engine_time_filtered"] > before
        fresh = FeasibilityChecker(example1.workers, example1.tasks, now=0.0)
        assert sorted(context.checker.pairs()) == sorted(fresh.pairs())

    def test_engine_stats_empty(self, example1):
        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1
        )
        assert context.engine_stats() == {}

    def test_metric_defaults_to_instance_metric(self, example1):
        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1
        )
        assert context.metric is example1.metric


class TestAllocateShim:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_context_and_legacy_calls_agree(self, example1, name):
        allocator = make_allocator(name, seed=3)
        legacy = allocator.allocate(
            example1.workers, example1.tasks, example1, 0.0, frozenset()
        )
        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1, 0.0
        )
        via_context = allocator.allocate(context)
        assert sorted(legacy.assignment.pairs()) == sorted(
            via_context.assignment.pairs()
        )

    def test_mixing_context_and_legacy_args_raises(self, example1):
        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1
        )
        with pytest.raises(TypeError):
            DASCGreedy().allocate(context, example1.tasks)

    def test_legacy_call_requires_instance(self, example1):
        with pytest.raises(TypeError):
            DASCGreedy().allocate(example1.workers, example1.tasks)

    def test_legacy_default_now_is_minus_inf(self, example1):
        outcome = DASCGreedy().allocate(
            example1.workers, example1.tasks, example1
        )
        assert outcome.score == 3  # the paper's dependency-aware optimum

    def test_engine_context_outcome_carries_engine_stats(self, example1):
        engine = AllocationEngine(example1)
        context = engine.begin_batch(example1.workers, example1.tasks, 0.0)
        outcome = DASCGreedy().allocate(context)
        assert any(key.startswith("engine_") for key in outcome.stats)
        assert outcome.stats["engine_full_builds"] == 1.0


class TestReadinessView:
    def test_tracks_previous_and_picks(self, example1):
        graph = example1.dependency_graph
        view = ReadinessView(graph, previously_assigned={1})
        assert view.ready(2)  # t2 depends on t1
        assert not view.ready(3)  # t3 depends on t1 and t2
        view.mark(2)
        assert view.ready(3)
        assert 2 in view and 1 in view and 3 not in view

    def test_extend_and_assigned_ids(self, example1):
        view = ReadinessView(example1.dependency_graph)
        view.extend([1, 4])
        assert view.assigned_ids == {1, 4}
        assert view.ready(5)  # t5 depends on t4

    def test_unknown_task_is_ready(self, example1):
        view = ReadinessView(example1.dependency_graph)
        assert view.ready(999)  # not in the graph -> no dependencies

    def test_context_readiness_seeds_previously_assigned(self, example1):
        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1,
            previously_assigned={4},
        )
        view = context.readiness(picks=[1])
        assert view.ready(2) and view.ready(5)
        assert not view.ready(3)


class TestEmptyBatches:
    def test_no_workers(self, example1):
        outcome = DASCGreedy().allocate([], example1.tasks, example1, 0.0)
        assert outcome.score == 0

    def test_no_tasks(self, example1):
        outcome = DASCGreedy().allocate(
            example1.workers, [], example1, 0.0
        )
        assert outcome.score == 0

    def test_empty_batch_never_builds_a_checker(self, example1):
        context = BatchContext.standalone([], [], example1, 0.0)
        DASCGreedy().allocate(context)
        assert context._checker is None  # lazy property untouched
