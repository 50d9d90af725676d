"""Assignment and validity tests."""

import pytest

from repro.core.assignment import Assignment
from repro.core.dependency import DependencyGraph
from repro.core.exceptions import DascError


class TestStructure:
    def test_add_and_lookup(self):
        a = Assignment()
        a.add(1, 10)
        assert a.task_of(1) == 10
        assert a.worker_of(10) == 1
        assert (1, 10) in a
        assert (1, 11) not in a
        assert a.score == 1

    def test_exclusive_worker(self):
        a = Assignment([(1, 10)])
        with pytest.raises(DascError, match="worker 1 already"):
            a.add(1, 11)

    def test_exclusive_task(self):
        a = Assignment([(1, 10)])
        with pytest.raises(DascError, match="task 10 already"):
            a.add(2, 10)

    def test_remove_task(self):
        a = Assignment([(1, 10), (2, 20)])
        a.remove_task(10)
        assert a.score == 1
        assert a.task_of(1) is None
        assert a.worker_of(20) == 2

    def test_pairs_sorted_by_worker(self):
        a = Assignment([(3, 30), (1, 10), (2, 20)])
        assert list(a.pairs()) == [(1, 10), (2, 20), (3, 30)]

    def test_equality_and_copy(self):
        a = Assignment([(1, 10)])
        b = a.copy()
        assert a == b
        b.add(2, 20)
        assert a != b
        assert a.score == 1

    def test_bool(self):
        assert not Assignment()
        assert Assignment([(1, 2)])

    def test_assigned_sets(self):
        a = Assignment([(1, 10), (2, 20)])
        assert a.assigned_workers() == {1, 2}
        assert a.assigned_tasks() == {10, 20}


class TestDependencyPruning:
    def graph(self):
        return DependencyGraph({10: set(), 20: {10}, 30: {20}, 40: set()})

    def test_keeps_closed_chains(self):
        a = Assignment([(1, 10), (2, 20), (3, 30), (4, 40)])
        pruned = a.prune_dependency_violations(self.graph())
        assert pruned.score == 4

    def test_drops_orphan(self):
        a = Assignment([(2, 20)])
        pruned = a.prune_dependency_violations(self.graph())
        assert pruned.score == 0

    def test_cascading_drop(self):
        # 30 depends on 20 which depends on the unassigned 10: both must go.
        a = Assignment([(2, 20), (3, 30), (4, 40)])
        pruned = a.prune_dependency_violations(self.graph())
        assert pruned.assigned_tasks() == {40}

    def test_previously_assigned_satisfies(self):
        a = Assignment([(2, 20)])
        pruned = a.prune_dependency_violations(self.graph(), previously_assigned={10})
        assert pruned.score == 1

    def test_original_untouched(self):
        a = Assignment([(2, 20)])
        a.prune_dependency_violations(self.graph())
        assert a.score == 1


class TestValidation:
    def test_valid_example_assignment(self, example1):
        a = Assignment([(1, 2), (3, 1), (2, 4)])
        assert a.is_valid(example1)
        assert a.violations(example1) == []

    def test_skill_violation(self, example1):
        a = Assignment([(2, 1)])  # w2 only has psi-4; t1 needs psi-1
        violations = a.violations(example1)
        assert [v.constraint for v in violations] == ["skill"]

    def test_dependency_violation(self, example1):
        a = Assignment([(1, 2)])  # t2 depends on unassigned t1
        violations = a.violations(example1)
        assert [v.constraint for v in violations] == ["dependency"]
        assert "1" in violations[0].detail

    def test_dependency_satisfied_by_previous_batches(self, example1):
        a = Assignment([(1, 2)])
        assert a.is_valid(example1, previously_assigned={1})

    def test_unknown_ids_reported(self, example1):
        # Unknown workers and unknown tasks alike, in pair (worker-id) order.
        a = Assignment([(99, 1), (1, 98), (3, 2)])
        violations = a.violations(example1)
        assert [(v.constraint, v.worker_id, v.task_id) for v in violations] == [
            ("unknown-id", 1, 98),
            ("unknown-id", 99, 1),
        ]
        assert violations[0].detail == (
            "pair (1, 98) references ids absent from the instance"
        )

    def test_distance_violation(self, example1):
        # Shrink w1's budget below its distance to t1 (2.0).
        from repro.core.worker import Worker

        small = Worker(id=1, location=(2.0, 1.0), start=0.0, wait=1000.0,
                       velocity=1000.0, max_distance=1.0,
                       skills=frozenset({0, 1}))
        instance = example1
        instance.workers[0] = small
        instance._worker_by_id[1] = small
        a = Assignment([(1, 1)])
        constraints = [v.constraint for v in a.violations(instance)]
        assert "distance" in constraints

    def test_one_metric_query_per_pair(self, example1):
        # The range and deadline checks share one distance per pair.
        from repro.core.worker import Worker
        from repro.spatial.distance import EuclideanDistance

        class CountingMetric(EuclideanDistance):
            calls = 0

            def __call__(self, a, b):
                CountingMetric.calls += 1
                return super().__call__(a, b)

        slow = Worker(id=1, location=(2.0, 1.0), start=0.0, wait=1000.0,
                      velocity=1e-6, max_distance=1000.0,
                      skills=frozenset({0, 1}))
        example1.workers[0] = slow
        example1._worker_by_id[1] = slow
        example1.metric = CountingMetric()
        a = Assignment([(1, 1), (3, 2), (2, 4)])
        violations = a.violations(example1)
        assert ("deadline", 1, 1) in [
            (v.constraint, v.worker_id, v.task_id) for v in violations
        ]
        assert CountingMetric.calls == a.score
