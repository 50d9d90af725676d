"""Constraint tests and the standalone feasible-pair oracle."""

import math

from repro.core.constraints import (
    deadline_ok,
    latest_departure,
    pair_feasible,
    skill_ok,
    within_range,
)
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext
from repro.spatial.distance import (
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
)

from tests.reference import ExhaustiveChecker


def worker(**overrides):
    base = dict(id=0, location=(0.0, 0.0), start=0.0, wait=10.0, velocity=1.0,
                max_distance=100.0, skills=frozenset({0}))
    base.update(overrides)
    return Worker(**base)


def task(**overrides):
    base = dict(id=0, location=(3.0, 4.0), start=0.0, wait=10.0, skill=0)
    base.update(overrides)
    return Task(**base)


class TestSkill:
    def test_matching_skill(self):
        assert skill_ok(worker(), task())

    def test_missing_skill(self):
        assert not skill_ok(worker(skills=frozenset({1})), task())


class TestDistance:
    def test_within_budget(self):
        assert within_range(worker(max_distance=5.0), task())

    def test_outside_budget(self):
        assert not within_range(worker(max_distance=4.9), task())

    def test_custom_metric(self):
        # Manhattan distance to (3, 4) is 7.
        assert not within_range(worker(max_distance=5.0), task(), ManhattanDistance())
        assert within_range(worker(max_distance=7.0), task(), ManhattanDistance())


class TestDeadline:
    def test_reachable_in_time(self):
        # distance 5, velocity 1 -> arrival at 5 <= deadline 10
        assert deadline_ok(worker(), task())

    def test_too_slow(self):
        assert not deadline_ok(worker(velocity=0.4), task())

    def test_paper_formula_with_worker_starting_late(self):
        # w_t - max(s_w - s_t, 0) - ct >= 0: task window 10, worker starts at
        # 6 -> only 4 time units remain, travel takes 5.
        late = worker(start=6.0)
        assert not deadline_ok(late, task())
        assert deadline_ok(worker(start=5.0), task())

    def test_task_appearing_after_worker_leaves(self):
        # s_t <= s_w + w_w fails: worker gone at 10, task starts at 11.
        assert not deadline_ok(worker(), task(start=11.0))

    def test_worker_appearing_after_task_expires(self):
        assert not deadline_ok(worker(start=50.0), task())

    def test_now_postpones_departure(self):
        # At now=6 only 4 units remain before the task deadline.
        assert deadline_ok(worker(), task(), now=5.0)
        assert not deadline_ok(worker(), task(), now=5.1)

    def test_zero_velocity_colocated(self):
        assert deadline_ok(worker(velocity=0.0, location=(3.0, 4.0)), task())

    def test_zero_velocity_remote(self):
        assert not deadline_ok(worker(velocity=0.0), task())


class TestLatestDeparture:
    def test_maximum_of_three(self):
        w, t = worker(start=2.0), task(start=5.0)
        assert latest_departure(w, t) == 5.0
        assert latest_departure(w, t, now=7.0) == 7.0


class TestPairFeasible:
    def test_all_constraints_required(self):
        assert pair_feasible(worker(), task())
        assert not pair_feasible(worker(skills=frozenset({9})), task())
        assert not pair_feasible(worker(max_distance=1.0), task())
        assert not pair_feasible(worker(velocity=0.1), task())


class TestStandaloneOracle:
    """A standalone context's oracle: a one-shot engine's view."""

    def _build(self, workers, tasks, metric=None, now=-math.inf):
        instance = ProblemInstance(
            list(workers), list(tasks), SkillUniverse(16),
            metric=metric or EuclideanDistance(),
        )
        return BatchContext.standalone(workers, tasks, instance, now).checker

    def test_matches_exhaustive_oracle(self):
        import random

        rng = random.Random(4)
        workers = [
            worker(id=i, location=(rng.random(), rng.random()),
                   velocity=rng.uniform(0.1, 2.0), max_distance=rng.uniform(0.1, 1.0),
                   skills=frozenset({rng.randrange(3)}))
            for i in range(40)
        ]
        tasks = [
            task(id=i, location=(rng.random(), rng.random()),
                 skill=rng.randrange(3), wait=rng.uniform(0.5, 3.0))
            for i in range(40)
        ]
        built = self._build(workers, tasks, now=0.0)
        oracle = ExhaustiveChecker(workers, tasks, now=0.0)
        assert sorted(built.pairs()) == sorted(oracle.pairs())

    def test_pair_count_and_lookup_consistency(self):
        workers = [worker(id=1), worker(id=2, skills=frozenset({1}))]
        tasks = [task(id=1), task(id=2, skill=1)]
        checker = self._build(workers, tasks)
        assert checker.pair_count() == 2
        assert checker.tasks_of(1) == [1]
        assert checker.workers_of(2) == [2]
        assert checker.feasible(1, 1)
        assert not checker.feasible(1, 2)

    def test_empty_inputs(self):
        checker = self._build([], [])
        assert checker.pair_count() == 0
        assert checker.tasks_of(0) == []
        assert checker.workers_of(0) == []

    def test_manhattan_checked_exactly(self):
        checker = self._build(
            [worker(max_distance=6.0)], [task()], metric=ManhattanDistance()
        )
        # Manhattan distance 7 > 6 -> infeasible even though Euclidean is 5.
        assert checker.pair_count() == 0

    def test_haversine(self):
        checker = self._build(
            [worker(max_distance=1000.0, location=(114.0, 22.3))],
            [task(location=(114.01, 22.31), wait=1e9)],
            metric=HaversineDistance(),
        )
        assert checker.pair_count() == 1
