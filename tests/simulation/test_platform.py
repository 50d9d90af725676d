"""Platform simulator tests."""

import pytest

from repro.algorithms.greedy import DASCGreedy
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.simulation.platform import Platform, RejoinPolicy, run_single_batch


def sequential_instance(task_duration=0.0, worker_wait=100.0, task2_start=20.0):
    """One fast worker, two tasks appearing one after the other.

    The worker can serve both tasks only by being released back into the
    pool after the first completes.
    """
    skills = SkillUniverse(1)
    workers = [
        Worker(id=1, location=(0.0, 0.0), start=0.0, wait=worker_wait, velocity=1.0,
               max_distance=100.0, skills=frozenset({0})),
    ]
    tasks = [
        Task(id=1, location=(1.0, 0.0), start=0.0, wait=50.0, skill=0,
             duration=task_duration),
        Task(id=2, location=(2.0, 0.0), start=task2_start, wait=50.0, skill=0,
             duration=task_duration),
    ]
    return ProblemInstance(workers=workers, tasks=tasks, skills=skills)


class TestBasics:
    def test_rejects_bad_interval(self, example1):
        for interval in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                Platform(example1, DASCGreedy(), batch_interval=interval)

    def test_infinite_interval_batches_at_start_and_horizon(self, example1):
        from repro.obs.events import EventJournal

        journal = EventJournal()
        report = Platform(
            example1, DASCGreedy(), batch_interval=float("inf"), journal=journal
        ).run()
        opened = [event["t"] for event in journal.of_type("batch_open")]
        assert opened == [example1.earliest_start, example1.horizon]
        finite = Platform(example1, DASCGreedy(), batch_interval=10000.0).run()
        assert report.assignments == finite.assignments

    def test_empty_instance(self):
        skills = SkillUniverse(1)
        instance = ProblemInstance(workers=[], tasks=[], skills=skills)
        report = Platform(instance, DASCGreedy(), batch_interval=1.0).run()
        assert report.total_score == 0
        assert report.batches == []

    def test_example1_single_large_batch(self, example1):
        report = Platform(example1, DASCGreedy(), batch_interval=10000.0).run()
        assert report.total_score >= 3

    def test_report_bookkeeping(self, example1):
        report = Platform(example1, DASCGreedy(), batch_interval=10000.0).run()
        assert set(report.assignments) == {1, 2, 4} | set(report.assignments)
        for task_id, worker_id in report.assignments.items():
            assert task_id in example1.task_ids
            assert worker_id in example1.worker_ids
        assert all(t in report.completion_times for t in report.assignments)
        expired = set(report.expired_tasks)
        assert expired.isdisjoint(report.assignments)
        assert expired | set(report.assignments) == set(example1.task_ids)


class TestWorkerRejoin:
    def test_worker_serves_sequential_tasks(self):
        instance = sequential_instance()
        report = Platform(instance, DASCGreedy(), batch_interval=5.0).run()
        assert report.total_score == 2
        assert report.assignments == {1: 1, 2: 1}

    def test_never_policy_limits_to_one(self):
        instance = sequential_instance()
        report = Platform(
            instance, DASCGreedy(), batch_interval=5.0, rejoin=RejoinPolicy.NEVER
        ).run()
        assert report.total_score == 1

    def test_remaining_policy_respects_original_window(self):
        # Worker window [0, 8]: task 1 is served at t=0..1, the worker
        # rejoins until t=8, but task 2 only appears at t=9.
        instance = sequential_instance(worker_wait=8.0, task2_start=9.0)
        report = Platform(instance, DASCGreedy(), batch_interval=1.0).run()
        assert report.total_score == 1

    def test_fresh_policy_extends_participation(self):
        # Under FRESH the worker rejoins at t=1 with a fresh 8-unit window
        # (until t=9), just catching task 2.
        instance = sequential_instance(worker_wait=8.0, task2_start=9.0)
        report = Platform(
            instance, DASCGreedy(), batch_interval=1.0, rejoin=RejoinPolicy.FRESH
        ).run()
        assert report.total_score == 2

    def test_completion_time_includes_travel_and_duration(self):
        instance = sequential_instance(task_duration=3.0)
        report = Platform(instance, DASCGreedy(), batch_interval=5.0).run()
        # Batch at t=0; travel from (0,0) to (1,0) takes 1; duration 3.
        assert report.completion_times[1] == pytest.approx(0.0 + 1.0 + 3.0)


class TestCrossBatchDependencies:
    def test_dependent_task_waits_for_earlier_batch(self):
        skills = SkillUniverse(1)
        workers = [
            Worker(id=i, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=10.0,
                   max_distance=100.0, skills=frozenset({0}))
            for i in (1, 2)
        ]
        tasks = [
            Task(id=1, location=(1.0, 0.0), start=0.0, wait=100.0, skill=0),
            # Task 2 appears later and depends on task 1.
            Task(id=2, location=(2.0, 0.0), start=30.0, wait=100.0, skill=0,
                 dependencies=frozenset({1})),
        ]
        instance = ProblemInstance(workers=workers, tasks=tasks, skills=skills)
        report = Platform(instance, DASCGreedy(), batch_interval=10.0).run()
        assert report.total_score == 2
        assert report.completion_times[1] < report.completion_times[2]


class TestRunSingleBatch:
    def test_matches_platform_offline_case(self, example1):
        outcome = run_single_batch(example1, DASCGreedy())
        assert outcome.score == 3

    def test_custom_now(self, example1):
        outcome = run_single_batch(example1, DASCGreedy(), now=0.0)
        assert outcome.score == 3
