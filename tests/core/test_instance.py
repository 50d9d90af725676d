"""ProblemInstance tests."""

import pytest

from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker


def tiny_instance(**kwargs):
    skills = SkillUniverse(2)
    workers = [
        Worker(id=1, location=(0, 0), start=0, wait=10, velocity=1,
               max_distance=5, skills=frozenset({0})),
        Worker(id=2, location=(1, 1), start=2, wait=10, velocity=1,
               max_distance=5, skills=frozenset({1})),
    ]
    tasks = [
        Task(id=1, location=(0, 1), start=0, wait=5, skill=0),
        Task(id=2, location=(1, 0), start=3, wait=5, skill=1,
             dependencies=frozenset({1})),
    ]
    return ProblemInstance(workers=workers, tasks=tasks, skills=skills, **kwargs)


class TestValidation:
    """Load errors name the offending record; messages are pinned exactly."""

    def test_duplicate_worker_id(self):
        skills = SkillUniverse(1)
        w = Worker(id=1, location=(0, 0), start=0, wait=1, velocity=1,
                   max_distance=1, skills=frozenset({0}))
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(workers=[w, w], tasks=[], skills=skills)
        assert str(err.value) == "duplicate worker id 1"

    def test_duplicate_task_id(self):
        skills = SkillUniverse(1)
        t = Task(id=1, location=(0, 0), start=0, wait=1, skill=0)
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(workers=[], tasks=[t, t], skills=skills)
        assert str(err.value) == "duplicate task id 1"

    def test_unknown_worker_skill(self):
        skills = SkillUniverse(1)
        w = Worker(id=1, location=(0, 0), start=0, wait=1, velocity=1,
                   max_distance=1, skills=frozenset({5}))
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(workers=[w], tasks=[], skills=skills)
        assert str(err.value) == "worker 1 practises unknown skill 5"

    def test_unknown_task_skill(self):
        skills = SkillUniverse(1)
        t = Task(id=1, location=(0, 0), start=0, wait=1, skill=7)
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(workers=[], tasks=[t], skills=skills)
        assert str(err.value) == "task 1 requires unknown skill 7"

    def test_unknown_dependency(self):
        # Every unknown id is listed, sorted; known ones are not.
        skills = SkillUniverse(1)
        known = Task(id=2, location=(0, 0), start=0, wait=1, skill=0)
        t = Task(id=1, location=(0, 0), start=0, wait=1, skill=0,
                 dependencies=frozenset({2, 4100, 9, 17, 3}))
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(workers=[], tasks=[known, t], skills=skills)
        assert str(err.value) == "task 1 depends on unknown task(s) [3, 9, 17, 4100]"

    def test_dependency_checked_against_every_task(self):
        # A dependency on a task listed later in the file is not unknown.
        skills = SkillUniverse(1)
        t = Task(id=1, location=(0, 0), start=0, wait=1, skill=0,
                 dependencies=frozenset({2}))
        later = Task(id=2, location=(0, 0), start=0, wait=1, skill=0)
        instance = ProblemInstance(workers=[], tasks=[t, later], skills=skills)
        assert instance.dependency_graph.topological_order() == [2, 1]


class TestQueries:
    def test_lookups(self):
        instance = tiny_instance()
        assert instance.worker(1).id == 1
        assert instance.task(2).skill == 1
        assert instance.worker_ids == {1, 2}
        assert instance.task_ids == {1, 2}
        assert instance.num_workers == 2
        assert instance.num_tasks == 2

    def test_horizon_and_earliest(self):
        instance = tiny_instance()
        assert instance.earliest_start == 0.0
        assert instance.horizon == 12.0  # worker 2 leaves at 12

    def test_active_sets(self):
        instance = tiny_instance()
        assert [w.id for w in instance.active_workers(1.0)] == [1]
        assert [t.id for t in instance.active_tasks(4.0)] == [1, 2]
        assert [t.id for t in instance.active_tasks(6.0)] == [2]

    def test_dependency_graph_cached(self):
        instance = tiny_instance()
        assert instance.dependency_graph is instance.dependency_graph
        assert instance.dependency_graph.ancestors(2) == {1}

    def test_describe_mentions_counts(self):
        text = tiny_instance(name="tiny").describe()
        assert "tiny" in text
        assert "2 workers" in text
        assert "2 tasks" in text


class TestSubset:
    def test_subset_restricts_both_sides(self):
        instance = tiny_instance()
        sub = instance.subset(worker_ids=[1], task_ids=[1])
        assert sub.worker_ids == {1}
        assert sub.task_ids == {1}

    def test_subset_drops_dangling_dependencies(self):
        instance = tiny_instance()
        sub = instance.subset(task_ids=[2])
        assert sub.task(2).dependencies == frozenset()

    def test_subset_keeps_internal_dependencies(self):
        instance = tiny_instance()
        sub = instance.subset(task_ids=[1, 2])
        assert sub.task(2).dependencies == {1}
