"""A full DA-SC problem instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.core.dependency import DependencyGraph
from repro.core.exceptions import InvalidInstanceError
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import DistanceMetric, EuclideanDistance


@dataclass
class ProblemInstance:
    """Workers + tasks + skills + metric: everything an allocator needs.

    Attributes:
        workers: the worker set ``W``.
        tasks: the task set ``T`` (dependencies refer to ids inside it).
        skills: the skill universe ``Psi``.
        metric: the distance function (Euclidean default, Section II-A).
        name: free-form label used in reports.
    """

    workers: List[Worker]
    tasks: List[Task]
    skills: SkillUniverse
    metric: DistanceMetric = field(default_factory=EuclideanDistance)
    name: str = "instance"

    def __post_init__(self) -> None:
        self.workers = list(self.workers)
        self.tasks = list(self.tasks)
        self._worker_by_id: Dict[int, Worker] = {}
        for worker in self.workers:
            if worker.id in self._worker_by_id:
                raise InvalidInstanceError(f"duplicate worker id {worker.id}")
            self._worker_by_id[worker.id] = worker
        self._task_by_id: Dict[int, Task] = {}
        for task in self.tasks:
            if task.id in self._task_by_id:
                raise InvalidInstanceError(f"duplicate task id {task.id}")
            self._task_by_id[task.id] = task
        for worker in self.workers:
            for skill in worker.skills:
                if skill not in self.skills:
                    raise InvalidInstanceError(
                        f"worker {worker.id} practises unknown skill {skill}"
                    )
        for task in self.tasks:
            if task.skill not in self.skills:
                raise InvalidInstanceError(
                    f"task {task.id} requires unknown skill {task.skill}"
                )
            # ``difference`` probes the dict per dependency; ``frozenset -
            # dict_keys`` would copy the set and walk every key instead.
            unknown = task.dependencies.difference(self._task_by_id)
            if unknown:
                raise InvalidInstanceError(
                    f"task {task.id} depends on unknown task(s) {sorted(unknown)}"
                )

    # -- lookups ------------------------------------------------------------------

    @property
    def worker_ids(self) -> FrozenSet[int]:
        return frozenset(self._worker_by_id)

    @property
    def task_ids(self) -> FrozenSet[int]:
        return frozenset(self._task_by_id)

    def worker(self, worker_id: int) -> Worker:
        return self._worker_by_id[worker_id]

    def task(self, task_id: int) -> Task:
        return self._task_by_id[task_id]

    @cached_property
    def dependency_graph(self) -> DependencyGraph:
        """The (validated, acyclic) dependency DAG over all tasks."""
        return DependencyGraph.from_tasks(self.tasks)

    # -- aggregate views --------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def horizon(self) -> float:
        """The latest deadline of any worker or task (simulation end time)."""
        ends = [w.deadline for w in self.workers] + [t.deadline for t in self.tasks]
        return max(ends) if ends else 0.0

    @property
    def earliest_start(self) -> float:
        starts = [w.start for w in self.workers] + [t.start for t in self.tasks]
        return min(starts) if starts else 0.0

    def active_workers(self, now: float) -> List[Worker]:
        """Workers on the platform at time ``now``."""
        return [w for w in self.workers if w.active_at(now)]

    def active_tasks(self, now: float) -> List[Task]:
        """Tasks still startable at time ``now``."""
        return [t for t in self.tasks if t.active_at(now)]

    def subset(
        self,
        worker_ids: Optional[Iterable[int]] = None,
        task_ids: Optional[Iterable[int]] = None,
        name: Optional[str] = None,
    ) -> "ProblemInstance":
        """A sub-instance restricted to the given ids.

        Dependencies pointing outside the retained task set are kept (they
        stay resolvable through ``previously_assigned`` bookkeeping) only if
        the target exists; otherwise building the sub-instance would be
        invalid, so such dangling edges are dropped.
        """
        keep_w = set(worker_ids) if worker_ids is not None else set(self._worker_by_id)
        keep_t = set(task_ids) if task_ids is not None else set(self._task_by_id)
        tasks = []
        for task in self.tasks:
            if task.id not in keep_t:
                continue
            kept_deps = task.dependencies & keep_t
            if kept_deps != task.dependencies:
                task = Task(
                    id=task.id,
                    location=task.location,
                    start=task.start,
                    wait=task.wait,
                    skill=task.skill,
                    dependencies=kept_deps,
                    duration=task.duration,
                )
            tasks.append(task)
        return ProblemInstance(
            workers=[w for w in self.workers if w.id in keep_w],
            tasks=tasks,
            skills=self.skills,
            metric=self.metric,
            name=name or f"{self.name}-subset",
        )

    def describe(self) -> str:
        """One-line summary for logs and examples."""
        dep_edges = sum(len(t.dependencies) for t in self.tasks)
        return (
            f"{self.name}: {self.num_workers} workers, {self.num_tasks} tasks, "
            f"{len(self.skills)} skills, {dep_edges} dependency edges, "
            f"metric={self.metric.name}"
        )
