"""Worker/task assignments, validity checking and ``Sum(M)`` (Equation 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.constraints import deadline_ok
from repro.core.exceptions import DascError


@dataclass(frozen=True)
class AssignmentViolation:
    """One constraint violation found while validating an assignment.

    Attributes:
        constraint: one of ``skill``, ``deadline``, ``distance``,
            ``exclusive``, ``dependency``, ``unknown-id``.
        worker_id: offending worker (None for task-only violations).
        task_id: offending task.
        detail: human-readable explanation.
    """

    constraint: str
    worker_id: Optional[int]
    task_id: Optional[int]
    detail: str


def _lookup(get, key):
    """``get(key)``, or None when the id is unknown (a dict probe, no id set)."""
    try:
        return get(key)
    except KeyError:
        return None


class Assignment:
    """A one-to-one matching between workers and tasks within one batch.

    The mapping is bijective on its support: a worker holds at most one task
    and a task at most one worker (the exclusive constraint is enforced
    structurally at insert time).
    """

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()) -> None:
        self._task_of: Dict[int, int] = {}
        self._worker_of: Dict[int, int] = {}
        for worker_id, task_id in pairs:
            self.add(worker_id, task_id)

    # -- mutation -----------------------------------------------------------------

    def add(self, worker_id: int, task_id: int) -> None:
        """Match ``worker_id`` to ``task_id``.

        Raises:
            DascError: if either side is already matched (exclusivity).
        """
        if worker_id in self._task_of:
            raise DascError(
                f"worker {worker_id} already assigned to task {self._task_of[worker_id]}"
            )
        if task_id in self._worker_of:
            raise DascError(
                f"task {task_id} already assigned to worker {self._worker_of[task_id]}"
            )
        self._task_of[worker_id] = task_id
        self._worker_of[task_id] = worker_id

    def remove_task(self, task_id: int) -> None:
        """Unmatch a task (used when pruning dependency-invalid picks)."""
        worker_id = self._worker_of.pop(task_id)
        del self._task_of[worker_id]

    # -- queries --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._task_of)

    def __bool__(self) -> bool:
        return bool(self._task_of)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        worker_id, task_id = pair
        return self._task_of.get(worker_id) == task_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Assignment) and other._task_of == self._task_of

    def __repr__(self) -> str:
        return f"Assignment({sorted(self._task_of.items())})"

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All ``(worker_id, task_id)`` pairs, in worker-id order."""
        return iter(sorted(self._task_of.items()))

    def task_of(self, worker_id: int) -> Optional[int]:
        return self._task_of.get(worker_id)

    def worker_of(self, task_id: int) -> Optional[int]:
        return self._worker_of.get(task_id)

    def assigned_workers(self) -> FrozenSet[int]:
        return frozenset(self._task_of)

    def assigned_tasks(self) -> FrozenSet[int]:
        return frozenset(self._worker_of)

    @property
    def score(self) -> int:
        """``Sum(M)``: the number of matched worker-and-task pairs (Eq. 1)."""
        return len(self._task_of)

    def copy(self) -> "Assignment":
        return Assignment(self._task_of.items())

    # -- validation -------------------------------------------------------------------

    def violations(
        self,
        instance,
        now: float = -math.inf,
        previously_assigned: AbstractSet[int] = frozenset(),
    ) -> List[AssignmentViolation]:
        """Check every Definition-3 constraint against ``instance``.

        Args:
            instance: a :class:`repro.core.instance.ProblemInstance`.
            now: batch timestamp for deadline evaluation.
            previously_assigned: task ids assigned in earlier batches, which
                count toward dependency satisfaction.

        Returns:
            A list of violations; empty means the assignment is valid.
        """
        out: List[AssignmentViolation] = []
        for worker_id, task_id in self.pairs():
            worker = _lookup(instance.worker, worker_id)
            task = _lookup(instance.task, task_id)
            if worker is None or task is None:
                out.append(
                    AssignmentViolation(
                        "unknown-id",
                        worker_id,
                        task_id,
                        f"pair ({worker_id}, {task_id}) references ids absent "
                        "from the instance",
                    )
                )
                continue
            if task.skill not in worker.skills:
                out.append(
                    AssignmentViolation(
                        "skill",
                        worker_id,
                        task_id,
                        f"worker {worker_id} lacks skill {task.skill}",
                    )
                )
            dist = instance.metric(worker.location, task.location)
            if dist > worker.max_distance:
                out.append(
                    AssignmentViolation(
                        "distance",
                        worker_id,
                        task_id,
                        f"distance {dist:.4f} exceeds budget {worker.max_distance:.4f}",
                    )
                )
            if (
                task.skill in worker.skills
                and dist <= worker.max_distance
                and not deadline_ok(worker, task, now=now, dist=dist)
            ):
                out.append(
                    AssignmentViolation(
                        "deadline",
                        worker_id,
                        task_id,
                        f"worker {worker_id} cannot reach task {task_id} before "
                        f"its deadline {task.deadline:.4f}",
                    )
                )
        assigned = self.assigned_tasks() | set(previously_assigned)
        graph = instance.dependency_graph
        for task_id in sorted(self.assigned_tasks()):
            if task_id in graph and not graph.satisfied(task_id, assigned):
                missing = sorted(graph.direct_dependencies(task_id) - assigned)
                out.append(
                    AssignmentViolation(
                        "dependency",
                        self.worker_of(task_id),
                        task_id,
                        f"task {task_id} has unassigned dependencies {missing}",
                    )
                )
        return out

    def is_valid(
        self,
        instance,
        now: float = -math.inf,
        previously_assigned: AbstractSet[int] = frozenset(),
    ) -> bool:
        return not self.violations(instance, now, previously_assigned)

    def prune_dependency_violations(
        self, graph, previously_assigned: AbstractSet[int] = frozenset()
    ) -> "Assignment":
        """Drop matched tasks whose dependencies are not satisfied.

        Iterates to a fixed point: removing one task may invalidate its
        dependents.  This is the clean-up step at the end of ``DASC_Game``
        (Section IV-B) and is also how baseline assignments are scored — an
        invalid pick simply does not count.
        """
        result = self.copy()
        changed = True
        while changed:
            changed = False
            assigned = result.assigned_tasks() | set(previously_assigned)
            for task_id in sorted(result.assigned_tasks()):
                if task_id in graph and not graph.satisfied(task_id, assigned):
                    result.remove_task(task_id)
                    changed = True
        return result
