"""The output check: every committed batch is valid, and runs agree.

:class:`CapturingAllocator` wraps an allocator from outside and records
what each batch was given and what it returned.  :func:`validate_run`
then checks every batch against the paper's four constraints (skill,
distance/deadline, exclusivity, dependency) on the records the batch
actually saw — a worker that rejoined after a task is a relocated copy with
a smaller moving budget — and checks the whole report for exclusivity
across batches.  :func:`report_digest` fingerprints a report's assignments,
so runs of one seed can be compared exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro.core.assignment import Assignment
from repro.core.instance import ProblemInstance
from repro.core.worker import Worker
from repro.simulation.stats import SimulationReport


@dataclass(frozen=True)
class CapturedBatch:
    """One allocator call: its inputs and the assignment it returned."""

    now: float
    previously_assigned: FrozenSet[int]
    assignment: Assignment
    workers: Dict[int, Worker]
    task_ids: FrozenSet[int]


class CapturingAllocator:
    """Delegates to ``inner`` and records every batch it allocates."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.batches: List[CapturedBatch] = []

    def allocate(self, context):
        outcome = self.inner.allocate(context)
        self.batches.append(
            CapturedBatch(
                now=context.now,
                previously_assigned=frozenset(context.previously_assigned),
                assignment=outcome.assignment.copy(),
                workers={w.id: w for w in context.workers},
                task_ids=frozenset(t.id for t in context.tasks),
            )
        )
        return outcome


class _BatchView:
    """The instance as one batch saw it: the batch's own worker records."""

    def __init__(self, instance: ProblemInstance, workers: Dict[int, Worker]) -> None:
        self._instance = instance
        self._workers = workers
        self.worker_ids = frozenset(workers)
        self.task_ids = instance.task_ids
        self.metric = instance.metric
        self.dependency_graph = instance.dependency_graph

    def worker(self, worker_id: int) -> Worker:
        return self._workers[worker_id]

    def task(self, task_id: int):
        return self._instance.task(task_id)


def batch_violations(instance: ProblemInstance, batch: CapturedBatch) -> List[str]:
    """Constraint violations of one captured batch (empty when valid)."""
    view = _BatchView(instance, batch.workers)
    problems = [
        f"{v.constraint}: {v.detail}"
        for v in batch.assignment.violations(view, batch.now, batch.previously_assigned)
    ]
    for _, task_id in batch.assignment.pairs():
        if task_id not in batch.task_ids:
            problems.append(f"closed: task {task_id} was not open at t={batch.now}")
    return problems


@dataclass
class RunCheck:
    """Outcome of :func:`validate_run` for one platform run."""

    attempted: int = 0
    invalid: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.invalid == 0 and not self.problems


def validate_run(
    instance: ProblemInstance, batches: List[CapturedBatch], report: SimulationReport
) -> RunCheck:
    """Check every captured batch, then the report against the batches.

    A batch is invalid when any pair breaks a constraint, when its
    ``previously_assigned`` is not exactly the tasks assigned by earlier
    batches, when it assigns a task a second time, or when it assigns a
    worker who is still serving an earlier task (exclusivity across
    batches, from the report's completion times).
    """
    result = RunCheck(attempted=len(batches))
    assigned: Dict[int, int] = {}
    busy_until: Dict[int, float] = {}
    for batch in batches:
        problems = batch_violations(instance, batch)
        if batch.previously_assigned != frozenset(assigned):
            problems.append(f"bookkeeping: previously_assigned differs at t={batch.now}")
        for worker_id, task_id in batch.assignment.pairs():
            if task_id in assigned:
                problems.append(f"exclusive: task {task_id} assigned twice")
            free_at = busy_until.get(worker_id, -math.inf)
            if free_at > batch.now:
                problems.append(
                    f"exclusive: worker {worker_id} busy until {free_at} at t={batch.now}"
                )
        for worker_id, task_id in batch.assignment.pairs():
            assigned[task_id] = worker_id
            busy_until[worker_id] = report.completion_times.get(task_id, math.inf)
        if problems:
            result.invalid += 1
            result.problems.extend(problems[:3])
    if report.assignments != assigned:
        result.problems.append("report: assignments differ from the allocator's batches")
    if report.total_score != len(assigned):
        result.problems.append(
            f"report: score {report.total_score} != {len(assigned)} assigned tasks"
        )
    return result


def report_digest(report: SimulationReport) -> str:
    """A short fingerprint of the report's allocator and assignments."""
    text = repr((report.allocator, sorted(report.assignments.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
