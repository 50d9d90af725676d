"""The dependency-oblivious baselines of Section V-B.

``Closest`` matches worker-and-task pairs by ascending travel distance;
``Random`` lets every worker pick a random feasible task.  Neither looks at
the dependency DAG while matching — exactly like the motivating example's
naive platform (Figure 1b) — so their assignments are pruned afterwards and
invalid picks simply do not count (and the worker's capacity is wasted).
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.core.assignment import Assignment
from repro.engine.context import BatchContext


class ClosestBaseline(BatchAllocator):
    """Globally-greedy nearest matching, dependencies ignored."""

    name = "Closest"

    def _allocate(self, context: BatchContext) -> AllocationOutcome:
        workers, tasks, instance = context.workers, context.tasks, context.instance
        if not workers or not tasks:
            return AllocationOutcome(Assignment())
        checker = context.checker
        metric = context.metric
        pairs: List[Tuple[float, int, int]] = []
        for worker in workers:
            for task_id in checker.tasks_of(worker.id):
                task = instance.task(task_id)
                dist = metric(worker.location, task.location)
                pairs.append((dist, worker.id, task_id))
        pairs.sort()
        assignment = Assignment()
        busy: Set[int] = set()
        taken: Set[int] = set()
        for _, worker_id, task_id in pairs:
            if worker_id in busy or task_id in taken:
                continue
            assignment.add(worker_id, task_id)
            busy.add(worker_id)
            taken.add(task_id)
        valid = assignment.prune_dependency_violations(
            instance.dependency_graph, context.previously_assigned
        )
        return AllocationOutcome(valid, stats={"raw_pairs": float(assignment.score)})


class RandomBaseline(BatchAllocator):
    """Each worker takes a uniformly random feasible open task."""

    name = "Random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _allocate(self, context: BatchContext) -> AllocationOutcome:
        workers, tasks = context.workers, context.tasks
        if not workers or not tasks:
            return AllocationOutcome(Assignment())
        rng = random.Random(self.seed)
        checker = context.checker
        assignment = Assignment()
        taken: Set[int] = set()
        worker_ids = sorted(w.id for w in workers)
        rng.shuffle(worker_ids)
        for worker_id in worker_ids:
            open_tasks = [t for t in checker.tasks_of(worker_id) if t not in taken]
            if not open_tasks:
                continue
            task_id = rng.choice(open_tasks)
            assignment.add(worker_id, task_id)
            taken.add(task_id)
        valid = assignment.prune_dependency_violations(
            context.instance.dependency_graph, context.previously_assigned
        )
        return AllocationOutcome(valid, stats={"raw_pairs": float(assignment.score)})
