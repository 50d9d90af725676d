"""The pair constraints of Definition 3 and the feasible-pair oracle API.

``pair_feasible`` is the exact, static test from the paper, generalised
with a current time ``now`` (so it stays correct mid-simulation, when
workers re-enter the pool at new positions).  Batches do not call it pair
by pair: :class:`~repro.engine.engine.AllocationEngine`'s link loop builds
every batch's feasible pairs with the same comparisons inline and hands
them out as a :class:`FeasibleRows` oracle.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import DistanceMetric, EuclideanDistance

_EUCLIDEAN = EuclideanDistance()


def skill_ok(worker: Worker, task: Task) -> bool:
    """Skill constraint: ``rs_t in WS_w``."""
    return task.skill in worker.skills


def latest_departure(worker: Worker, task: Task, now: float = -math.inf) -> float:
    """Earliest instant the worker can set off for the task.

    The worker cannot leave before it appears (``s_w``), before the task
    exists (``s_t``) or before the current time.
    """
    return max(worker.start, task.start, now)


def deadline_ok(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    now: float = -math.inf,
    dist: Optional[float] = None,
) -> bool:
    """Deadline constraint of Definition 3.

    (1) the task appears before the worker leaves: ``s_t <= s_w + w_w``, and
    the worker appears before the task expires;
    (2) travelling from ``l_w`` at the earliest departure reaches ``l_t`` no
    later than ``s_t + w_t``.  With ``now = -inf`` this is exactly the
    paper's ``w_t - max(s_w - s_t, 0) - ct_w(l_w, l_t) >= 0``.

    ``dist`` may carry a precomputed ``metric(l_w, l_t)`` so callers that
    already evaluated the metric (the range check) do not pay
    for it twice.
    """
    if task.start > worker.deadline or worker.start > task.deadline:
        return False
    depart = latest_departure(worker, task, now)
    if depart > task.deadline or depart > worker.deadline:
        return False
    if dist is None:
        dist = (metric or _EUCLIDEAN)(worker.location, task.location)
    if dist == 0.0:
        return True
    if worker.velocity <= 0.0:
        return False
    return depart + dist / worker.velocity <= task.deadline


def within_range(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    dist: Optional[float] = None,
) -> bool:
    """Maximum-moving-distance constraint: ``dist(l_w, l_t) <= d_w``."""
    if dist is None:
        dist = (metric or _EUCLIDEAN)(worker.location, task.location)
    return dist <= worker.max_distance


def pair_feasible(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    now: float = -math.inf,
) -> bool:
    """Whether ``(w, t)`` satisfies skill, deadline and distance constraints.

    The exclusivity and dependency constraints are properties of a whole
    assignment, not of a pair, and are checked by
    :class:`repro.core.assignment.Assignment`.
    """
    if not skill_ok(worker, task):
        return False
    dist = (metric or _EUCLIDEAN)(worker.location, task.location)
    return within_range(worker, task, dist=dist) and deadline_ok(
        worker, task, now=now, dist=dist
    )


def pair_rejection_reason(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    now: float = -math.inf,
) -> Optional[str]:
    """The first failing constraint of ``(w, t)``, or None when feasible.

    The reason-coded twin of :func:`pair_feasible`: the metric is evaluated
    exactly once, and the precedence mirrors the scalar short-circuit
    exactly — ``skill`` before ``reach`` (``dist > d_w``) before
    ``deadline`` — so ``reason is None`` iff ``pair_feasible(...)``.  The codes are the
    :data:`repro.obs.events.REASONS` the engine journals (the fourth code,
    ``dependency``, is an assignment-level property and never returned
    here).
    """
    if not skill_ok(worker, task):
        return "skill"
    dist = (metric or _EUCLIDEAN)(worker.location, task.location)
    if not within_range(worker, task, dist=dist):
        return "reach"
    if not deadline_ok(worker, task, now=now, dist=dist):
        return "deadline"
    return None


class FeasibleRows:
    """The feasible-pair oracle API over a batch's two row directions.

    Implemented by the engine's per-batch view (and by the exhaustive
    test oracle).  Subclasses fill ``_tasks_of`` (worker id ->
    sorted feasible task ids) and ``_workers_of`` (task id -> sorted
    feasible worker ids).  The
    per-worker frozensets behind :meth:`feasible` are built on its first
    call: allocators read rows and columns, so a batch that never probes
    a single pair never pays for them.
    """

    _tasks_of: Dict[int, List[int]]
    _workers_of: Dict[int, List[int]]
    _task_sets: Optional[Dict[int, FrozenSet[int]]] = None

    def tasks_of(self, worker_id: int) -> List[int]:
        """Task ids feasible for the worker (the strategy space ``S_w``)."""
        return self._tasks_of.get(worker_id, [])

    def workers_of(self, task_id: int) -> List[int]:
        """Worker ids able to serve the task."""
        return self._workers_of.get(task_id, [])

    def feasible(self, worker_id: int, task_id: int) -> bool:
        task_sets = self._task_sets
        if task_sets is None:
            task_sets = self._task_sets = {
                wid: frozenset(row) for wid, row in self._tasks_of.items()
            }
        row = task_sets.get(worker_id)
        return row is not None and task_id in row

    def pairs(self) -> Iterable[Tuple[int, int]]:
        """All feasible ``(worker_id, task_id)`` pairs."""
        for wid, tids in self._tasks_of.items():
            for tid in tids:
                yield (wid, tid)

    def pair_count(self) -> int:
        return sum(len(tids) for tids in self._tasks_of.values())
