"""The link predicate's edge cases, on every path that decides a pair.

Each case is one worker and one task whose verdict at the batch time is
known by hand: zero and infinite velocity, coincident points, reach and
arrival exactly on their bounds (and one ulp past them), a task that opens
after the worker leaves, a worker that has not started yet (departing at
its start, not the batch time), unbounded windows and reach.  The engine
decides a pair four ways, and each must give the hand verdict:

* ``full_build`` — a standalone context's one-shot build;
* ``task_arrival`` — the task joins an engine that already holds the worker;
* ``worker_relocation`` — the worker's row is recomputed after it moves;
* ``time_advance`` — the pair is linked (or not) at ``-inf`` and the batch
  view filters the stored link at the batch time.

:func:`~repro.core.constraints.pair_feasible` must agree with every verdict,
and with the journal on, the batch's reject for the pair must carry
:func:`~repro.core.constraints.pair_rejection_reason`'s code: a ``build``
reject where the pair is decided, a ``view`` deadline reject where a stored
link ages out.
"""

import math
from dataclasses import replace

import pytest

from repro.core.constraints import pair_feasible, pair_rejection_reason
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine import AllocationEngine, BatchContext
from repro.obs.events import EventJournal
from repro.spatial.distance import EuclideanDistance, ManhattanDistance

METRICS = {"euclidean": EuclideanDistance(), "manhattan": ManhattanDistance()}
PATHS = ["full_build", "task_arrival", "worker_relocation", "time_advance"]
NOW = 1.0


def _worker(**fields):
    base = dict(
        id=1, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=1.0,
        max_distance=100.0, skills=frozenset({0}),
    )
    base.update(fields)
    return Worker(**base)


def _task(**fields):
    base = dict(id=2, location=(3.0, 4.0), start=0.0, wait=100.0, skill=0)
    base.update(fields)
    return Task(**base)


# Each case maps the metric's default worker-task distance ``d`` to
# ``(worker, task, now, reason)``; ``reason`` None means feasible.
CASES = {
    "zero_velocity_zero_distance_is_feasible": lambda d: (
        _worker(velocity=0.0), _task(location=(0.0, 0.0)), NOW, None,
    ),
    "zero_velocity_positive_distance_is_infeasible": lambda d: (
        _worker(velocity=0.0), _task(), NOW, "deadline",
    ),
    "zero_velocity_never_reaches_a_task_that_never_expires": lambda d: (
        _worker(velocity=0.0, wait=math.inf), _task(wait=math.inf), NOW, "deadline",
    ),
    "infinite_velocity_arrives_at_departure": lambda d: (
        _worker(velocity=math.inf), _task(wait=NOW), NOW, None,
    ),
    "empty_skills_reject_everything": lambda d: (
        _worker(skills=frozenset()), _task(), NOW, "skill",
    ),
    "skill_mismatch_rejects": lambda d: (
        _worker(skills=frozenset({0})), _task(skill=1), NOW, "skill",
    ),
    "reach_is_inclusive": lambda d: (
        _worker(max_distance=d), _task(), NOW, None,
    ),
    "one_ulp_beyond_reach_rejects": lambda d: (
        _worker(max_distance=math.nextafter(d, 0.0)), _task(), NOW, "reach",
    ),
    "arrival_on_the_deadline_is_feasible": lambda d: (
        _worker(), _task(wait=NOW + d), NOW, None,
    ),
    "arrival_one_ulp_after_the_deadline_rejects": lambda d: (
        _worker(), _task(wait=math.nextafter(NOW + d, 0.0)), NOW, "deadline",
    ),
    "task_opening_after_the_worker_leaves_rejects": lambda d: (
        _worker(wait=2.0), _task(start=3.0), NOW, "deadline",
    ),
    "batch_after_the_worker_leaves_rejects": lambda d: (
        _worker(wait=0.5), _task(), NOW, "deadline",
    ),
    "batch_after_the_task_deadline_rejects": lambda d: (
        _worker(), _task(location=(0.1, 0.0), wait=0.5), NOW, "deadline",
    ),
    "unstarted_worker_departs_at_its_start": lambda d: (
        _worker(start=5.0), _task(wait=5.0 + d), NOW, None,
    ),
    "unstarted_worker_arriving_one_ulp_late_rejects": lambda d: (
        _worker(start=5.0), _task(wait=math.nextafter(5.0 + d, 0.0)), NOW, "deadline",
    ),
    "unbounded_reach_and_windows_reach_a_far_task": lambda d: (
        _worker(max_distance=math.inf, wait=math.inf),
        _task(location=(1e6, 1e6), wait=math.inf),
        NOW,
        None,
    ),
}


def _instance(metric):
    # The engine reads only the metric from the instance.
    return ProblemInstance(
        workers=[_worker()], tasks=[_task()], skills=SkillUniverse(size=2),
        metric=metric,
    )


def _decide(path, worker, task, instance, now, journal):
    """The batch view of ``(worker, task)`` at ``now`` reached along ``path``,
    and the index of the journal's first event of that batch."""
    if path == "full_build":
        mark = len(journal.events)
        view = BatchContext.standalone(
            [worker], [task], instance, now, journal=journal
        ).checker
        return view, mark
    engine = AllocationEngine(instance, journal=journal)
    if path == "task_arrival":
        engine.begin_batch([worker], [], now)
    elif path == "worker_relocation":
        x, y = worker.location
        stale = replace(worker, location=(x + 50.0, y - 50.0))
        engine.begin_batch([stale], [task], now)
    else:
        engine.begin_batch([worker], [task], -math.inf)
    mark = len(journal.events)
    view = engine.begin_batch([worker], [task], now).checker
    stats = engine.stats()
    assert stats["engine_full_builds"] == 1
    assert stats["engine_incremental_updates"] == 1
    return view, mark


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("metric", METRICS.values(), ids=list(METRICS))
@pytest.mark.parametrize("case", CASES)
def test_hand_verdict_on_every_path(case, metric, path):
    worker, task, now, reason = CASES[case](metric((0.0, 0.0), (3.0, 4.0)))
    assert pair_rejection_reason(worker, task, metric, now) == reason
    assert pair_feasible(worker, task, metric, now) is (reason is None)

    journal = EventJournal()
    view, mark = _decide(path, worker, task, _instance(metric), now, journal)
    feasible = reason is None
    assert view.feasible(worker.id, task.id) is feasible
    assert list(view.pairs()) == ([(worker.id, task.id)] if feasible else [])
    assert view.tasks_of(worker.id) == ([task.id] if feasible else [])
    assert view.workers_of(task.id) == ([worker.id] if feasible else [])

    rejects = [
        (e["phase"], e["reason"])
        for e in journal.events[mark:]
        if e["type"] == "reject" and (e["worker"], e["task"]) == (worker.id, task.id)
    ]
    if feasible:
        assert rejects == []
    elif path != "time_advance":
        assert rejects == [("build", reason)]
    elif pair_feasible(worker, task, metric, -math.inf):
        # Linked at -inf, then aged out of the deadline test.
        assert rejects == [("view", "deadline")]
    else:
        # Never linked: the unchanged pair is not decided again.
        assert rejects == []
