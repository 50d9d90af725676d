"""Bulk syncs against the exhaustive oracle, batch by batch.

One engine runs a scripted sequence of batches: a full build, a wave of
task arrivals, a mass rejoin (every worker relocated at once), a partial
rejoin with a few arrivals, and a small rejoin with a big arrival wave
while some workers leave.  After every batch the engine's view must equal
a fresh :class:`~tests.reference.ExhaustiveChecker` of that batch, row for
row and column for column; with the journal on, every ``build`` reject
carries :func:`~repro.core.constraints.pair_rejection_reason`'s code and
the full build's funnel closes (its pairs = rejects + links).  Workers
and tasks are spread over a dense (1 x 1) and a sparse (4 x 4) region.
"""

import random
from dataclasses import replace

import pytest

from repro.core.constraints import pair_rejection_reason
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine import AllocationEngine
from repro.obs.events import EventJournal
from repro.spatial.distance import EuclideanDistance, ManhattanDistance
from tests.reference import ExhaustiveChecker

N_SKILLS = 12
N_WORKERS = 160
METRICS = {"euclidean": EuclideanDistance(), "manhattan": ManhattanDistance()}


def _workers(rng, region, count):
    return [
        Worker(
            id=i,
            location=(rng.uniform(0, region), rng.uniform(0, region)),
            start=0.0,
            wait=60.0,
            velocity=0.0 if i % 9 == 0 else rng.uniform(0.05, 0.3),
            max_distance=rng.uniform(0.3, 0.9),
            skills=frozenset(rng.sample(range(N_SKILLS), 3)),
        )
        for i in range(count)
    ]


def _tasks(rng, region, first_id, count, start):
    return [
        Task(
            id=first_id + k,
            location=(rng.uniform(0, region), rng.uniform(0, region)),
            start=start,
            wait=rng.uniform(8.0, 20.0),
            skill=rng.randrange(N_SKILLS),
        )
        for k in range(count)
    ]


def _instance(region, metric, waves=(30, 40, 40, 60)):
    rng = random.Random(3)
    workers = _workers(rng, region, N_WORKERS)
    tasks = []
    for wave, count in enumerate(waves):
        tasks += _tasks(rng, region, len(tasks), count, float(wave))
    # A worker standing on a task: the dist == 0 arm of the predicate.
    workers[1] = replace(workers[1], location=tasks[0].location)
    return ProblemInstance(workers, tasks, SkillUniverse(N_SKILLS), metric=metric)


def _moved(worker, rng, region):
    return replace(worker, location=(rng.uniform(0, region), rng.uniform(0, region)))


def _script(instance, region):
    """Batches ``(now, workers, tasks)``."""
    rng = random.Random(17)
    tasks = instance.tasks
    workers = list(instance.workers)
    yield 0.0, workers, tasks[:30]
    yield 1.0, workers, tasks[:70]
    workers = [_moved(w, rng, region) for w in workers]
    yield 2.0, workers, tasks[10:70]
    workers = [_moved(w, rng, region) if w.id % 2 else w for w in workers]
    yield 3.0, workers, tasks[10:110]
    workers = [_moved(w, rng, region) if w.id < 5 else w for w in workers]
    yield 4.0, workers[:-3], tasks[12:]


@pytest.mark.parametrize("recording", [False, True], ids=["quiet", "journaled"])
@pytest.mark.parametrize("region", [1.0, 4.0], ids=["dense", "sparse"])
@pytest.mark.parametrize("metric", METRICS.values(), ids=list(METRICS))
def test_every_batch_matches_the_oracle(metric, region, recording):
    instance = _instance(region, metric)
    journal = EventJournal(enabled=recording)
    engine = AllocationEngine(instance, journal=journal)
    reasons = set()
    linked = 0
    for now, workers, tasks in _script(instance, region):
        mark = len(journal.events)
        view = engine.begin_batch(workers, tasks, now).checker
        oracle = ExhaustiveChecker(workers, tasks, metric, now)
        for worker in workers:
            assert view.tasks_of(worker.id) == oracle.tasks_of(worker.id)
        for task in tasks:
            assert view.workers_of(task.id) == oracle.workers_of(task.id)
        assert list(view.pairs()) == list(oracle.pairs())
        linked += view.pair_count()
        if not recording:
            assert journal.events == []
            continue
        events = journal.events[mark:]
        w_by_id = {w.id: w for w in workers}
        t_by_id = {t.id: t for t in tasks}
        build_rejects = [
            e for e in events if e["type"] == "reject" and e["phase"] == "build"
        ]
        for event in build_rejects:
            worker, task = w_by_id[event["worker"]], t_by_id[event["task"]]
            expected = pair_rejection_reason(worker, task, metric, now)
            assert event["reason"] == expected, event
            reasons.add(expected)
        (build,) = [e for e in events if e["type"] == "feas_build"]
        if build["mode"] == "full":
            # Funnel: every pair of the build is rejected or linked once.
            links = sum(len(row) for row in engine._tasks_of.values())
            assert build["pairs"] == len(workers) * len(tasks)
            assert build["pairs"] == len(build_rejects) + links
    stats = engine.stats()
    assert stats["engine_full_builds"] == 1
    assert stats["engine_incremental_updates"] == 4
    assert stats["engine_worker_rows_recomputed"] > 2 * N_WORKERS
    assert linked > 0
    if recording:
        assert {"skill", "reach"} <= reasons
