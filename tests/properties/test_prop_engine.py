"""Property tests for the allocation engine.

Three invariants:

* a batch view over the engine's persistent graph equals a fresh
  exhaustive :class:`FeasibilityChecker` for the same populations, for
  every supported metric;
* after arbitrary cross-batch churn (tasks leaving/arriving, workers
  leaving/relocating), the incrementally-maintained view still equals a
  from-scratch build — and a second engine built fresh at the final batch
  agrees with the churned one;
* the engine's skill buckets stay exactly the grouping of its workers and
  tasks through arrivals, removals and relocations that change skill sets,
  and the bucketed syncs count the pairs an unbucketed loop would visit.

A journal test pins the journal as a side channel: recording the bucketed
syncs' rejects does not change a single decision or counter.  The last
suite drives the link loop through its edge cases (zero and infinite
velocities, coincident points, unbounded windows and reach, a first batch
at ``-inf``, arrivals exactly on the deadline) against the rebuild engine
and the scalar predicate, journal on and off.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    FeasibilityChecker,
    pair_feasible,
    pair_rejection_reason,
)
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine import AllocationEngine
from repro.obs.events import EventJournal
from repro.spatial.distance import (
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
)
from tests.reference import RebuildEngine, ScalarEuclidean, ScalarManhattan

METRICS = [EuclideanDistance(), ManhattanDistance(), HaversineDistance()]


def _population(rng, n_w, n_t, id_base=0):
    workers = [
        Worker(
            id=id_base + i,
            location=(rng.uniform(0, 2), rng.uniform(0, 2)),
            start=rng.uniform(0, 5),
            wait=rng.uniform(1, 10),
            velocity=rng.uniform(0.3, 2.0),
            max_distance=rng.uniform(0.3, 3.0),
            skills=frozenset(rng.sample(range(3), rng.randint(1, 2))),
        )
        for i in range(n_w)
    ]
    tasks = [
        Task(
            id=id_base + i,
            location=(rng.uniform(0, 2), rng.uniform(0, 2)),
            start=rng.uniform(0, 5),
            wait=rng.uniform(1, 10),
            skill=rng.randrange(3),
        )
        for i in range(n_t)
    ]
    return workers, tasks


def _instance(workers, tasks, metric):
    return ProblemInstance(
        workers=workers,
        tasks=tasks,
        skills=SkillUniverse(size=3),
        metric=metric,
    )


def _assert_view_matches(view, reference, workers, tasks):
    for w in workers:
        assert view.tasks_of(w.id) == reference.tasks_of(w.id)
    for t in tasks:
        assert view.workers_of(t.id) == reference.workers_of(t.id)


class TestEngineViewProperty:
    @given(
        st.integers(0, 100_000),
        st.integers(1, 15),
        st.integers(1, 15),
        st.sampled_from(range(len(METRICS))),
        st.floats(0.0, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_batch_matches_exhaustive(self, seed, n_w, n_t, m, now):
        rng = random.Random(seed)
        metric = METRICS[m]
        workers, tasks = _population(rng, n_w, n_t)
        instance = _instance(workers, tasks, metric)
        engine = AllocationEngine(instance)
        view = engine.begin_batch(workers, tasks, now).checker
        reference = FeasibilityChecker(
            workers, tasks, metric=metric, now=now, use_index=False
        )
        _assert_view_matches(view, reference, workers, tasks)

    @given(
        st.integers(0, 100_000),
        st.sampled_from(range(len(METRICS))),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_churn_matches_full_rebuild(self, seed, m):
        rng = random.Random(seed)
        metric = METRICS[m]
        workers, tasks = _population(rng, rng.randint(3, 12), rng.randint(3, 12))
        extra_w, extra_t = _population(rng, 4, 4, id_base=100)
        instance = _instance(workers + extra_w, tasks + extra_t, metric)
        engine = AllocationEngine(instance)

        cur_workers, cur_tasks = list(workers), list(tasks)
        pending_w, pending_t = list(extra_w), list(extra_t)
        now = 0.0
        for _ in range(4):
            engine.begin_batch(cur_workers, cur_tasks, now)
            now += rng.uniform(0.5, 2.0)
            # churn: some tasks assigned/expired, some arrive
            cur_tasks = [t for t in cur_tasks if rng.random() > 0.3]
            while pending_t and rng.random() > 0.5:
                cur_tasks.append(pending_t.pop())
            # churn: some workers leave, some relocate, some arrive
            survivors = []
            for w in cur_workers:
                roll = rng.random()
                if roll < 0.2:
                    continue  # departed
                if roll < 0.5:
                    w = w.relocated(
                        (rng.uniform(0, 2), rng.uniform(0, 2)),
                        now,
                        travelled=rng.uniform(0.0, 0.5),
                    )
                survivors.append(w)
            cur_workers = survivors
            while pending_w and rng.random() > 0.5:
                cur_workers.append(pending_w.pop())

        churned = engine.begin_batch(cur_workers, cur_tasks, now).checker
        reference = FeasibilityChecker(
            cur_workers, cur_tasks, metric=metric, now=now, use_index=False
        )
        _assert_view_matches(churned, reference, cur_workers, cur_tasks)

        fresh_engine = AllocationEngine(instance)
        fresh = fresh_engine.begin_batch(cur_workers, cur_tasks, now).checker
        _assert_view_matches(fresh, reference, cur_workers, cur_tasks)


# -- skill buckets ------------------------------------------------------------------

#: Workers draw skills from 0..3; skill 4 is required by tasks only, so its
#: bucket holds tasks no worker can serve.
_WORKER_SKILLS = 4
_ORPHAN_SKILL = 4


def _bucket_worker(rng, wid, region):
    n_skills = 1 if rng.random() < 0.4 else rng.randint(2, _WORKER_SKILLS)
    return Worker(
        id=wid,
        location=(rng.uniform(0, region), rng.uniform(0, region)),
        start=rng.uniform(0, 2),
        wait=rng.uniform(4, 12),
        velocity=rng.uniform(0.3, 2.0),
        max_distance=rng.uniform(0.2, 1.5),
        skills=frozenset(rng.sample(range(_WORKER_SKILLS), n_skills)),
    )


def _bucket_task(rng, tid, region, now):
    return Task(
        id=tid,
        location=(rng.uniform(0, region), rng.uniform(0, region)),
        start=now + rng.uniform(0, 2),
        wait=rng.uniform(2, 10),
        skill=_ORPHAN_SKILL if rng.random() < 0.15 else rng.randrange(_WORKER_SKILLS),
    )


def _grouping(entities, skills_of):
    groups = {}
    for eid, entity in entities.items():
        for skill in skills_of(entity):
            groups.setdefault(skill, {})[eid] = entity
    return groups


def _assert_buckets_exact(engine):
    tasks = _grouping(engine._tasks, lambda t: (t.skill,))
    workers = _grouping(engine._workers, lambda w: w.skills)
    assert engine._tasks_by_skill == tasks
    assert engine._workers_by_skill == workers
    # Registration order, not just membership.
    for skill, bucket in tasks.items():
        assert list(engine._tasks_by_skill[skill]) == list(bucket)
    for skill, bucket in workers.items():
        assert list(engine._workers_by_skill[skill]) == list(bucket)


def _expected_pairs(engine, workers, tasks):
    """Pairs an unbucketed sync of this batch visits (checked or pruned).

    An arriving task meets every kept worker; a new or changed worker's row
    meets every task; a full build is the whole cross product.
    """
    if not engine._built:
        return len(workers) * len(tasks)
    batch_wids = {w.id for w in workers}
    kept = {
        wid: w for wid, w in engine._workers.items() if wid in batch_wids
    }
    changed = [w for w in workers if kept.get(w.id) != w]
    unchanged = len(kept) - sum(1 for w in changed if w.id in kept)
    added = sum(1 for t in tasks if t.id not in engine._tasks)
    return added * unchanged + len(changed) * len(tasks)


def _churn(rng, region, steps=6):
    """Batches ``(now, workers, tasks)``: arrivals, removals, departures and
    relocations that may change a worker's skill set."""
    ids = iter(range(1, 10**6))

    def new_workers(most):
        count = rng.randint(0, most)
        return [_bucket_worker(rng, next(ids), region) for _ in range(count)]

    def new_tasks(most, now):
        count = rng.randint(0, most)
        return [_bucket_task(rng, next(ids), region, now) for _ in range(count)]

    workers, tasks, now = new_workers(10), new_tasks(10, 0.0), 0.0
    for _ in range(steps):
        yield now, workers, tasks
        now += rng.uniform(0.3, 1.5)
        tasks = [t for t in tasks if rng.random() > 0.3] + new_tasks(6, now)
        survivors = []
        for worker in workers:
            roll = rng.random()
            if roll < 0.15:
                continue  # departed
            if roll < 0.45:
                spot = (rng.uniform(0, region), rng.uniform(0, region))
                worker = replace(
                    worker.relocated(spot, now),
                    skills=_bucket_worker(rng, worker.id, region).skills,
                )
            survivors.append(worker)
        workers = survivors + new_workers(3)


def _bucket_instance(metric):
    # The engine reads only the metric from the instance.
    rng = random.Random(0)
    return ProblemInstance(
        workers=[_bucket_worker(rng, 0, 1.0)],
        tasks=[_bucket_task(rng, 0, 1.0, 0.0)],
        skills=SkillUniverse(size=_ORPHAN_SKILL + 1),
        metric=metric,
    )


class TestSkillBuckets:
    @given(
        st.integers(0, 100_000),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_buckets_views_and_counts_through_churn(self, seed, use_index, columnar):
        rng = random.Random(seed)
        region = 4.0 if use_index else 2.0
        metric = EuclideanDistance() if columnar else ScalarEuclidean()
        instance = _bucket_instance(metric)
        engine = AllocationEngine(instance, use_index=use_index)
        reference = RebuildEngine(instance)
        for now, workers, tasks in _churn(rng, region):
            before = engine.stats()
            aux_before = engine.aux_stats()
            expected = _expected_pairs(engine, workers, tasks)
            view = engine.begin_batch(workers, tasks, now).checker
            assert list(view.pairs()) == list(
                reference.begin_batch(workers, tasks, now).checker.pairs()
            )
            _assert_buckets_exact(engine)
            after = engine.stats()
            aux = engine.aux_stats()
            checked = after["engine_pairs_checked"] - before["engine_pairs_checked"]
            pruned = after["engine_pruned_by_index"] - before["engine_pruned_by_index"]
            evaluated = (
                aux["engine_scalar_pair_evals"] - aux_before["engine_scalar_pair_evals"]
                + aux["engine_columnar_pairs"] - aux_before["engine_columnar_pairs"]
            )
            assert checked + pruned == expected
            assert evaluated == checked
            if engine._index is None:
                assert pruned == 0


@pytest.mark.parametrize("use_index", [False, True])
def test_journal_does_not_change_decisions(use_index):
    """Journal on or off, the bucketed syncs make the same graph and counts."""
    instance = _bucket_instance(ScalarEuclidean())
    runs = {}
    for recording in (False, True):
        journal = EventJournal(enabled=recording)
        engine = AllocationEngine(instance, use_index=use_index, journal=journal)
        views = []
        for now, workers, tasks in _churn(random.Random(5), 2.0, steps=12):
            views.append(list(engine.begin_batch(workers, tasks, now).checker.pairs()))
        runs[recording] = (
            views,
            engine.stats(),
            engine.aux_stats(),
            engine._tasks_of,
            engine._workers_of,
        )
        if recording:
            reasons = {e["reason"] for e in journal.events if e["type"] == "reject"}
            assert {"skill", "reach", "deadline"} <= reasons
    assert runs[False] == runs[True]
    assert runs[True][1]["engine_incremental_updates"] > 0
    assert any(runs[True][0])


# -- edge populations for the link loop -------------------------------------------

#: Few coordinates, so points coincide and axis-aligned distances are exact.
_EDGE_COORDS = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_EDGE_VELOCITIES = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf])
_EDGE_REACH = st.sampled_from([0.0, 1.0, 2.0, math.inf])
_EDGE_WAITS = st.sampled_from([0.0, 0.5, 1.0, 3.0, math.inf])
#: Starts up to 6 put tasks after short-lived workers' deadlines.
_EDGE_STARTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 6.0])
_EDGE_SKILLS = 2


def _edge_worker(data, wid, now):
    # A worker appears no earlier than the batch that first sees it, as on
    # the platform; the first batch may sit at -inf.
    floor = now if math.isfinite(now) else 0.0
    return Worker(
        id=wid,
        location=(data.draw(_EDGE_COORDS), data.draw(_EDGE_COORDS)),
        start=floor + data.draw(_EDGE_STARTS),
        wait=data.draw(_EDGE_WAITS),
        velocity=data.draw(_EDGE_VELOCITIES),
        max_distance=data.draw(_EDGE_REACH),
        skills=frozenset(
            data.draw(st.sets(st.integers(0, _EDGE_SKILLS - 1), min_size=1))
        ),
    )


def _edge_task(data, tid, now):
    floor = now if math.isfinite(now) else 0.0
    return Task(
        id=tid,
        location=(data.draw(_EDGE_COORDS), data.draw(_EDGE_COORDS)),
        start=floor + data.draw(_EDGE_STARTS),
        wait=data.draw(_EDGE_WAITS),
        skill=data.draw(st.integers(0, _EDGE_SKILLS - 1)),
    )


def _boundary_task(data, tid, worker, now):
    """A task the worker reaches at exactly its deadline when linked at ``now``:
    ``depart + dist / velocity == start + wait`` in exact dyadic floats."""
    step = data.draw(st.sampled_from([1.0, 2.0, 3.0]))
    start = (now if math.isfinite(now) else 0.0) + data.draw(st.sampled_from([0.0, 0.5]))
    depart = max(worker.start, start, now)
    x, y = worker.location
    return Task(
        id=tid,
        location=(x + step, y),
        start=start,
        wait=depart + step / worker.velocity - start,
        skill=min(worker.skills),
    )


def _check_rejects(events, workers, tasks, metric, now):
    """Every reject of one batch carries the scalar oracle's reason."""
    w_by_id = {w.id: w for w in workers}
    t_by_id = {t.id: t for t in tasks}
    for event in events:
        worker, task = w_by_id[event["worker"]], t_by_id[event["task"]]
        oracle = pair_rejection_reason(worker, task, metric, now)
        if event["phase"] == "prune":
            # The index's reason is sound, not first-failing.
            assert oracle is not None
        else:
            assert event["reason"] == oracle, (event, worker, task, now)


class TestLinkLoopEdges:
    """The link loop against the scalar predicate on its edge cases: zero
    and infinite velocity at zero and positive distance, coincident points,
    unbounded waits and reach, a first batch at ``-inf``, tasks starting
    after the worker leaves and arrivals landing exactly on the deadline."""

    @given(
        st.data(),
        st.sampled_from(["euclidean", "scalar", "manhattan"]),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_churn_matches_rebuild_and_scalar_predicate(self, data, kind, use_index):
        metric = {
            "euclidean": EuclideanDistance(),
            "scalar": ScalarEuclidean(),
            "manhattan": ScalarManhattan(),
        }[kind]
        instance = _bucket_instance(metric)
        journal = EventJournal()
        quiet = AllocationEngine(instance, use_index=use_index)
        loud = AllocationEngine(instance, use_index=use_index, journal=journal)
        reference = RebuildEngine(instance)
        ids = iter(range(1, 10**6))
        now = data.draw(st.sampled_from([-math.inf, 0.0]))
        workers = [
            _edge_worker(data, next(ids), now)
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        tasks = [
            _edge_task(data, next(ids), now)
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        for _ in range(data.draw(st.integers(2, 5))):
            movers = [w for w in workers if 0.0 < w.velocity < math.inf]
            if movers and data.draw(st.booleans()):
                mover = data.draw(st.sampled_from(movers))
                tasks.append(_boundary_task(data, next(ids), mover, now))
            seen = len(journal.events)
            views = [
                engine.begin_batch(workers, tasks, now).checker
                for engine in (quiet, loud, reference)
            ]
            pairs = list(views[2].pairs())
            assert list(views[0].pairs()) == list(views[1].pairs()) == pairs
            _assert_view_matches(views[0], views[2], workers, tasks)
            assert set(pairs) == {
                (w.id, t.id)
                for w in workers
                for t in tasks
                if pair_feasible(w, t, metric, now)
            }
            assert quiet.stats() == loud.stats()
            assert quiet.aux_stats() == loud.aux_stats()
            assert quiet._tasks_of == loud._tasks_of
            _check_rejects(
                [e for e in journal.events[seen:] if e["type"] == "reject"],
                workers, tasks, metric, now,
            )
            # Churn: time advances (or stands), tasks leave and arrive,
            # workers leave, relocate and arrive.
            now = (now if math.isfinite(now) else 0.0) + data.draw(
                st.sampled_from([0.0, 0.5, 1.0])
            )
            tasks = [t for t in tasks if data.draw(st.booleans())] + [
                _edge_task(data, next(ids), now)
                for _ in range(data.draw(st.integers(0, 3)))
            ]
            survivors = []
            for worker in workers:
                roll = data.draw(st.sampled_from(["stay", "leave", "move"]))
                if roll == "leave":
                    continue
                if roll == "move":
                    spot = (data.draw(_EDGE_COORDS), data.draw(_EDGE_COORDS))
                    worker = worker.relocated(spot, now, travelled=data.draw(_EDGE_REACH))
                survivors.append(worker)
            workers = survivors + [
                _edge_worker(data, next(ids), now)
                for _ in range(data.draw(st.integers(0, 2)))
            ]
