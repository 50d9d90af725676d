"""Skill-first incremental syncs: columnar and scalar are bit-identical.

Bulk task arrivals and a mass rejoin push the engine's incremental syncs
over :data:`~repro.engine.engine.COLUMNAR_SYNC_MIN_PAIRS`, so they run as
kernel tiles (arrivals task-major, row recomputes worker-major or over
index-probed candidate columns).  Against the scalar loops they replace
(the same instance under a metric with no kernel code),
the feasible-pair graph, every batch view, ``engine_stats``, the
distance-cache contents and insertion order, and the journal's event
stream must all match exactly — on both kernel backends, with and without
a grid index, with a bounded cache, and in a 2-shard run.
"""

import random
from dataclasses import replace

import pytest

from repro.algorithms.registry import make_allocator
from repro.columnar import available_backends
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.engine import COLUMNAR_SYNC_MIN_PAIRS, AllocationEngine
from repro.obs.events import EventJournal, events_records
from repro.simulation.platform import Platform, RejoinPolicy
from tests.reference import ScalarEuclidean, use_fallback_kernels

N_SKILLS = 12
N_WORKERS = 160


def _workers(rng, region, count):
    workers = []
    for i in range(count):
        workers.append(
            Worker(
                id=i,
                location=(rng.uniform(0, region), rng.uniform(0, region)),
                start=0.0,
                wait=60.0,
                velocity=0.0 if i % 9 == 0 else rng.uniform(0.05, 0.3),
                max_distance=rng.uniform(0.3, 0.9),
                skills=frozenset(rng.sample(range(N_SKILLS), 3)),
            )
        )
    return workers


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


def _instance(region, n_workers=N_WORKERS, waves=(30, 40, 40, 60), seed=3):
    rng = random.Random(seed)
    workers = _workers(rng, region, n_workers)
    tasks = []
    for wave, count in enumerate(waves):
        tasks += _tasks(rng, region, len(tasks), count, float(wave))
    # A worker standing on a task: the dist == 0 arm of the predicate.
    workers[1] = replace(workers[1], location=tasks[0].location)
    return ProblemInstance(workers, tasks, SkillUniverse(N_SKILLS))


def _moved(worker, rng, region):
    return replace(worker, location=(rng.uniform(0, region), rng.uniform(0, region)))


def _script(instance, region):
    """Batches ``(now, workers, tasks)``: a full build, then bulk arrivals,
    a mass rejoin (every worker relocated at once), a partial rejoin with
    arrivals under the floor, and a small rejoin with a big arrival wave."""
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


def _scalar(instance):
    return replace(instance, metric=ScalarEuclidean())


def _drive(instance, region, *, columnar, use_index, cache_maxsize=None):
    journal = EventJournal()
    engine = AllocationEngine(
        instance if columnar else _scalar(instance),
        use_index=use_index,
        cache_maxsize=cache_maxsize,
        journal=journal,
    )
    views = []
    for now, workers, tasks in _script(instance, region):
        context = engine.begin_batch(workers, tasks, now)
        views.append(sorted(context.checker.pairs()))
    cache = engine.metric
    state = {
        "views": views,
        "tasks_of": engine._tasks_of,
        "workers_of": engine._workers_of,
        "stats": engine.stats(),
        "cache": list(cache._cache.items()),
        "cache_counts": (cache.hits, cache.misses, cache.evictions),
        "events": [
            {k: v for k, v in record.items() if k != "columnar"}
            for record in events_records(journal)
        ],
    }
    return state, engine


@pytest.fixture(params=available_backends())
def backend(request, monkeypatch):
    if request.param == "fallback":
        use_fallback_kernels(monkeypatch)
    return request.param


@pytest.mark.parametrize("use_index", [False, True])
@pytest.mark.parametrize("cache_maxsize", [None, 97])
def test_bulk_syncs_match_scalar(backend, use_index, cache_maxsize):
    region = 4.0 if use_index else 1.0
    instance = _instance(region)
    on, engine = _drive(
        instance, region, columnar=True, use_index=use_index,
        cache_maxsize=cache_maxsize,
    )
    off, _ = _drive(
        instance, region, columnar=False, use_index=use_index,
        cache_maxsize=cache_maxsize,
    )
    assert on == off
    # The scenario must actually exercise what it claims to.
    assert (engine._index is not None) == use_index
    assert (on["stats"]["engine_pruned_by_index"] > 0) == use_index
    aux = engine.aux_stats()
    # Bulk arrivals alone decide 160 x 40 pairs in one tile.
    assert aux["engine_columnar_pairs"] >= N_WORKERS * 40 > COLUMNAR_SYNC_MIN_PAIRS
    assert aux["engine_scalar_pair_evals"] > 0  # the under-floor syncs
    assert any(e["reason"] == "skill" for e in on["events"] if e["type"] == "reject")
    if cache_maxsize is not None:
        assert on["cache_counts"][2] > 0
    if use_index:
        assert any(e.get("phase") == "prune" for e in on["events"])


def _platform_run(instance, columnar, shards, journal):
    platform = Platform(
        instance if columnar else _scalar(instance),
        make_allocator("Greedy", seed=5),
        batch_interval=1.0,
        rejoin=RejoinPolicy.FRESH,
        shards=shards,
        journal=journal,
    )
    report = platform.run()
    return report, platform.last_engine


@pytest.mark.parametrize("shards", [1, 2])
def test_platform_rejoin_runs_match_scalar(backend, shards):
    # Each of two shards still sees ~200 workers x ~60 arriving tasks.
    instance = _instance(4.0, n_workers=400, waves=(100, 120, 120, 100))
    results = {}
    for columnar in (True, False):
        journal = EventJournal()
        report, engine = _platform_run(instance, columnar, shards, journal)
        events = [
            {k: v for k, v in record.items() if k != "columnar"}
            for record in events_records(journal)
        ]
        engines = getattr(engine, "engines", [engine])
        caches = [list(e.metric._cache.items()) for e in engines]
        results[columnar] = (report, events, caches, engine.aux_stats())
    (on, on_events, on_caches, on_aux), (off, off_events, off_caches, _) = (
        results[True], results[False],
    )
    assert on.assignments == off.assignments
    assert on.completion_times == off.completion_times
    assert on.expired_tasks == off.expired_tasks
    assert [b.score for b in on.batches] == [b.score for b in off.batches]
    assert on.engine_stats == off.engine_stats
    assert on_caches == off_caches
    assert on_events == off_events
    assert on_aux["engine_columnar_pairs"] > COLUMNAR_SYNC_MIN_PAIRS
    assert on.total_score > 0

