"""Kernel full builds and scalar incremental syncs: bit-identical to scalar.

A full build decides its tile through the columnar kernels; every later
sync — bulk task arrivals, a mass rejoin — runs the bucketed scalar loops.
Against the same instance under a metric with no kernel code (where the
full build is scalar too), the feasible-pair graph, every batch view,
``engine_stats`` and the journal's event stream must all match exactly —
with and without a grid index, and in a 2-shard run.  The auxiliary
counters must show the split: the first full build's pairs in
``engine_columnar_pairs``, every incremental pair in
``engine_scalar_pair_evals``.

The ``backend`` parameter runs each case twice: ``numpy`` as above, and
``fallback`` with numpy hidden, as on a host without it, where the same
instance takes the scalar loops throughout and must still match.
The ``block`` parameter shrinks the kernels' block to 97 pairs, so the
full build's tile runs as many blocks; nothing observable may move (and,
without numpy, the kernels are never reached at all).
"""

import random
from dataclasses import replace

import pytest

import repro.columnar.kernels as kernels
from repro.algorithms.registry import make_allocator
from repro.columnar import numpy_available
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.engine import AllocationEngine
from repro.obs.events import EventJournal, events_records
from repro.simulation.platform import Platform, RejoinPolicy
from tests.reference import ScalarEuclidean, without_numpy

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
    a few arrivals, and a small rejoin with a big arrival wave."""
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


def _drive(instance, region, *, columnar, use_index):
    journal = EventJournal()
    engine = AllocationEngine(
        instance if columnar else _scalar(instance),
        use_index=use_index,
        journal=journal,
    )
    views = []
    first_build = None
    for now, workers, tasks in _script(instance, region):
        context = engine.begin_batch(workers, tasks, now)
        views.append(sorted(context.checker.pairs()))
        if first_build is None:
            first_build = engine.stats()
    state = {
        "views": views,
        "tasks_of": engine._tasks_of,
        "workers_of": engine._workers_of,
        "stats": engine.stats(),
        "events": [
            {k: v for k, v in record.items() if k != "columnar"}
            for record in events_records(journal)
        ],
    }
    return state, engine, first_build


@pytest.fixture(params=["numpy", "fallback"])
def backend(request, monkeypatch):
    if request.param == "fallback":
        without_numpy(monkeypatch)
    elif not numpy_available():
        pytest.skip("the kernels need numpy")
    return request.param


@pytest.mark.parametrize("use_index", [False, True])
@pytest.mark.parametrize("block", [None, 97])
def test_bulk_syncs_match_scalar(backend, use_index, block, monkeypatch):
    region = 4.0 if use_index else 1.0
    instance = _instance(region)
    if block is not None:
        default, default_engine, _ = _drive(
            instance, region, columnar=True, use_index=use_index
        )
        monkeypatch.setattr(kernels, "TILE_BLOCK_PAIRS", block)
    on, engine, first_build = _drive(instance, region, columnar=True, use_index=use_index)
    off, _, _ = _drive(instance, region, columnar=False, use_index=use_index)
    assert on == off
    # The scenario must actually exercise what it claims to.
    assert (engine._index is not None) == use_index
    assert (on["stats"]["engine_pruned_by_index"] > 0) == use_index
    aux = engine.aux_stats()
    checked = on["stats"]["engine_pairs_checked"]
    assert aux["engine_columnar_pairs"] + aux["engine_scalar_pair_evals"] == checked
    build_pairs = first_build["engine_pairs_checked"]
    assert 0 < build_pairs < checked
    if backend == "fallback":
        assert not engine.columnar_active
        assert aux["engine_columnar_pairs"] == 0
    else:
        # The full build is one kernel tile; every sync pair is scalar.
        assert aux["engine_columnar_full_builds"] == 1
        assert aux["engine_columnar_pairs"] == build_pairs
        assert aux["engine_scalar_pair_evals"] == checked - build_pairs
    if block is not None:
        # The build's tile spans many blocks; blocking must not show.
        assert build_pairs > block
        assert on == default
        assert aux == default_engine.aux_stats()
    assert any(e["reason"] == "skill" for e in on["events"] if e["type"] == "reject")
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
        results[columnar] = (report, events, engine.aux_stats())
        # ``columnar`` stamps the path that ran: true only on a full build
        # the kernels decided, false on every scalar incremental sync.
        builds = journal.of_type("feas_build")
        full = [e["columnar"] for e in builds if e["mode"] == "full"]
        incremental = [e["columnar"] for e in builds if e["mode"] == "incremental"]
        assert full == [columnar and backend == "numpy"] * shards
        assert incremental and not any(incremental)
    (on, on_events, on_aux), (off, off_events, _) = results[True], results[False]
    assert on.assignments == off.assignments
    assert on.completion_times == off.completion_times
    assert on.expired_tasks == off.expired_tasks
    assert [b.score for b in on.batches] == [b.score for b in off.batches]
    assert on.engine_stats == off.engine_stats
    assert on_events == off_events
    if backend == "fallback":
        assert on_aux["engine_columnar_pairs"] == 0
    else:
        # One kernel full build per engine: the global one, or each shard's.
        assert on_aux["engine_columnar_full_builds"] == shards
        assert on_aux["engine_columnar_pairs"] > 0
    assert on_aux["engine_scalar_pair_evals"] > 0  # the incremental syncs
    assert on.total_score > 0

