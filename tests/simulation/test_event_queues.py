"""Differential test: the event-queue batch loop against the rescanning loop.

:class:`~repro.simulation.platform.Platform` builds each snapshot from
arrival lists and deadline heaps; :class:`tests.reference.RescanPlatform`
rescans the whole pool and every open task id.  On adversarial timings —
zero waits, windows that fall wholly between two batches, equal starts,
services that finish exactly on a batch time, ``FRESH`` rejoins with zero
wait, a batch interval longer than every window, empty populations — both
must hand the engine the same ordered worker list and the same task set
every batch, and produce equal reports, ``engine_stats``, batch records
and journal streams.  The one journal difference allowed is the order of
``reject`` events inside a batch's run of them, which follows task order
(ascending id here, ``set`` order in the reference).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.engine import AllocationEngine
from repro.obs.events import EventJournal
from repro.simulation import platform as platform_module
from repro.simulation.platform import Platform, RejoinPolicy
from tests.reference import RescanPlatform

#: Half-unit time grid: starts, waits and durations collide with each other
#: and with batch times (every interval below is a multiple of 0.5).
times = st.integers(min_value=0, max_value=16).map(lambda k: k * 0.5)
waits = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 4.0])
durations = st.sampled_from([0.0, 0.5, 1.0, 2.0])
coords = st.integers(min_value=0, max_value=6).map(float)
intervals = st.sampled_from([0.5, 1.0, 1.5, 2.0, 50.0])


@st.composite
def instances(draw):
    n_workers = draw(st.integers(min_value=0, max_value=7))
    n_tasks = draw(st.integers(min_value=0, max_value=9))
    workers = [
        Worker(
            id=i,
            location=(draw(coords), draw(coords)),
            start=draw(times),
            wait=draw(waits),
            velocity=draw(st.sampled_from([1.0, 2.0, 8.0])),
            max_distance=draw(st.sampled_from([3.0, 8.0, 40.0])),
            skills=frozenset(draw(st.sets(st.integers(0, 1), min_size=1))),
        )
        for i in range(n_workers)
    ]
    tasks = [
        Task(
            id=j,
            location=(draw(coords), draw(coords)),
            start=draw(times),
            wait=draw(waits),
            skill=draw(st.integers(0, 1)),
            dependencies=frozenset(
                draw(st.sets(st.integers(0, j - 1), max_size=2)) if j else ()
            ),
            duration=draw(durations),
        )
        for j in range(n_tasks)
    ]
    return ProblemInstance(workers=workers, tasks=tasks, skills=SkillUniverse(2))


def _recording_engines(monkeypatch, log):
    """Log every batch input the platform hands an engine."""

    class RecordingEngine(AllocationEngine):
        def begin_batch(self, workers, tasks, now, *args, **kwargs):
            log.append((now, [w.id for w in workers], {t.id for t in tasks}))
            return super().begin_batch(workers, tasks, now, *args, **kwargs)

    monkeypatch.setattr(platform_module, "AllocationEngine", RecordingEngine)


def _run(platform_cls, instance, approach, interval, rejoin):
    log = []
    journal = EventJournal()
    with pytest.MonkeyPatch.context() as patch:
        _recording_engines(patch, log)
        report = platform_cls(
            instance,
            make_allocator(approach, seed=3),
            batch_interval=interval,
            rejoin=rejoin,
            journal=journal,
        ).run()
    return report, log, journal.events


def _canonical(events):
    """Events without ``seq``; each run of ``reject`` events as a multiset.

    Consecutive rejects form one block at their stream position, so
    non-reject events must match in order and each block as a multiset.
    """
    out, block = [], Counter()
    for event in events:
        record = {k: v for k, v in event.items() if k != "seq"}
        if record["type"] == "reject":
            block[tuple(sorted(record.items()))] += 1
            continue
        if block:
            out.append(("rejects", block))
            block = Counter()
        out.append(record)
    if block:
        out.append(("rejects", block))
    return out


def _batch_rows(report):
    # ``elapsed`` is allocator wall time, not a decision.
    return [
        (b.index, b.time, b.available_workers, b.open_tasks, b.score)
        for b in report.batches
    ]


@pytest.mark.parametrize("rejoin", list(RejoinPolicy))
@given(
    instance=instances(),
    approach=st.sampled_from(APPROACH_NAMES),
    interval=intervals,
)
@settings(max_examples=60, deadline=None)
def test_event_loop_matches_rescan(instance, approach, interval, rejoin):
    new, new_log, new_events = _run(Platform, instance, approach, interval, rejoin)
    ref, ref_log, ref_events = _run(RescanPlatform, instance, approach, interval, rejoin)
    assert new_log == ref_log
    assert new.assignments == ref.assignments
    assert new.completion_times == ref.completion_times
    assert new.expired_tasks == ref.expired_tasks
    assert new.engine_stats == ref.engine_stats
    assert _batch_rows(new) == _batch_rows(ref)
    assert _canonical(new_events) == _canonical(ref_events)


def _worker(wid, start, wait, location=(0.0, 0.0)):
    return Worker(
        id=wid, location=location, start=start, wait=wait, velocity=1.0,
        max_distance=100.0, skills=frozenset({0}),
    )


def _task(tid, start, wait, location=(1.0, 0.0), duration=0.0):
    return Task(
        id=tid, location=location, start=start, wait=wait, skill=0,
        duration=duration,
    )


@pytest.mark.parametrize("rejoin", list(RejoinPolicy))
def test_pinned_edge_timings(rejoin):
    """The named edge cases, each present at once in one instance.

    Worker 0 finishes its first task exactly on the batch time 2.0; worker 1
    has a zero wait on a batch time; worker 2's and task 3's windows fall
    wholly between the batches at 2.0 and 4.0; tasks 1 and 2 share a start.
    """
    instance = ProblemInstance(
        workers=[
            _worker(0, 0.0, 0.0),
            _worker(1, 2.0, 0.0, location=(1.0, 0.0)),
            _worker(2, 2.5, 1.0),
            _worker(3, 0.0, 6.0, location=(3.0, 0.0)),
        ],
        tasks=[
            _task(0, 0.0, 0.0, location=(0.0, 0.0), duration=2.0),
            _task(1, 2.0, 2.0),
            _task(2, 2.0, 0.0, location=(3.0, 0.0)),
            _task(3, 2.5, 1.0),
            _task(4, 4.0, 0.0, location=(2.0, 0.0)),
        ],
        skills=SkillUniverse(1),
    )
    for approach in ("Greedy", "Closest"):
        new, new_log, new_events = _run(Platform, instance, approach, 2.0, rejoin)
        ref, ref_log, ref_events = _run(RescanPlatform, instance, approach, 2.0, rejoin)
        assert new_log == ref_log
        assert new.assignments == ref.assignments
        assert new.expired_tasks == ref.expired_tasks
        assert _canonical(new_events) == _canonical(ref_events)
    # Worker 0 serves task 0 at t=0 and is free again at exactly 2.0: only
    # FRESH re-admits a worker whose original window was zero.
    rejoined = any(0 in ids for now, ids, _ in new_log if now == 2.0)
    assert rejoined == (rejoin is RejoinPolicy.FRESH)


@pytest.mark.parametrize("rejoin", [RejoinPolicy.REMAINING, RejoinPolicy.FRESH])
def test_rejoins_enter_in_commit_order(rejoin):
    """Workers released together rejoin in commit order, not finish order.

    Four workers each serve the task at their own location at t=0; the
    outer two serve longer, so finish order interleaves commit order either
    way round, and all four are back in the pool at the batch at 2.0.
    """
    instance = ProblemInstance(
        workers=[_worker(i, 0.0, 10.0, location=(5.0 * i, 0.0)) for i in range(4)],
        tasks=[
            _task(i, 0.0, 10.0, location=(5.0 * i, 0.0),
                  duration=1.5 if i in (0, 3) else 0.5)
            for i in range(4)
        ] + [_task(4, 2.0, 2.0, location=(7.0, 0.0))],
        skills=SkillUniverse(1),
    )
    new, new_log, events = _run(Platform, instance, "Closest", 2.0, rejoin)
    ref, ref_log, _ = _run(RescanPlatform, instance, "Closest", 2.0, rejoin)
    committed = [e["worker"] for e in events if e["type"] == "assign"]
    assert [ids for now, ids, _ in new_log if now == 2.0] == [committed[:4]]
    assert new_log == ref_log
    assert new.assignments == ref.assignments
