"""Events-equivalence acceptance: the flight recorder never changes a run.

Mirrors ``test_platform_tracing.py``: with the journal on, every approach's
``SimulationReport`` — assignments, completion times, per-batch records and
the ``engine_stats`` keys *and values* — must be bit-identical to the
journal-off run, on one engine and on two shards.  The recorded stream
itself must pass the schema validator and tell a coherent story (funnel
conservation, assignment/expiry completeness).
"""

import contextlib
from dataclasses import replace

import pytest

from repro.algorithms.greedy import DASCGreedy
from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.context import BatchContext
from repro.obs.events import (
    EVENTS_SCHEMA,
    NULL_JOURNAL,
    EventJournal,
    events_records,
    get_journal,
    validate_events_records,
)
from repro.simulation.platform import Platform
from repro.spatial.distance import EuclideanDistance, ManhattanDistance
from tests.reference import without_engine


def _run(instance, name, *, journal=None, use_engine=True, shards=1):
    with contextlib.nullcontext() if use_engine else without_engine():
        return Platform(
            instance,
            make_allocator(name, seed=11),
            batch_interval=5.0,
            journal=journal,
            shards=shards,
        ).run()


def _assert_identical(a, b):
    assert a.allocator == b.allocator
    assert a.assignments == b.assignments
    assert a.completion_times == b.completion_times
    assert a.expired_tasks == b.expired_tasks
    assert [
        (r.index, r.time, r.available_workers, r.open_tasks, r.score)
        for r in a.batches
    ] == [
        (r.index, r.time, r.available_workers, r.open_tasks, r.score)
        for r in b.batches
    ]
    assert a.engine_stats == b.engine_stats
    assert list(a.engine_stats) == list(b.engine_stats)  # key order too


@pytest.fixture(scope="module")
def instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))


def _check_journaled_equals_plain(instance, name, shards):
    journal = EventJournal()
    recorded = _run(instance, name, journal=journal, shards=shards)
    plain = _run(instance, name, shards=shards)
    _assert_identical(recorded, plain)
    records = [{"type": "header", "schema": EVENTS_SCHEMA}]
    records += events_records(journal)
    validate_events_records(records)


class TestReportsBitIdentical:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_journaled_equals_plain(self, instance, name):
        _check_journaled_equals_plain(instance, name, shards=1)

    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_journaled_equals_plain_on_two_shards(self, instance, name):
        _check_journaled_equals_plain(instance, name, shards=2)

    def test_journaled_equals_plain_legacy_path(self, instance):
        journal = EventJournal()
        recorded = _run(instance, "Greedy", journal=journal, use_engine=False)
        plain = _run(instance, "Greedy", use_engine=False)
        _assert_identical(recorded, plain)
        assert recorded.engine_stats == {}
        # The rebuild reference's exhaustive oracle journals nothing.
        assert not journal.of_type("feas_build")
        assert journal.of_type("assign")

    def test_disabled_journal_stays_empty(self, instance):
        journal = EventJournal(enabled=False)
        _run(instance, "Greedy", journal=journal)
        assert len(journal) == 0


class TestStreamCoherence:
    @pytest.fixture(scope="class")
    def journal_and_report(self, instance):
        journal = EventJournal()
        report = _run(instance, "Game", journal=journal)
        return journal, report

    def test_run_frame(self, journal_and_report):
        journal, report = journal_and_report
        opens = journal.of_type("run_open")
        closes = journal.of_type("run_close")
        assert len(opens) == len(closes) == 1
        assert journal.events[0] is opens[0]
        assert journal.events[-1] is closes[0]
        assert opens[0]["allocator"] == report.allocator
        assert closes[0]["score"] == report.total_score
        assert closes[0]["batches"] == report.num_batches
        assert closes[0]["assigned"] == len(report.assignments)
        assert closes[0]["expired"] == len(report.expired_tasks)

    def test_batches_frame_the_run(self, journal_and_report):
        journal, report = journal_and_report
        opens = journal.of_type("batch_open")
        closes = journal.of_type("batch_close")
        assert [e["batch"] for e in opens] == [b.index for b in report.batches]
        assert [e["score"] for e in closes] == [b.score for b in report.batches]
        assert [e["workers"] for e in opens] == [
            b.available_workers for b in report.batches
        ]

    def test_assignments_and_expiries_are_complete(self, journal_and_report):
        journal, report = journal_and_report
        assigns = {e["task"]: e["worker"] for e in journal.of_type("assign")}
        assert assigns == report.assignments
        completes = {e["task"]: e["t"] for e in journal.of_type("complete")}
        assert completes == report.completion_times
        expired = sorted(e["task"] for e in journal.of_type("task_expire"))
        assert expired == sorted(report.expired_tasks)

    def test_every_pair_decided_once_per_build(self, journal_and_report):
        journal, _ = journal_and_report
        # Full-build batches: fresh decisions partition the candidate pairs.
        builds = {
            e["batch"]: e
            for e in journal.of_type("feas_build")
            if e["mode"] == "full"
        }
        views = {e.get("batch"): e for e in journal.of_type("feas_view")}
        fresh_rejects = {}
        for event in journal.of_type("reject"):
            if event["phase"] == "build":
                key = event.get("batch")
                fresh_rejects[key] = fresh_rejects.get(key, 0) + 1
        for batch, build in builds.items():
            assert build["pairs"] == fresh_rejects.get(batch, 0) + views[batch]["links"]

    def test_game_rounds_present(self, journal_and_report):
        journal, _ = journal_and_report
        rounds = journal.of_type("game_round")
        assert rounds
        for event in rounds:
            assert event["evaluated"] >= event["changed"] >= 0
            assert event["skipped"] >= 0

    @pytest.mark.parametrize(
        "metric", [EuclideanDistance(), ManhattanDistance()],
        ids=["euclidean", "manhattan"],
    )
    def test_reject_reasons_match_oracle(self, instance, metric):
        """Every journaled rejection is confirmed infeasible by pair_feasible.

        Builds a standalone context (pristine worker records — the platform
        relocates workers after assignments, so its snapshots differ from
        ``instance.workers``) and re-checks each per-pair verdict and its
        reason code, under both planar metrics.
        """
        from repro.core.constraints import pair_feasible, pair_rejection_reason

        instance = replace(instance, metric=metric)
        journal = EventJournal()
        now = 40.0
        workers = [w for w in instance.workers if w.active_at(now)]
        tasks = [t for t in instance.tasks if t.active_at(now)]
        checker = BatchContext.standalone(
            workers, tasks, instance, now, journal=journal
        ).checker
        worker_by_id = {w.id: w for w in workers}
        task_by_id = {t.id: t for t in tasks}
        checked = 0
        for event in journal.of_type("reject"):
            worker = worker_by_id[event["worker"]]
            task = task_by_id[event["task"]]
            assert not pair_feasible(worker, task, metric=metric, now=now), event
            assert event["reason"] == pair_rejection_reason(
                worker, task, metric=metric, now=now
            ), event
            checked += 1
        assert checked > 100
        # Funnel conservation: every pair is decided exactly once.
        build = journal.of_type("feas_build")[0]
        rejects = len(journal.of_type("reject"))
        assert build["pairs"] == len(workers) * len(tasks)
        assert build["pairs"] == rejects + checker.pair_count()


class TestGreedyEvents:
    def test_match_set_events(self, instance):
        journal = EventJournal()
        report = _run(instance, "Greedy", journal=journal)
        sets = journal.of_type("match_set")
        assert sets
        staffed = [e for e in sets if e["staffed"]]
        # Greedy commits one task set per staffed matching.
        assert len(staffed) > 0
        assert all(e["size"] >= 1 for e in sets)
        assert len(report.assignments) >= len(staffed)


def _journaled_greedy(instance, interval):
    journal = EventJournal()
    report = Platform(
        instance, DASCGreedy(), batch_interval=interval, journal=journal
    ).run()
    return report, journal


def _two_task_instance():
    workers = [
        Worker(id=1, location=(0.0, 0.0), start=0.0, wait=100.0, velocity=1.0,
               max_distance=100.0, skills=frozenset({0})),
    ]
    tasks = [
        Task(id=1, location=(1.0, 0.0), start=0.0, wait=50.0, skill=0, duration=2.0),
        Task(id=2, location=(9.0, 0.0), start=0.0, wait=1.0, skill=0),  # expires
    ]
    return ProblemInstance(workers=workers, tasks=tasks, skills=SkillUniverse(1))


class TestJournalTimeline:
    """The journal's assign / complete / task_expire records tell the run's
    timeline: what happened, to which task, and when."""

    def test_assign_complete_and_expire_recorded(self):
        _, journal = _journaled_greedy(_two_task_instance(), 5.0)
        assigns = journal.of_type("assign")
        completes = journal.of_type("complete")
        assert [e["task"] for e in assigns] == [1]
        assert [e["task"] for e in completes] == [1]
        assert [e["task"] for e in journal.of_type("task_expire")] == [2]
        # completion = assign time + travel (1.0) + duration (2.0)
        assert completes[0]["t"] == pytest.approx(assigns[0]["t"] + 3.0)

    def test_expire_time_is_task_deadline(self):
        instance = _two_task_instance()
        _, journal = _journaled_greedy(instance, 5.0)
        expire = journal.of_type("task_expire")[0]
        assert expire["t"] == pytest.approx(instance.task(2).deadline)

    def test_no_journal_by_default(self, example1):
        report = Platform(example1, DASCGreedy(), batch_interval=10000.0).run()
        assert report.total_score >= 3  # runs without a recorder
        assert get_journal() is NULL_JOURNAL
        assert len(NULL_JOURNAL) == 0

    def test_trace_consistent_with_report(self, example1):
        report, journal = _journaled_greedy(example1, 10000.0)
        assert {e["task"] for e in journal.of_type("assign")} == set(report.assignments)
        assert {e["task"] for e in journal.of_type("task_expire")} == set(
            report.expired_tasks
        )

    def test_completions_follow_assignments_and_expiries_are_due(self, instance):
        report, journal = _journaled_greedy(instance, 5.0)
        assert report.assignments
        position = {id(e): i for i, e in enumerate(journal.events)}
        completes = {e["task"]: e for e in journal.of_type("complete")}
        for assign in journal.of_type("assign"):
            complete = completes[assign["task"]]
            assert complete["worker"] == assign["worker"]
            assert position[id(complete)] > position[id(assign)]
            assert complete["t"] >= assign["t"]
        batch_time = {e["batch"]: e["t"] for e in journal.of_type("batch_close")}
        expiries = journal.of_type("task_expire")
        assert expiries
        for expire in expiries:
            assert expire["t"] == instance.task(expire["task"]).deadline
            if "batch" in expire:
                # Expired in the first batch at or after its deadline.
                assert expire["t"] <= batch_time[expire["batch"]]
