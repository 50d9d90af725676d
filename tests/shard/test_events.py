"""Sharded runs through the flight recorder: stamping, validity, replay.

Sharded engines bracket per-shard work with ``journal.set_shard(sid)``, so
feasibility events carry the shard that produced them while run-level
events stay unstamped.  The stream must still pass the schema validator
and — the strong pin — ``replay_report`` must reconstruct the platform's
own report from the events alone.
"""

import pytest

from repro.algorithms.registry import make_allocator
from repro.explain import ExplainIndex, replay_report, validate_replay
from repro.obs.events import (
    EVENTS_SCHEMA,
    EventJournal,
    events_records,
    validate_events_records,
)
from repro.simulation.platform import Platform, RejoinPolicy


def _with_header(records):
    return [{"type": "header", "schema": EVENTS_SCHEMA}] + records


def _run_journaled(instance, shards=4):
    journal = EventJournal()
    report = Platform(
        instance,
        make_allocator("Greedy", seed=11),
        batch_interval=5.0,
        rejoin=RejoinPolicy.REMAINING,
        shards=shards,
        journal=journal,
    ).run()
    return report, events_records(journal)


class TestShardStamping:
    def test_set_shard_stamps_and_clears(self):
        journal = EventJournal()
        journal.emit("feas_build", batch=0, t=0.0)
        journal.set_shard(2)
        journal.emit("feas_build", batch=0, t=0.0)
        journal.set_shard(None)
        journal.emit("run_end", t=1.0)
        records = events_records(journal)
        assert "shard" not in records[0]
        assert records[1]["shard"] == 2
        assert "shard" not in records[2]

    def test_explicit_shard_field_wins(self):
        journal = EventJournal()
        journal.set_shard(1)
        journal.emit("feas_build", batch=0, t=0.0, shard=7)
        assert events_records(journal)[0]["shard"] == 7

    def test_disabled_journal_ignores_set_shard(self):
        journal = EventJournal(enabled=False)
        journal.set_shard(3)
        journal.emit("feas_build", batch=0, t=0.0)
        assert events_records(journal) == []

    def test_validator_rejects_non_int_shard(self):
        journal = EventJournal()
        journal.emit("feas_build", batch=0, t=0.0, shard="west")
        records = _with_header(events_records(journal))
        with pytest.raises(ValueError, match="shard"):
            validate_events_records(records)


class TestShardedStreams:
    def test_stream_validates_and_carries_shards(self, boundary_free_instance):
        _, records = _run_journaled(boundary_free_instance)
        validate_events_records(_with_header(records))
        stamped = [r for r in records if "shard" in r]
        assert stamped, "per-shard feasibility events should be stamped"
        assert {r["shard"] for r in stamped} <= {0, 1, 2, 3}
        # Run-level lifecycle events are never attributed to a shard.
        for record in records:
            if record["type"].startswith("run_"):
                assert "shard" not in record

    def test_replay_reconstructs_report(self, boundary_free_instance):
        report, records = _run_journaled(boundary_free_instance)
        replayed = replay_report(records)
        assert replayed.assignments == report.assignments
        assert replayed.completion_times == report.completion_times
        assert replayed.expired_tasks == report.expired_tasks
        assert [b.score for b in replayed.batches] == [
            b.score for b in report.batches
        ]

    def test_journal_never_changes_the_run(self, boundary_free_instance):
        journaled, _ = _run_journaled(boundary_free_instance)
        plain = Platform(
            boundary_free_instance,
            make_allocator("Greedy", seed=11),
            batch_interval=5.0,
            rejoin=RejoinPolicy.REMAINING,
            shards=4,
        ).run()
        assert journaled.assignments == plain.assignments
        assert journaled.engine_stats == plain.engine_stats

    def test_reconcile_journals_a_standalone_full_build(self, bordered_instance):
        report, records = _run_journaled(bordered_instance, shards=2)
        validate_events_records(_with_header(records))
        validate_replay(records, report)
        # Shard syncs are stamped; the reconcile's one-shot engine is not.
        reconcile = [
            r for r in records if r["type"] == "feas_build" and "shard" not in r
        ]
        assert reconcile and {r["mode"] for r in reconcile} == {"full"}
        rejects = [r for r in records if r["type"] == "reject"]
        assert {r["phase"] for r in rejects} <= {"build", "view", "alloc"}
        index = ExplainIndex(records)
        assert index.summary()
        pair = rejects[0]
        assert index.why_not(pair["worker"], pair["task"])["reasons"]
