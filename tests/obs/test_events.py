"""Event journal unit tests: emission, defaults, JSONL round-trip, validator."""

import pytest

from repro.obs.events import (
    EVENT_FIELDS,
    EVENTS_SCHEMA,
    EventJournal,
    NULL_JOURNAL,
    FEAS_MODES,
    REASONS,
    REJECT_PHASES,
    events_records,
    get_journal,
    set_journal,
    validate_events_records,
    write_events_jsonl,
)
from repro.obs.export import read_jsonl


class TestJournal:
    def test_emit_records_in_order_with_seq(self):
        journal = EventJournal()
        journal.emit("task_expire", t=1.0, task=7)
        journal.emit("task_expire", t=2.0, task=8)
        assert [e["seq"] for e in journal] == [0, 1]
        assert [e["task"] for e in journal] == [7, 8]

    def test_batch_is_stamped_and_cleared(self):
        journal = EventJournal()
        journal.emit("task_expire", t=0.0, task=1)
        journal.set_batch(3)
        journal.emit("task_expire", t=0.0, task=2)
        journal.set_batch(None)
        journal.emit("task_expire", t=0.0, task=3)
        batches = [e.get("batch") for e in journal]
        assert batches == [None, 3, None]

    def test_explicit_batch_wins_over_stamp(self):
        journal = EventJournal()
        journal.set_batch(5)
        journal.emit("task_expire", t=0.0, task=1, batch=9)
        assert journal.events[0]["batch"] == 9

    def test_disabled_journal_records_nothing(self):
        journal = EventJournal(enabled=False)
        journal.emit("task_expire", t=0.0, task=1)
        journal.set_batch(4)
        assert len(journal) == 0
        assert NULL_JOURNAL.enabled is False
        assert len(NULL_JOURNAL) == 0

    def test_clear_resets_seq(self):
        journal = EventJournal()
        journal.emit("task_expire", t=0.0, task=1)
        journal.clear()
        journal.emit("task_expire", t=0.0, task=2)
        assert journal.events[0]["seq"] == 0

    def test_of_type_and_counts(self):
        journal = EventJournal()
        journal.emit("task_expire", t=0.0, task=1)
        journal.emit("assign", batch=0, t=0.0, worker=1, task=2)
        journal.emit("task_expire", t=1.0, task=3)
        assert len(journal.of_type("task_expire")) == 2
        assert journal.counts() == {"task_expire": 2, "assign": 1}

    def test_default_journal_install_and_restore(self):
        mine = EventJournal()
        previous = set_journal(mine)
        try:
            assert get_journal() is mine
        finally:
            set_journal(previous)
        assert get_journal() is previous


def _valid_records():
    journal = EventJournal()
    journal.emit(
        "run_open", allocator="Greedy", batch_interval=5.0, start=0.0,
        horizon=10.0, workers=2, tasks=2,
    )
    journal.set_batch(0)
    journal.emit("batch_open", t=0.0, workers=2, tasks=2)
    journal.emit("reject", worker=1, task=2, reason="skill", phase="build")
    journal.emit("feas_build", mode="full", workers=2, tasks=2, pairs=4)
    journal.emit("feas_view", links=3, feasible=3)
    journal.emit("game_withdraw", worker=1, task=2, cause="contention")
    journal.emit("assign", t=0.0, worker=1, task=1)
    journal.emit("batch_close", t=0.0, score=1)
    journal.set_batch(None)
    journal.emit("run_close", score=1, batches=1, assigned=1, expired=0)
    return [{"type": "header", "schema": EVENTS_SCHEMA}] + events_records(journal)


class TestEventsJsonl:
    def test_round_trip_validates(self, tmp_path):
        journal = EventJournal()
        journal.emit("task_expire", t=1.5, task=7)
        path = tmp_path / "events.jsonl"
        written = write_events_jsonl(journal, str(path))
        records = read_jsonl(str(path))
        assert written == 1
        assert records[0] == {"type": "header", "schema": EVENTS_SCHEMA}
        validate_events_records(records)  # must not raise

    def test_valid_stream_passes(self):
        validate_events_records(_valid_records())

    def test_rejects_empty_file(self):
        with pytest.raises(ValueError, match="empty"):
            validate_events_records([])

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            validate_events_records([{"type": "header", "schema": "nope"}])

    def test_rejects_unknown_type(self):
        records = _valid_records()
        records.append({"type": "mystery", "seq": 99})
        with pytest.raises(ValueError, match="unexpected event type"):
            validate_events_records(records)

    def test_rejects_non_increasing_seq(self):
        records = _valid_records()
        records[2] = dict(records[2], seq=records[1]["seq"])
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_events_records(records)

    def test_rejects_missing_field(self):
        records = _valid_records()
        bad = {k: v for k, v in records[3].items() if k != "reason"}
        records[3] = bad
        with pytest.raises(ValueError, match="reason"):
            validate_events_records(records)

    def test_infinite_interval_is_null_and_must_be_present(self):
        records = _valid_records()
        records[1] = dict(records[1], batch_interval=None)
        validate_events_records(records)
        records[1] = {k: v for k, v in records[1].items() if k != "batch_interval"}
        with pytest.raises(ValueError, match="batch_interval"):
            validate_events_records(records)

    def test_writer_refuses_non_finite_floats(self, tmp_path):
        journal = EventJournal()
        journal.emit("task_expire", t=float("inf"), task=7)
        with pytest.raises(ValueError):
            write_events_jsonl(journal, str(tmp_path / "events.jsonl"))

    def test_rejects_bool_for_int_field(self):
        records = _valid_records()
        idx = next(i for i, r in enumerate(records) if r.get("type") == "assign")
        records[idx] = dict(records[idx], worker=True)
        with pytest.raises(ValueError, match="worker"):
            validate_events_records(records)

    def test_rejects_unknown_reason_and_phase(self):
        for field, value in (("reason", "vibes"), ("phase", "limbo")):
            records = _valid_records()
            idx = next(i for i, r in enumerate(records) if r.get("type") == "reject")
            records[idx] = dict(records[idx], **{field: value})
            with pytest.raises(ValueError, match=f"unknown rejection {field}"):
                validate_events_records(records)

    def test_rejects_unknown_mode_and_cause(self):
        records = _valid_records()
        idx = next(i for i, r in enumerate(records) if r.get("type") == "feas_build")
        records[idx] = dict(records[idx], mode="psychic")
        with pytest.raises(ValueError, match="build mode"):
            validate_events_records(records)
        records = _valid_records()
        idx = next(
            i for i, r in enumerate(records) if r.get("type") == "game_withdraw"
        )
        records[idx] = dict(records[idx], cause="boredom")
        with pytest.raises(ValueError, match="withdraw cause"):
            validate_events_records(records)

    def test_vocabulary_is_closed(self):
        # Every enum the validator checks is declared next to the schema.
        assert set(REASONS) == {"skill", "reach", "deadline", "dependency"}
        assert set(REJECT_PHASES) == {"build", "view", "alloc"}
        assert set(FEAS_MODES) == {"full", "incremental"}
        assert "reject" in EVENT_FIELDS and "assign" in EVENT_FIELDS
