"""The allocation flight recorder: a schema-versioned structured event journal.

Where :mod:`repro.obs.trace` answers *how long* each phase took and
:mod:`repro.obs.metrics` answers *how much* work was done, the event
journal answers **what happened and why**: which workers and tasks entered
each batch, which candidate pairs were rejected and for which Definition 3
constraint, which game moves were played and which assignments were
committed.  The :mod:`repro.explain` package queries the journal
(``why_not`` / ``why_assigned`` / per-batch funnels) and replays it back
into a :class:`~repro.simulation.stats.SimulationReport`.

Design rules (shared with the tracer):

* **Disabled mode is free.**  The shared :data:`NULL_JOURNAL` (and any
  ``EventJournal(enabled=False)``) makes :meth:`EventJournal.emit` a single
  attribute check; hot paths additionally guard with ``if journal.enabled``
  so no per-event dict is ever built on the disabled path.
* **Recording never feeds back.**  Nothing read from the journal influences
  an allocation decision, so simulation reports are bit-identical with
  events on or off (pinned by ``tests/obs/test_platform_events.py``).
* **Schema-versioned JSONL.**  :func:`write_events_jsonl` prefixes a
  ``repro.obs/events/v1`` header; :func:`validate_events_records` rejects
  malformed dumps, so CI and the ingest pipeline never guess.

Event vocabulary (one ``type`` per record; ``seq`` totally orders a file,
``batch`` tags records emitted inside a platform batch):

====================  ==============================================================
``run_open``          a platform run started (allocator, horizon, populations)
``run_close``         the run finished (score, batches, assigned, expired totals)
``batch_open``        a batch snapshot (batch, t, workers, tasks)
``batch_close``       the batch committed (batch, t, score)
``worker_arrive``     a worker entered the free pool (first activation or rejoin)
``worker_depart``     a worker left the pool (assigned away, window lapsed, gone)
``task_submit``       a task became visible to the platform
``task_expire``       a task's deadline passed unassigned
``feas_build``        a feasibility (re)build ran (mode full/incremental)
``feas_view``         the batch feasibility view was materialised (links, feasible)
``reject``            a (worker, task) pair was rejected — ``reason`` is one of
                      :data:`REASONS`; ``phase`` says which layer decided
``game_round``        one best-response round (changed / evaluated / skipped)
``game_move``         a worker changed strategy (frm -> to)
``game_withdraw``     a tentative game pick was dropped (contention / dependency)
``match_set``         greedy staffed (or failed to staff) an associative task set;
                      sets dropped as unstaffable before matching emit none
``assign``            a pair was committed (batch time ``t``)
``complete``          the worker physically finished the task (``t`` = finish)
====================  ==============================================================
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Schema tag written as the first line of each events JSONL file.
EVENTS_SCHEMA = "repro.obs/events/v1"

#: Reason codes for per-pair rejections — the four Definition 3 constraints
#: a pair can fail.  ``skill``: required skill not in the worker's set;
#: ``reach``: distance exceeds the worker's moving budget ``d_w``;
#: ``deadline``: the presence windows or the travel-time arrival test fail;
#: ``dependency``: the task's dependencies were not satisfied when the
#: allocator had to commit.
REASONS = ("skill", "reach", "deadline", "dependency")

#: Phases a rejection can be decided in.  ``build``: the engine's link
#: check (full build — a standalone context's one-shot engine included —
#: or incremental row recompute); ``view``: the per-batch deadline filter
#: over stored links; ``alloc``: an allocator-level drop (dependency
#: pruning).
REJECT_PHASES = ("build", "view", "alloc")

#: Known event types and their required fields (beyond ``type``/``seq``).
#: ``batch`` is required where listed; elsewhere it is optional context.
#: ``run_open``'s ``batch_interval`` is null for an infinite interval (one
#: batch at the start, one at the horizon): files are standard JSON, which
#: has no ``Infinity``.
EVENT_FIELDS: Dict[str, Dict[str, Any]] = {
    "run_open": {
        "allocator": str,
        "batch_interval": (int, float, type(None)),
        "start": (int, float),
        "horizon": (int, float),
        "workers": int,
        "tasks": int,
    },
    "run_close": {"score": int, "batches": int, "assigned": int, "expired": int},
    "batch_open": {"batch": int, "t": (int, float), "workers": int, "tasks": int},
    "batch_close": {"batch": int, "t": (int, float), "score": int},
    "worker_arrive": {"batch": int, "t": (int, float), "worker": int},
    "worker_depart": {"batch": int, "t": (int, float), "worker": int},
    "task_submit": {"batch": int, "t": (int, float), "task": int},
    "task_expire": {"t": (int, float), "task": int},
    "feas_build": {"mode": str, "workers": int, "tasks": int, "pairs": int},
    "feas_view": {"links": int, "feasible": int},
    "reject": {"worker": int, "task": int, "reason": str, "phase": str},
    "game_round": {"round": int, "changed": int, "evaluated": int, "skipped": int},
    "game_move": {"round": int, "worker": int, "to": int},
    "game_withdraw": {"worker": int, "task": int, "cause": str},
    "match_set": {"set": int, "size": int, "staffed": bool},
    "assign": {"batch": int, "t": (int, float), "worker": int, "task": int},
    "complete": {"batch": int, "t": (int, float), "worker": int, "task": int},
}

#: Modes a ``feas_build`` record may carry.
FEAS_MODES = ("full", "incremental")

#: Causes a ``game_withdraw`` record may carry.
WITHDRAW_CAUSES = ("contention", "dependency")


class EventJournal:
    """An append-only, sequence-numbered journal of typed allocation events.

    Args:
        enabled: when False, :meth:`emit` returns immediately and nothing is
            ever recorded — the journal is a pure no-op sink (the
            :data:`NULL_JOURNAL` discipline).  Hot paths guard event
            *construction* with ``if journal.enabled`` so the disabled mode
            also never builds a record dict.

    Records are plain dicts (``type``, ``seq``, optional ``batch``, plus
    per-type fields) in emission order; ``seq`` starts at 0 and increments
    by 1, so a JSONL round-trip preserves the total order.  A lock guards
    appends so parallel harness threads may share one journal.
    """

    __slots__ = ("enabled", "events", "_seq", "_batch", "_lock")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        self._batch: Optional[int] = None
        self._lock = threading.Lock()

    # -- producing events --------------------------------------------------------

    def emit(self, etype: str, **fields: Any) -> None:
        """Append one event (no-op when disabled).

        The current batch index (see :meth:`set_batch`) is attached as
        ``batch`` unless the caller supplied one explicitly.
        """
        if not self.enabled:
            return
        record: Dict[str, Any] = {"type": etype}
        if self._batch is not None and "batch" not in fields:
            record["batch"] = self._batch
        record.update(fields)
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            self.events.append(record)

    def set_batch(self, index: Optional[int]) -> None:
        """Set the batch index stamped onto subsequent events (None clears)."""
        if self.enabled:
            self._batch = index

    def clear(self) -> None:
        """Drop all recorded events and reset the sequence counter."""
        with self._lock:
            self.events.clear()
            self._seq = 0
            self._batch = None

    # -- reading -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.events)

    def of_type(self, etype: str) -> List[Dict[str, Any]]:
        """All events of one type, in emission order."""
        return [e for e in self.events if e["type"] == etype]

    def counts(self) -> Dict[str, int]:
        """Events per type, insertion-ordered by first emission."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event["type"]] = out.get(event["type"], 0) + 1
        return out

    def __repr__(self) -> str:
        return f"EventJournal(enabled={self.enabled}, events={len(self.events)})"


#: The shared always-disabled journal: instrumentation hooks default to it
#: so un-journaled hot paths pay only an attribute check.
NULL_JOURNAL = EventJournal(enabled=False)

_default_journal = NULL_JOURNAL


def get_journal() -> EventJournal:
    """The process-wide default journal (:data:`NULL_JOURNAL` unless set)."""
    return _default_journal


def set_journal(journal: Optional[EventJournal]) -> EventJournal:
    """Install the process-wide default journal (None restores the null one).

    Returns the previous default so callers can restore it — the same
    contract as :func:`repro.obs.trace.set_tracer`.
    """
    global _default_journal
    previous = _default_journal
    _default_journal = journal if journal is not None else NULL_JOURNAL
    return previous


# -- export / validation --------------------------------------------------------------


def events_records(journal: EventJournal) -> List[Dict[str, Any]]:
    """The journal's events as JSON-ready dicts (emission order)."""
    return list(journal.events)


def write_events_jsonl(journal: EventJournal, path: str) -> int:
    """Dump the journal to a JSONL file (schema header first).

    Returns the number of event records written (excluding the header).
    Records must be standard JSON: a non-finite float raises ``ValueError``
    instead of being written as ``Infinity`` / ``NaN``.
    """
    events = events_records(journal)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "header", "schema": EVENTS_SCHEMA}) + "\n")
        for record in events:
            handle.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    return len(events)


def validate_events_records(records: Sequence[Dict[str, Any]]) -> None:
    """Raise ``ValueError`` unless ``records`` is a valid v1 events dump.

    Checks the schema header, per-type required fields, reason / phase /
    mode / cause enumerations and the strictly-increasing ``seq`` order.
    Multiple runs may share one file (``run_open`` simply appears again);
    :func:`repro.explain.replay.split_runs` separates them.
    """
    if not records:
        raise ValueError("empty events file (expected at least a header line)")
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != EVENTS_SCHEMA:
        raise ValueError(f"bad events header: {header!r}")
    previous_seq = -1
    for record in records[1:]:
        etype = record.get("type")
        fields = EVENT_FIELDS.get(etype or "")
        if fields is None:
            raise ValueError(f"unexpected event type: {record!r}")
        seq = record.get("seq")
        if not isinstance(seq, int) or seq <= previous_seq:
            raise ValueError(
                f"event seq must be a strictly increasing int, got {record!r}"
            )
        previous_seq = seq
        for key, kinds in fields.items():
            value = record.get(key)
            if kinds is int:
                # bool is an int subclass; an int field must not be a bool.
                ok = isinstance(value, int) and not isinstance(value, bool)
            elif kinds is bool:
                ok = isinstance(value, bool)
            else:
                ok = isinstance(value, kinds)
            if not ok or key not in record:
                raise ValueError(f"{etype} event missing/invalid {key!r}: {record!r}")
        batch = record.get("batch")
        if batch is not None and not isinstance(batch, int):
            raise ValueError(f"event batch must be an int or absent: {record!r}")
        if etype == "reject":
            if record["reason"] not in REASONS:
                raise ValueError(f"unknown rejection reason: {record!r}")
            if record["phase"] not in REJECT_PHASES:
                raise ValueError(f"unknown rejection phase: {record!r}")
        elif etype == "feas_build" and record["mode"] not in FEAS_MODES:
            raise ValueError(f"unknown feasibility build mode: {record!r}")
        elif etype == "game_withdraw" and record["cause"] not in WITHDRAW_CAUSES:
            raise ValueError(f"unknown withdraw cause: {record!r}")
