"""Reason-coded queries over an allocation event journal.

:class:`ExplainIndex` ingests an events dump (see
:mod:`repro.obs.events`) and answers the questions operators actually ask:

* :meth:`~ExplainIndex.why_not` — why was worker *w* never matched with
  task *t*?  (skill / reach / deadline rejection, game withdrawal,
  assigned elsewhere, or pruned without a per-pair record.)
* :meth:`~ExplainIndex.why_assigned` — how did task *t* end up with its
  worker?  (the committing batch, the game moves that led there, the
  completion time.)
* :meth:`~ExplainIndex.funnel` — the per-batch narrowing from candidate
  pairs through each Definition 3 constraint down to committed matches.

Answers are plain dicts (JSON-ready) with a human-readable ``verdict``
plus the supporting event records, so the CLI can print them and tests can
assert on them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explain.replay import split_runs, strip_header
from repro.obs.events import REASONS

#: Rejection phases that represent a *fresh* feasibility decision on a pair
#: (the ``view`` phase re-checks stored links against a later deadline and
#: would double-count the pair).
_FRESH_PHASES = ("build",)


class ExplainIndex:
    """Queryable index over one run's events.

    Args:
        records: an events dump (schema header optional).  When the dump
            holds several runs, ``run`` picks one (0-based, file order).
    """

    def __init__(self, records: Sequence[Dict[str, Any]], run: int = 0) -> None:
        runs = split_runs(records)
        if not runs:
            events = strip_header(records)
            if events:
                # A single-batch solve journals its one-shot build with no
                # run frame around it.
                raise ValueError(
                    f"no run_open event found: the file's {len(events)} events "
                    "come from a standalone single-batch solve, which is not a "
                    "platform run; rerun the solve with --batch-interval to "
                    "explain it"
                )
            raise ValueError("no run_open event found: nothing to explain")
        if not (0 <= run < len(runs)):
            raise ValueError(f"run index {run} out of range (file holds {len(runs)})")
        self.events: List[Dict[str, Any]] = runs[run]
        self.run_open = self.events[0]

        self._rejects: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
        self._withdraws: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
        self._assign_by_task: Dict[int, Dict[str, Any]] = {}
        self._assigns_by_worker: Dict[int, List[Dict[str, Any]]] = {}
        self._complete_by_task: Dict[int, Dict[str, Any]] = {}
        self._expire_by_task: Dict[int, Dict[str, Any]] = {}
        self._moves_by_worker: Dict[int, List[Dict[str, Any]]] = {}
        self._batches: List[int] = []
        for event in self.events:
            etype = event["type"]
            if etype == "reject":
                key = (event["worker"], event["task"])
                self._rejects.setdefault(key, []).append(event)
            elif etype == "game_withdraw":
                key = (event["worker"], event["task"])
                self._withdraws.setdefault(key, []).append(event)
            elif etype == "assign":
                self._assign_by_task[event["task"]] = event
                self._assigns_by_worker.setdefault(event["worker"], []).append(event)
            elif etype == "complete":
                self._complete_by_task[event["task"]] = event
            elif etype == "task_expire":
                self._expire_by_task[event["task"]] = event
            elif etype == "game_move":
                self._moves_by_worker.setdefault(event["worker"], []).append(event)
            elif etype == "batch_open":
                self._batches.append(event["batch"])

    # -- queries -----------------------------------------------------------------

    def batches(self) -> List[int]:
        """Batch indices seen in this run, in order."""
        return list(self._batches)

    def why_not(self, worker: int, task: int) -> Dict[str, Any]:
        """Why worker ``worker`` did not end up conducting task ``task``.

        Returns a dict with a ``verdict`` sentence, a ``reasons`` histogram
        over :data:`~repro.obs.events.REASONS` (fresh rejection phases
        only), and the supporting ``events``.
        """
        key = (worker, task)
        assign = self._assign_by_task.get(task)
        if assign is not None and assign["worker"] == worker:
            return {
                "verdict": f"worker {worker} WAS assigned task {task} "
                f"in batch {assign.get('batch')}",
                "reasons": {},
                "events": [assign],
            }

        rejects = self._rejects.get(key, [])
        withdraws = self._withdraws.get(key, [])
        reasons: Dict[str, int] = {}
        for event in rejects:
            if event["phase"] in _FRESH_PHASES:
                reasons[event["reason"]] = reasons.get(event["reason"], 0) + 1
        events: List[Dict[str, Any]] = sorted(
            rejects + withdraws, key=lambda e: e["seq"]
        )

        clauses: List[str] = []
        if reasons:
            ordered = [r for r in REASONS if r in reasons]
            clauses.append(
                "rejected "
                + ", ".join(f"{reasons[r]}x for {r}" for r in ordered)
            )
        for event in withdraws:
            clauses.append(f"withdrew in the game ({event['cause']})")
        if assign is not None:
            clauses.append(
                f"task went to worker {assign['worker']} "
                f"in batch {assign.get('batch')}"
            )
            events.append(assign)
        elif task in self._expire_by_task:
            expire = self._expire_by_task[task]
            clauses.append(f"task expired unassigned at t={expire['t']}")
            events.append(expire)
        worker_assigns = self._assigns_by_worker.get(worker, [])
        if worker_assigns and (assign is None or assign["worker"] != worker):
            took = ", ".join(
                f"task {e['task']} (batch {e.get('batch')})" for e in worker_assigns
            )
            clauses.append(f"worker was assigned {took}")
            events.extend(worker_assigns)
        if not clauses:
            clauses.append(
                "no per-pair record: the pair was never co-present in a "
                "batch, or was discarded without an exact check"
            )
        return {
            "verdict": f"worker {worker} / task {task}: " + "; ".join(clauses),
            "reasons": reasons,
            "events": events,
        }

    def why_assigned(self, task: int) -> Dict[str, Any]:
        """How task ``task`` got its worker (or why it has none)."""
        assign = self._assign_by_task.get(task)
        if assign is None:
            if task in self._expire_by_task:
                expire = self._expire_by_task[task]
                return {
                    "verdict": f"task {task} was never assigned; it expired "
                    f"at t={expire['t']}",
                    "events": [expire],
                }
            return {
                "verdict": f"task {task} does not appear in this run's "
                "assignment or expiry events",
                "events": [],
            }
        worker = assign["worker"]
        events = [assign]
        moves = [
            e
            for e in self._moves_by_worker.get(worker, [])
            if e.get("batch") == assign.get("batch") and e["to"] == task
        ]
        events = sorted(moves, key=lambda e: e["seq"]) + events
        complete = self._complete_by_task.get(task)
        clause = (
            f"task {task} was assigned to worker {worker} in batch "
            f"{assign.get('batch')} at t={assign['t']}"
        )
        if moves:
            clause += f" after {len(moves)} best-response move(s) onto it"
        if complete is not None:
            clause += f"; completed at t={complete['t']}"
            events.append(complete)
        return {"verdict": clause, "events": events}

    def funnel(self, batch: Optional[int] = None) -> Dict[str, Any]:
        """The pair-narrowing funnel for one batch (or the whole run).

        Stages:

        * ``pairs`` — candidate pairs given a fresh feasibility decision
          (``feas_build`` records' ``pairs`` totals, skill rejects
          included).
        * one count per :data:`~repro.obs.events.REASONS` — fresh
          rejections (phase ``build`` plus the
          allocator's ``dependency`` drops; the ``view`` phase re-checks
          stored links and is reported separately as ``stale_deadline``).
        * ``feasible`` — links offered to the allocator (last ``feas_view``
          of the batch).
        * ``matched`` — pairs committed (``assign`` events).

        For a batch with a full (non-incremental) build the identity
        ``pairs == skill + reach + deadline + stored links`` holds exactly;
        incremental batches recompute only dirty rows, so ``pairs`` covers
        just the fresh decisions — which is precisely what the engine did.
        """
        def in_scope(event: Dict[str, Any]) -> bool:
            return batch is None or event.get("batch") == batch

        out: Dict[str, Any] = {
            "batch": batch,
            "pairs": 0,
            "feasible": None,
            "matched": 0,
            "stale_deadline": 0,
        }
        for reason in REASONS:
            out[reason] = 0
        for event in self.events:
            if not in_scope(event):
                continue
            etype = event["type"]
            if etype == "feas_build":
                out["pairs"] += event["pairs"]
            elif etype == "feas_view":
                out["feasible"] = event["feasible"]
            elif etype == "reject":
                if event["phase"] in _FRESH_PHASES or event["phase"] == "alloc":
                    out[event["reason"]] += 1
                else:  # view-phase deadline re-check of a stored link
                    out["stale_deadline"] += 1
            elif etype == "assign":
                out["matched"] += 1
        return out

    def summary(self) -> Dict[str, Any]:
        """Run-level overview: populations, event counts, reason histogram."""
        counts: Dict[str, int] = {}
        reasons: Dict[str, int] = {}
        for event in self.events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
            if event["type"] == "reject":
                reasons[event["reason"]] = reasons.get(event["reason"], 0) + 1
        close = self.events[-1] if self.events[-1]["type"] == "run_close" else None
        return {
            "allocator": self.run_open["allocator"],
            "workers": self.run_open["workers"],
            "tasks": self.run_open["tasks"],
            "batches": self._batches,
            "events": counts,
            "reject_reasons": reasons,
            "close": close,
        }
