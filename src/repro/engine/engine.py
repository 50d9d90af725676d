"""The shared per-batch allocation engine.

One :class:`AllocationEngine` lives for a whole platform run.  It owns the
feasible-pair graph, the skill buckets that index it and the
instrumentation counters, and hands each batch a
:class:`~repro.engine.context.BatchContext`
whose feasibility oracle is a cheap *view* over the persistent graph rather
than a from-scratch rebuild.

Why this is sound
-----------------
With a fixed worker record, pair feasibility is monotone non-increasing in
time: the departure ``max(s_w, s_t, now)`` only moves later as ``now``
advances.  The engine therefore stores links checked at the batch timestamp
they were (re)computed — a superset of the feasible pairs at any *later*
``now`` — along with each link's exact distance.  Each batch view
re-applies only the cheap time-dependent deadline predicate (pure
arithmetic on the stored distance), yielding exactly the pair set a
full build at that ``now`` would compute.  Batch
timestamps must be non-decreasing for the supersets to hold, which the
platform's clock guarantees; a backwards jump triggers a full rebuild.

Between batches the graph updates incrementally: assigned and expired tasks
are unlinked, departed workers dropped (a busy worker always returns as a
*relocated* record, so a row can never silently go stale), newly-appearing
tasks linked against the current workers, and only new or changed workers
get their candidate row recomputed against the task buckets of their
skills instead of a full ``|W| x |T|`` rebuild.  :meth:`AllocationEngine.begin_batch`
then builds the batch's view, so the allocator that reads it does no
feasibility work of its own.

The link loop
-------------
Every link check — arrivals, bucketed row recomputes and the full build's
rows, the road network's included — runs through one method,
:meth:`AllocationEngine._link`.  It iterates ``(worker, tasks)`` rows with
the worker's fields read once per row, calls the plain ``euclidean`` /
``manhattan`` function of a planar metric directly, and makes
:func:`~repro.core.constraints.deadline_ok`'s comparisons inline in that
function's order over the same floats (a deadline is ``start + wait``, the
float the ``deadline`` properties return).  Per-pair calls, not pairs,
were the sync's cost.  The loop is the library's only builder of feasible
pairs: a standalone :class:`~repro.engine.context.BatchContext`
(the legacy five-argument ``allocate``, a single-batch solve) builds a
one-shot engine and reads its view.

Skill buckets
-------------
A worker can serve a task only if ``rs_t in WS_w`` (Section II-A), and on
realistic inputs most pairs fail that test.  The engine therefore keeps the
active tasks bucketed by required skill and the workers by skill, each
bucket in registration order.  Every build and sync visits only the
bucket pairs; the skill rejects it skips are still counted in
``pairs_checked`` (by arithmetic) and, with the journal on, emitted by a
separate walk in the unbucketed pair order (:meth:`_journal_build`), so
decisions never depend on whether the journal records them.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.constraints import FeasibleRows
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext
from repro.engine.counters import EngineCounters
from repro.obs.events import EventJournal, get_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.spatial.distance import plain_function

#: A link loop's reason per skill-passing ``(worker id, task id)`` pair:
#: None when linked, else ``"reach"`` or ``"deadline"``.
Verdicts = Dict[Tuple[int, int], Optional[str]]


class AllocationEngine:
    """Incremental feasibility over skill buckets for a platform run.

    Args:
        instance: the problem being simulated; supplies the metric.
        tracer: spans are recorded around graph builds and updates
            (``engine.full_build`` / ``engine.incremental_update``).
            Defaults to the shared no-op tracer.
        registry: metrics registry receiving the engine's counters.  A
            private registry is created by default so per-run
            ``engine_stats`` can never merge across engines.
        journal: event journal receiving reason-coded rejections and one
            ``feas_build`` summary per build or update.  None follows the
            process default (:func:`repro.obs.events.get_journal`).

    Full builds and incremental syncs run the same link loop
    (:meth:`_link`) over the skill buckets, which visits only
    skill-matching pairs (DESIGN §25, §26).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        *,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.instance = instance
        self.metric = instance.metric
        # The link loop calls euclidean / manhattan directly.
        self._distance = plain_function(instance.metric)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = EngineCounters(self.registry)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Reason-coded rejections and feas_build summaries flow here; the
        # shared NULL_JOURNAL default keeps the disabled path to one branch.
        self.journal = journal if journal is not None else get_journal()
        self._workers: Dict[int, Worker] = {}
        self._tasks: Dict[int, Task] = {}
        # Required skill -> {task id: task} and skill -> {worker id: worker},
        # in registration order; empty buckets are dropped.
        self._tasks_by_skill: Dict[int, Dict[int, Task]] = {}
        self._workers_by_skill: Dict[int, Dict[int, Worker]] = {}
        # Each link stores (task start, task deadline, exact travel time) as
        # computed by the link loop (:meth:`_link`), so per-batch deadline
        # filtering is three float comparisons — no metric or attribute
        # traffic.
        self._tasks_of: Dict[int, Dict[int, Tuple[float, float, float]]] = {}
        self._workers_of: Dict[int, Set[int]] = {}
        self._built = False
        self._now = -math.inf

    # -- public API --------------------------------------------------------------

    def begin_batch(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        previously_assigned: AbstractSet[int] = frozenset(),
    ) -> BatchContext:
        """Bring the graph up to date for this batch and wrap it in a context.

        The engine self-heals by diffing against the populations it is
        given, so callers need no separate "end batch" notification:
        whatever left the pool since the previous call is unlinked here.
        """
        workers = list(workers)
        tasks = list(tasks)
        snapshot = self.counters.as_dict()
        if self._built and now < self._now:
            # Time went backwards: stored rows are no longer supersets.
            self._reset()
        if not self._built:
            with self.tracer.span("engine.full_build") as span:
                self._full_build(workers, tasks, now)
            self.counters.full_builds += 1
            self._built = True
            mode = "full"
        else:
            with self.tracer.span("engine.incremental_update") as span:
                self._incremental_update(workers, tasks, now)
            self.counters.incremental_updates += 1
            mode = "incremental"
        self._now = now
        if self.tracer.enabled or self.journal.enabled:
            # Pairs decided by this build/update, skill rejects included.
            pairs = int(
                self.counters.pairs_checked - snapshot["engine_pairs_checked"]
            )
        if self.tracer.enabled:
            span.set("workers", len(workers))
            span.set("tasks", len(tasks))
            span.set("pairs", pairs)
        if self.journal.enabled:
            self.journal.emit(
                "feas_build",
                mode=mode,
                workers=len(workers),
                tasks=len(tasks),
                pairs=pairs,
            )
        # Built here, not on the allocator's first read, so the allocator's
        # timed region holds allocation work only.
        with self.tracer.span("engine.view"):
            view = BatchFeasibilityView(self, workers, tasks, now)
        return BatchContext(
            workers,
            tasks,
            self.instance,
            now,
            previously_assigned,
            counters=self.counters,
            checker=view,
            stats_snapshot=snapshot,
            tracer=self.tracer,
            journal=self.journal,
        )

    def stats(self) -> Dict[str, float]:
        """Cumulative counters."""
        return self.counters.as_dict()

    def aux_stats(self) -> Dict[str, float]:
        """The auxiliary telemetry, kept out of :meth:`stats`."""
        return self.counters.aux_dict()

    @property
    def columnar_active(self) -> bool:
        # Always False: the kernels are gone; perfbench's path stamp reads it.
        return False

    @property
    def store_active(self) -> bool:
        # Always False: the column store is gone; perfbench's path stamp reads it.
        return False

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    # -- build / update ----------------------------------------------------------

    def _reset(self) -> None:
        self._workers.clear()
        self._tasks.clear()
        self._tasks_by_skill.clear()
        self._workers_by_skill.clear()
        self._tasks_of.clear()
        self._workers_of.clear()
        self._built = False

    def _full_build(
        self, workers: Sequence[Worker], tasks: Sequence[Task], now: float
    ) -> None:
        for task in tasks:
            self._register_task(task)
        self._recompute_rows(workers, now)

    def _incremental_update(
        self, workers: Sequence[Worker], tasks: Sequence[Task], now: float
    ) -> None:
        batch_tids = {t.id for t in tasks}
        batch_wids = {w.id for w in workers}
        removed = [t for t in self._tasks if t not in batch_tids]
        for tid in removed:
            self._remove_task(tid)
        self.counters.tasks_removed += len(removed)
        # A worker absent from the batch is busy or gone; it can only return
        # as a *different* record (relocated / refreshed window), which
        # forces a row recompute — so dropping its row now is safe.
        for wid in [w for w in self._workers if w not in batch_wids]:
            self._remove_worker(wid)
        # The identity test skips the dataclass ``!=`` (two field tuples) for
        # the common case: a worker handed over as the very record stored.
        stored = self._workers
        changed = [
            w for w in workers
            if (old := stored.get(w.id)) is not w and old != w
        ]
        changed_ids = {w.id for w in changed}
        added_tasks = [task for task in tasks if task.id not in self._tasks]
        if added_tasks:
            # Workers about to be re-probed (changed_ids) pick the new tasks
            # up during their own row recompute.
            kept = len(stored) - sum(1 for wid in changed_ids if wid in stored)
            for task in added_tasks:
                self._add_task(task, changed_ids, kept, now)
        self.counters.tasks_added += len(added_tasks)
        if changed:
            self._recompute_rows(changed, now)

    def _register_task(self, task: Task) -> None:
        self._tasks[task.id] = task
        self._workers_of[task.id] = set()
        by_skill = self._tasks_by_skill
        if task.skill in by_skill:
            by_skill[task.skill][task.id] = task
        else:
            by_skill[task.skill] = {task.id: task}

    def _add_task(
        self, task: Task, skip_workers: AbstractSet[int], checked: int, now: float
    ) -> None:
        """Link an arriving task against the workers of its skill bucket.

        ``checked`` is the number of engine workers not in ``skip_workers``:
        every one of them counts as a checked pair, skill rejects included.
        """
        self._register_task(task)
        bucket = self._workers_by_skill.get(task.skill, {})
        workers: Iterable[Worker] = (
            [w for wid, w in bucket.items() if wid not in skip_workers]
            if skip_workers
            else bucket.values()
        )
        verdicts: Optional[Verdicts] = {} if self.journal.enabled else None
        self._link(zip(workers, repeat((task,))), now, verdicts)
        if verdicts is not None:
            self._journal_build(
                ((w, task) for w in self._workers.values() if w.id not in skip_workers),
                verdicts,
            )
        self.counters.pairs_checked += checked

    def _remove_task(self, task_id: int) -> None:
        task = self._tasks.pop(task_id)
        bucket = self._tasks_by_skill[task.skill]
        del bucket[task_id]
        if not bucket:
            del self._tasks_by_skill[task.skill]
        for worker_id in self._workers_of.pop(task_id):
            del self._tasks_of[worker_id][task_id]

    def _remove_worker(self, worker_id: int) -> None:
        worker = self._workers.pop(worker_id)
        by_skill = self._workers_by_skill
        for skill in worker.skills:
            bucket = by_skill[skill]
            del bucket[worker_id]
            if not bucket:
                del by_skill[skill]
        for task_id in self._tasks_of.pop(worker_id):
            self._workers_of[task_id].discard(worker_id)

    def _recompute_rows(self, workers: Sequence[Worker], now: float) -> None:
        """(Re)install ``workers`` and link each against every current task.

        One link loop runs over all rows, each installed as the loop reaches
        it.  Only the task buckets of a worker's skills are visited; each
        row's full width counts as checked.  With the journal on, every
        reject is then emitted row by row in ``self._tasks`` order, as an
        unbucketed walk would (the loop itself emits nothing).
        """
        verdicts: Optional[Verdicts] = {} if self.journal.enabled else None
        self._link(self._install_rows(workers), now, verdicts)
        self.counters.worker_rows_recomputed += len(workers)
        self.counters.pairs_checked += len(workers) * len(self._tasks)
        if verdicts is not None:
            tasks = self._tasks.values()
            self._journal_build(
                ((worker, task) for worker in workers for task in tasks), verdicts
            )

    def _install_rows(
        self, workers: Iterable[Worker]
    ) -> Iterable[Tuple[Worker, Iterable[Task]]]:
        """Install each worker's empty row; yield it with its skill buckets."""
        stored = self._workers
        by_skill = self._workers_by_skill
        tasks_by_skill = self._tasks_by_skill
        for worker in workers:
            wid = worker.id
            if wid in stored:
                self._remove_worker(wid)
            stored[wid] = worker
            for skill in worker.skills:
                if skill in by_skill:
                    by_skill[skill][wid] = worker
                else:
                    by_skill[skill] = {wid: worker}
            self._tasks_of[wid] = {}
            yield worker, chain.from_iterable(
                tasks_by_skill[s].values() for s in worker.skills if s in tasks_by_skill
            )

    def _link(
        self,
        rows: Iterable[Tuple[Worker, Iterable[Task]]],
        now: float,
        verdicts: Optional[Verdicts] = None,
    ) -> None:
        """Link every skill-passing ``(worker, tasks)`` pair that passes
        Definition 3's range and deadline tests at ``now``.

        The library's one body of the link predicate, shared by arrivals
        and row recomputes (full builds included).  A superset test
        at the batch timestamp: feasibility only shrinks as time advances,
        so later batch views' deadline filter never misses a pair.  It makes
        :func:`~repro.core.constraints.deadline_ok`'s comparisons in its
        order over the same floats (a deadline is ``start + wait``, the
        float the ``deadline`` properties return), and a link stores the
        travel time that function divides out, so the views' filter is
        bit-identical.  Each worker's fields are read once per row.

        With ``verdicts`` given, each pair's reason (None when linked,
        ``"reach"`` or ``"deadline"``) is recorded under ``(worker id, task
        id)`` for :meth:`_journal_build`.  Callers count ``pairs_checked``
        in bulk — a per-pair counter increment here would dominate the test
        itself.
        """
        distance = self._distance
        tasks_of = self._tasks_of
        workers_of = self._workers_of
        for worker, tasks in rows:
            wid = worker.id
            w_loc = worker.location
            w_start = worker.start
            w_deadline = w_start + worker.wait
            reach = worker.max_distance
            velocity = worker.velocity
            base = now if now > w_start else w_start
            row = tasks_of[wid]
            for task in tasks:
                dist = distance(w_loc, task.location)
                if dist > reach:
                    reason: Optional[str] = "reach"
                else:
                    reason = "deadline"
                    t_start = task.start
                    t_deadline = t_start + task.wait
                    if t_start <= w_deadline and w_start <= t_deadline:
                        depart = t_start if t_start > base else base
                        if depart <= t_deadline and depart <= w_deadline:
                            if dist == 0.0:
                                travel = 0.0
                                reason = None
                            elif velocity > 0.0:
                                travel = dist / velocity
                                if depart + travel <= t_deadline:
                                    reason = None
                    if reason is None:
                        tid = task.id
                        row[tid] = (t_start, t_deadline, travel)
                        workers_of[tid].add(wid)
                        if verdicts is not None:
                            verdicts[wid, tid] = None
                        continue
                if verdicts is not None:
                    verdicts[wid, task.id] = reason

    def _journal_build(
        self,
        pairs: Iterable[Tuple[Worker, Task]],
        verdicts: Verdicts,
    ) -> None:
        """Emit the build rejects of ``pairs`` in their order.

        The journal side channel of the link loop: a pair failing the
        skill test gets a ``skill`` reject, a skill-passing pair the reason
        :meth:`_link` recorded in ``verdicts``, a linked pair nothing.
        """
        for worker, task in pairs:
            if task.skill not in worker.skills:
                reason: Optional[str] = "skill"
            else:
                reason = verdicts[(worker.id, task.id)]
                if reason is None:
                    continue
            self._reject(worker, task, reason)

    def _reject(self, worker: Worker, task: Task, reason: str) -> None:
        self.journal.emit(
            "reject", worker=worker.id, task=task.id, reason=reason, phase="build"
        )

    def __repr__(self) -> str:
        return (
            f"AllocationEngine(workers={len(self._workers)}, "
            f"tasks={len(self._tasks)}, built={self._built})"
        )


class BatchFeasibilityView(FeasibleRows):
    """A batch's feasible-pair oracle, read off the engine's graph.

    :meth:`AllocationEngine.begin_batch` builds one per batch, under its
    own ``engine.view`` span.  Construction filters each batch worker's
    stored links with the time-dependent deadline predicate at the batch
    timestamp (each link's travel time was stored when the link was made,
    so no metric evaluation happens here) and canonically sorts both row
    directions — the result is the exact pair set, in the exact order, a
    full build at the batch timestamp would produce.
    Workers without stored links get no row at all; the oracle API answers
    for them exactly as for an empty row.
    """

    def __init__(
        self,
        engine: AllocationEngine,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
    ) -> None:
        self.workers = list(workers)
        self.tasks = list(tasks)
        self.metric = engine.metric
        self.now = now
        journal = engine.journal
        stored = engine._tasks_of
        tasks_of: Dict[int, List[int]] = {}
        workers_of: Dict[int, List[int]] = {t.id: [] for t in self.tasks}
        checked = 0
        for worker in self.workers:
            links = stored.get(worker.id)
            if not links:
                continue
            row: List[int] = []
            checked += len(links)
            w_start = worker.start
            w_deadline = w_start + worker.wait
            base = now if now > w_start else w_start
            # Inlined ``deadline_ok``: a stored link already passed the
            # time-independent window/velocity tests, so only the departure
            # checks remain — same comparisons, same floats.
            for tid in sorted(links):
                t_start, t_deadline, travel = links[tid]
                depart = t_start if t_start > base else base
                if depart <= w_deadline and depart + travel <= t_deadline:
                    row.append(tid)
                    workers_of[tid].append(worker.id)
                elif journal.enabled:
                    # A stored link only ever *ages out* of the deadline
                    # test — the other constraints were settled at link time.
                    journal.emit(
                        "reject", worker=worker.id, task=tid,
                        reason="deadline", phase="view",
                    )
            tasks_of[worker.id] = row
        for column in workers_of.values():
            if len(column) > 1:
                column.sort()
        engine.counters.time_filtered += checked
        self._tasks_of = tasks_of
        self._workers_of = workers_of
        if journal.enabled:
            journal.emit("feas_view", links=checked, feasible=self.pair_count())
