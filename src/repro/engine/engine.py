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
arithmetic on the stored distance), yielding exactly the pair set a fresh
:class:`~repro.core.constraints.FeasibilityChecker` would compute.  Batch
timestamps must be non-decreasing for the supersets to hold, which the
platform's clock guarantees; a backwards jump triggers a full rebuild.

Between batches the graph updates incrementally: assigned and expired tasks
are unlinked, departed workers dropped (a busy worker always returns as a
*relocated* record, so a row can never silently go stale), newly-appearing
tasks linked against the current workers, and only new or changed workers
get their candidate row recomputed — a grid-index probe plus exact checks
instead of a full ``|W| x |T|`` rebuild.  :meth:`AllocationEngine.begin_batch`
then builds the batch's view, so the allocator that reads it does no
feasibility work of its own.

The link loop
-------------
Every scalar link check — arrivals, bucketed row recomputes, grid-index
rows and the road-network full build's rows — runs through one method,
:meth:`AllocationEngine._link`.  It iterates ``(worker, tasks)`` rows with
the worker's fields read once per row, calls the plain ``euclidean`` /
``manhattan`` function of a planar metric directly, and makes
:func:`~repro.core.constraints.deadline_ok`'s comparisons inline in that
function's order over the same floats (a deadline is ``start + wait``, the
float the ``deadline`` properties return).  Per-pair calls, not pairs,
were the sync's cost; the loop is the predicate's only body in the engine.

Skill buckets
-------------
A worker can serve a task only if ``rs_t in WS_w`` (Section II-A), and on
realistic inputs most pairs fail that test.  The engine therefore keeps the
active tasks bucketed by required skill and the workers by skill, each
bucket in registration order.  A scalar sync without a grid index visits
only the bucket pairs; the skill rejects it skips are still counted in
``pairs_checked`` (by arithmetic) and, with the journal on, emitted by a
separate walk in the unbucketed pair order (:meth:`_journal_build`), so
decisions never depend on whether the journal records them.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, islice, repeat
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.columnar import (
    REASON_NAMES,
    ColumnarBatch,
    columnar_code_for,
    dense_pair_columns,
    rejection_reasons,
    skill_candidates,
    skill_candidates_dense,
    true_positions,
)
from repro.core.constraints import (
    FeasibleRows,
    index_cell_size,
    prune_rejection_reason,
    reach_radius,
)
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext
from repro.engine.counters import EngineCounters
from repro.obs.events import EventJournal, get_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.spatial.distance import Point, plain_function
from repro.spatial.index import GridIndex

#: A link loop's reason per skill-passing ``(worker id, task id)`` pair:
#: None when linked, else ``"reach"`` or ``"deadline"``.
Verdicts = Dict[Tuple[int, int], Optional[str]]


class AllocationEngine:
    """Incremental feasibility over skill buckets for a platform run.

    Args:
        instance: the problem being simulated; supplies the metric.
        use_index: probe a task grid index when the metric declares
            ``euclidean_lower_bound``; otherwise rows are computed from the
            skill buckets, which is always correct.
        tracer: spans are recorded around graph builds and updates
            (``engine.full_build`` / ``engine.incremental_update``).
            Defaults to the shared no-op tracer.
        registry: metrics registry receiving the engine's counters.  A
            private registry is created by default so per-run
            ``engine_stats`` can never merge across engines.
        journal: event journal receiving reason-coded rejections and one
            ``feas_build`` summary per build or update.  None follows the
            process default (:func:`repro.obs.events.get_journal`).

    Full builds run through the skill-first columnar kernels whenever
    :func:`repro.columnar.columnar_code_for` selects them for the
    instance's metric: numpy importable and a planar metric, the rule a
    standalone checker applies too.  Incremental syncs always run the
    scalar link loop (:meth:`_link`) over the skill buckets, which visits
    only skill-matching pairs and so beats packing every worker into
    columns per sync (DESIGN §23, §25).  The
    graph and the reported ``engine_stats`` are the scalar path's bit for
    bit, and so is the journal's event stream bar the ``columnar`` flag on
    ``feas_build`` events — the kernels share the scalar oracle's
    exactness contract.  Only the auxiliary
    :meth:`~repro.engine.counters.EngineCounters.aux_dict` telemetry tells
    the paths apart.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        use_index: bool = True,
        *,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.instance = instance
        self.metric = instance.metric
        self._columnar_code = columnar_code_for(instance.metric)
        # The scalar link loop calls euclidean / manhattan directly.
        self._distance = plain_function(instance.metric)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = EngineCounters(self.registry)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Reason-coded rejections and feas_build summaries flow here; the
        # shared NULL_JOURNAL default keeps the disabled path to one branch.
        self.journal = journal if journal is not None else get_journal()
        self.use_index = use_index
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
        self._index: Optional[GridIndex[int]] = None
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
            after = self.counters.as_dict()
            # Pairs decided by this build/update: exact checks plus
            # index-pruned pairs (each of which also got a prune reject).
            pairs = int(
                after["engine_pairs_checked"]
                - snapshot["engine_pairs_checked"]
                + after["engine_pruned_by_index"]
                - snapshot["engine_pruned_by_index"]
            )
            columnar = self.ran_columnar(mode)
        if self.tracer.enabled:
            span.set("workers", len(workers))
            span.set("tasks", len(tasks))
            span.set("columnar", columnar)
            span.set("pairs", pairs)
        if self.journal.enabled:
            self.journal.emit(
                "feas_build",
                mode=mode,
                workers=len(workers),
                tasks=len(tasks),
                pairs=pairs,
                columnar=columnar,
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
        """The mode-dependent auxiliary telemetry (columnar counters)."""
        return self.counters.aux_dict()

    @property
    def columnar_active(self) -> bool:
        """Whether full builds route through the columnar kernels."""
        return self._columnar_code is not None

    def ran_columnar(self, mode: str) -> bool:
        """Whether a build of ``mode`` (``full`` / ``incremental``) used the kernels."""
        return mode == "full" and self._columnar_code is not None

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
        self._index = None
        self._built = False

    def _full_build(
        self, workers: Sequence[Worker], tasks: Sequence[Task], now: float
    ) -> None:
        for task in tasks:
            self._register_task(task)
        self._index = self._make_index(workers, tasks, now)
        latest = self._latest_deadline()
        if self._columnar_code is not None:
            self._columnar_build(workers, latest, now)
            self.counters.columnar_full_builds += 1
            return
        if not getattr(self.metric, "supports_distance_table", False):
            for worker in workers:
                self._recompute_row(worker, latest, now)
            return
        # Table-capable metric (the road network): gather every candidate
        # row first (index probes and pruning counters run exactly as in
        # the serial path), answer the skill-passing pair distances with one
        # many-to-many table call, then link the rows in serial order
        # against the table — same graph, same journal stream.
        rows: List[Tuple[Worker, List[int]]] = []
        for worker in workers:
            self._install_row(worker)
            candidates = self._candidates_for(worker, latest, now)
            self._journal_pruned(worker, candidates)
            rows.append((worker, candidates))
        table = self._distance_table(rows)

        def distance(a: Point, b: Point) -> float:
            return table[(a, b)]

        for worker, candidates in rows:
            self.counters.scalar_pair_evals += len(candidates)
            self._link_row(
                worker, map(self._tasks.__getitem__, candidates), now, distance
            )

    def _distance_table(
        self, rows: Sequence[Tuple[Worker, List[int]]]
    ) -> Dict[Tuple[Point, Point], float]:
        """The build's unique skill-passing pair distances, one table call.

        The table kernel shares one search per distinct endpoint across the
        whole build — strictly less work than per-pair queries — and its
        values equal the per-pair metric's.
        """
        pairs = list(dict.fromkeys(
            (worker.location, task.location)
            for worker, candidates in rows
            for task in map(self._tasks.__getitem__, candidates)
            if task.skill in worker.skills
        ))
        if not pairs:
            return {}
        with self.tracer.span("engine.distance_table") as span:
            table = self.metric.distance_table(pairs=pairs)
            if self.tracer.enabled:
                span.set("pairs", len(pairs))
        return table

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
        if not changed:
            return
        # Only index probes read the latest deadline; 0.0 stands in unread.
        latest = self._latest_deadline() if self._index is not None else 0.0
        for worker in changed:
            self._recompute_row(worker, latest, now)

    def _register_task(self, task: Task) -> None:
        self._tasks[task.id] = task
        self._workers_of[task.id] = set()
        by_skill = self._tasks_by_skill
        if task.skill in by_skill:
            by_skill[task.skill][task.id] = task
        else:
            by_skill[task.skill] = {task.id: task}
        if self._index is not None:
            self._index.insert(task.id, task.location)

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
        self.counters.scalar_pair_evals += checked

    def _remove_task(self, task_id: int) -> None:
        task = self._tasks.pop(task_id)
        bucket = self._tasks_by_skill[task.skill]
        del bucket[task_id]
        if not bucket:
            del self._tasks_by_skill[task.skill]
        if self._index is not None and task_id in self._index:
            self._index.remove(task_id)
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

    def _install_row(self, worker: Worker) -> None:
        wid = worker.id
        if wid in self._workers:
            self._remove_worker(wid)
        self._workers[wid] = worker
        by_skill = self._workers_by_skill
        for skill in worker.skills:
            if skill in by_skill:
                by_skill[skill][wid] = worker
            else:
                by_skill[skill] = {wid: worker}
        self._tasks_of[wid] = {}
        self.counters.worker_rows_recomputed += 1

    def _candidates_for(
        self, worker: Worker, latest_deadline: float, now: float
    ) -> List[int]:
        if self._index is not None:
            span = reach_radius(worker, latest_deadline, now)
            candidates = list(self._index.query_radius(worker.location, span))
            self.counters.pruned_by_index += len(self._tasks) - len(candidates)
        else:
            candidates = list(self._tasks)
        self.counters.pairs_checked += len(candidates)
        return candidates

    def _journal_pruned(self, worker: Worker, candidates: List[int]) -> None:
        # An index-pruned pair provably fails reach or the arrival deadline:
        # its Euclidean lower bound exceeded min(d_w, v_w * Δt), and the
        # true metric distance is at least that bound (see
        # prune_rejection_reason for the case split).
        journal = self.journal
        if not journal.enabled or len(candidates) == len(self._tasks):
            return
        candidate_ids = set(candidates)
        wx, wy = worker.location
        for task in self._tasks.values():
            if task.id in candidate_ids:
                continue
            lb = math.hypot(wx - task.location[0], wy - task.location[1])
            journal.emit(
                "reject",
                worker=worker.id,
                task=task.id,
                reason=prune_rejection_reason(worker, lb),
                phase="prune",
            )

    def _recompute_row(
        self, worker: Worker, latest_deadline: float, now: float
    ) -> None:
        self._install_row(worker)
        if self._index is None:
            checked = len(self._tasks)
            self.counters.pairs_checked += checked
            self.counters.scalar_pair_evals += checked
            self._link_skilled(worker, now)
            return
        candidates = self._candidates_for(worker, latest_deadline, now)
        self._journal_pruned(worker, candidates)
        self.counters.scalar_pair_evals += len(candidates)
        self._link_row(worker, map(self._tasks.__getitem__, candidates), now)

    def _columnar_build(
        self, workers: Sequence[Worker], latest_deadline: float, now: float
    ) -> None:
        """Build the rows of ``workers`` as one skill-first kernel tile.

        Candidates are gathered as in :meth:`_recompute_row` — the same
        index probes and pruning counters when a grid index exists, every
        task otherwise — so the graph and ``engine_stats`` are bit-identical
        to the scalar loop; only the auxiliary columnar counters record
        which path ran.  The tile is those candidate pairs in row order, or
        without an index the dense worker-major cross product: either way
        the pair order of the scalar journal walk, so journal rejects come
        out in scalar order.  Only the skill-passing pairs ever become
        python objects.
        """
        rows: Optional[List[List[int]]] = None
        for worker in workers:
            self._install_row(worker)
        tasks = list(self._tasks.values())
        if self._index is None:
            total = len(workers) * len(tasks)
            self.counters.pairs_checked += total
        else:
            rows = [self._candidates_for(w, latest_deadline, now) for w in workers]
            total = sum(map(len, rows))
        self.counters.columnar_pairs += total
        code = self._columnar_code
        batch = ColumnarBatch(workers, tasks)
        if rows is None:
            cand_w, cand_t, dists, mask = skill_candidates_dense(batch, now, code)
        else:
            tpos = {task.id: pos for pos, task in enumerate(tasks)}
            widx = array("q", chain.from_iterable(
                repeat(pos, len(row)) for pos, row in enumerate(rows)
            ))
            tidx = array("q", map(tpos.__getitem__, chain.from_iterable(rows)))
            cand_w, cand_t, dists, mask = skill_candidates(batch, widx, tidx, now, code)
        if self.journal.enabled:
            # Reason side-channel: decisions stay with the kernel call
            # above; the reason sweep touches no counters.
            if rows is None:
                widx, tidx = dense_pair_columns(len(workers), len(tasks))
            verdicts = zip(widx, tidx, rejection_reasons(batch, widx, tidx, now, code))
            blocks = [len(widx)] if rows is None else [len(row) for row in rows]
            for pos, size in enumerate(blocks):
                if rows is not None:
                    # Scalar order: a worker's index prunes precede its
                    # checked pairs.
                    self._journal_pruned(workers[pos], rows[pos])
                for i, j, verdict in islice(verdicts, size):
                    if verdict:
                        self._reject(workers[i], tasks[j], REASON_NAMES[verdict])
        for k in true_positions(mask):
            worker = workers[cand_w[k]]
            task = tasks[cand_t[k]]
            dist = dists[k]
            # The kernel verdict held, so dist > 0 implies velocity > 0.
            travel = dist / worker.velocity if dist > 0.0 else 0.0
            self._tasks_of[worker.id][task.id] = (task.start, task.deadline, travel)
            self._workers_of[task.id].add(worker.id)

    def _link_skilled(self, worker: Worker, now: float) -> None:
        """Link ``worker`` against the task buckets of its skills.

        Only skill-passing pairs are visited; the caller counts the row's
        full width.  With the journal on, every reject of the row is then
        emitted in ``self._tasks`` order, as an unbucketed row walk would.
        """
        by_skill = self._tasks_by_skill
        buckets = [by_skill[s] for s in worker.skills if s in by_skill]
        verdicts: Optional[Verdicts] = {} if self.journal.enabled else None
        row = chain.from_iterable(map(dict.values, buckets))
        self._link(((worker, row),), now, verdicts)
        if verdicts is not None:
            self._journal_build(
                ((worker, task) for task in self._tasks.values()), verdicts
            )

    def _link_row(
        self,
        worker: Worker,
        tasks: Iterable[Task],
        now: float,
        distance: Optional[Callable[[Point, Point], float]] = None,
    ) -> None:
        """Link-check ``worker`` against ``tasks``, skill test first.

        The path for grid-index candidate rows, which the index has already
        pruned, and for the road-network full build, whose ``distance``
        reads the build's table.  Rejects, ``skill`` ones included, are
        journaled in ``tasks`` order.
        """
        tasks = list(tasks)
        skills = worker.skills
        verdicts: Optional[Verdicts] = {} if self.journal.enabled else None
        self._link(
            ((worker, [t for t in tasks if t.skill in skills]),),
            now,
            verdicts,
            distance,
        )
        if verdicts is not None:
            self._journal_build(((worker, task) for task in tasks), verdicts)

    def _link(
        self,
        rows: Iterable[Tuple[Worker, Iterable[Task]]],
        now: float,
        verdicts: Optional[Verdicts] = None,
        distance: Optional[Callable[[Point, Point], float]] = None,
    ) -> None:
        """Link every skill-passing ``(worker, tasks)`` pair that passes
        Definition 3's range and deadline tests at ``now``.

        The engine's one body of the link predicate, shared by arrivals,
        row recomputes and the index / road-network rows.  A superset test
        at the batch timestamp: feasibility only shrinks as time advances,
        so later batch views' deadline filter never misses a pair.  It makes
        :func:`~repro.core.constraints.deadline_ok`'s comparisons in its
        order over the same floats (a deadline is ``start + wait``, the
        float the ``deadline`` properties return), and a link stores the
        travel time that function divides out, so the views' filter is
        bit-identical.  Each worker's fields are read once per row.

        With ``verdicts`` given, each pair's reason (None when linked,
        ``"reach"`` or ``"deadline"``) is recorded under ``(worker id,
        task id)`` for :meth:`_journal_build`.  ``distance`` defaults to the
        instance metric.  Callers count ``pairs_checked`` in bulk — a
        per-pair counter increment here would dominate the test itself.
        """
        if distance is None:
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

        The journal side channel of the bucketed paths: a pair failing the
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

    # -- helpers -----------------------------------------------------------------

    def _latest_deadline(self) -> float:
        return max((t.deadline for t in self._tasks.values()), default=0.0)

    def _make_index(
        self, workers: Sequence[Worker], tasks: Sequence[Task], now: float
    ) -> Optional[GridIndex[int]]:
        """A grid index over ``tasks`` sized by :func:`index_cell_size`."""
        if not self.use_index or not self.metric.euclidean_lower_bound:
            return None
        cell = index_cell_size(workers, tasks, now)
        if cell is None:
            return None
        index: GridIndex[int] = GridIndex(cell_size=cell)
        index.insert_many((t.id, t.location) for t in tasks)
        return index

    def __repr__(self) -> str:
        return (
            f"AllocationEngine(workers={len(self._workers)}, "
            f"tasks={len(self._tasks)}, built={self._built})"
        )


class BatchFeasibilityView(FeasibleRows):
    """A :class:`FeasibilityChecker`-compatible view over the engine's graph.

    :meth:`AllocationEngine.begin_batch` builds one per batch, under its
    own ``engine.view`` span.  Construction filters each batch worker's
    stored links with the time-dependent deadline predicate at the batch
    timestamp (each link's travel time was stored when the link was made,
    so no metric evaluation happens here) and canonically sorts both row
    directions — the result is the exact pair set, in the exact order, a
    fresh checker would produce.
    Workers without stored links get no row at all; the checker API answers
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
