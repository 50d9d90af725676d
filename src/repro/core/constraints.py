"""The four constraints of Definition 3 and fast feasible-pair computation.

``pair_feasible`` is the exact, static test from the paper.  The
:class:`FeasibilityChecker` generalises it with a current time ``now`` (so it
stays correct mid-simulation, when workers re-enter the pool at new
positions) and prunes candidates with a grid index before exact checks.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.task import Task
from repro.core.worker import Worker
from repro.obs.events import EventJournal, get_journal
from repro.spatial.distance import DistanceMetric, EuclideanDistance
from repro.spatial.index import GridIndex

_EUCLIDEAN = EuclideanDistance()

#: Sentinel distinguishing "caller did not resolve ``bounded_distance``"
#: from "caller resolved it to None" in :func:`pair_feasible`.
_UNRESOLVED = object()


def resolve_bounded(metric: Optional[DistanceMetric]):
    """The metric's goal-bounded query, resolved once per batch.

    ``pair_feasible`` historically probed ``getattr(metric,
    "bounded_distance", None)`` on *every* call; batch loops hoist the
    lookup here and pass the result back via the ``bounded`` keyword.
    """
    return getattr(metric or _EUCLIDEAN, "bounded_distance", None)


def skill_ok(worker: Worker, task: Task) -> bool:
    """Skill constraint: ``rs_t in WS_w``."""
    return task.skill in worker.skills


def latest_departure(worker: Worker, task: Task, now: float = -math.inf) -> float:
    """Earliest instant the worker can set off for the task.

    The worker cannot leave before it appears (``s_w``), before the task
    exists (``s_t``) or before the current time.
    """
    return max(worker.start, task.start, now)


def deadline_ok(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    now: float = -math.inf,
    dist: Optional[float] = None,
) -> bool:
    """Deadline constraint of Definition 3.

    (1) the task appears before the worker leaves: ``s_t <= s_w + w_w``, and
    the worker appears before the task expires;
    (2) travelling from ``l_w`` at the earliest departure reaches ``l_t`` no
    later than ``s_t + w_t``.  With ``now = -inf`` this is exactly the
    paper's ``w_t - max(s_w - s_t, 0) - ct_w(l_w, l_t) >= 0``.

    ``dist`` may carry a precomputed ``metric(l_w, l_t)`` so callers that
    already evaluated the metric (range check, distance cache) do not pay
    for it twice.
    """
    if task.start > worker.deadline or worker.start > task.deadline:
        return False
    depart = latest_departure(worker, task, now)
    if depart > task.deadline or depart > worker.deadline:
        return False
    if dist is None:
        dist = (metric or _EUCLIDEAN)(worker.location, task.location)
    if dist == 0.0:
        return True
    if worker.velocity <= 0.0:
        return False
    return depart + dist / worker.velocity <= task.deadline


def within_range(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    dist: Optional[float] = None,
) -> bool:
    """Maximum-moving-distance constraint: ``dist(l_w, l_t) <= d_w``."""
    if dist is None:
        dist = (metric or _EUCLIDEAN)(worker.location, task.location)
    return dist <= worker.max_distance


def pair_feasible(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    now: float = -math.inf,
    *,
    bounded=_UNRESOLVED,
) -> bool:
    """Whether ``(w, t)`` satisfies skill, deadline and distance constraints.

    The exclusivity and dependency constraints are properties of a whole
    assignment, not of a pair, and are checked by
    :class:`repro.core.assignment.Assignment`.

    Metrics exposing ``bounded_distance`` (the road network) are queried
    with the worker's reach bound ``d_w`` as the budget: the search stops
    settling nodes once the budget is provably exceeded and returns ``inf``
    then — and the exact distance otherwise — so every decision below is
    identical to the unbounded evaluation.  Batch loops pass the
    once-per-batch :func:`resolve_bounded` result as ``bounded`` to skip
    the per-call attribute probe.
    """
    if not skill_ok(worker, task):
        return False
    metric = metric or _EUCLIDEAN
    if bounded is _UNRESOLVED:
        bounded = getattr(metric, "bounded_distance", None)
    if bounded is not None:
        dist = bounded(worker.location, task.location, worker.max_distance)
    else:
        dist = metric(worker.location, task.location)
    return within_range(worker, task, dist=dist) and deadline_ok(
        worker, task, now=now, dist=dist
    )


def pair_rejection_reason(
    worker: Worker,
    task: Task,
    metric: Optional[DistanceMetric] = None,
    now: float = -math.inf,
    *,
    bounded=_UNRESOLVED,
) -> Optional[str]:
    """The first failing constraint of ``(w, t)``, or None when feasible.

    The reason-coded twin of :func:`pair_feasible`: the metric is evaluated
    exactly once with the same bounded/unbounded resolution, and the
    precedence mirrors the scalar short-circuit exactly — ``skill`` before
    ``reach`` (``dist > d_w``) before ``deadline`` — so ``reason is None``
    iff ``pair_feasible(...)``.  Emitted into the event journal as
    :data:`repro.obs.events.REASONS` codes (the fourth code,
    ``dependency``, is an assignment-level property and never returned
    here).
    """
    if not skill_ok(worker, task):
        return "skill"
    metric = metric or _EUCLIDEAN
    if bounded is _UNRESOLVED:
        bounded = getattr(metric, "bounded_distance", None)
    if bounded is not None:
        dist = bounded(worker.location, task.location, worker.max_distance)
    else:
        dist = metric(worker.location, task.location)
    if not within_range(worker, task, dist=dist):
        return "reach"
    if not deadline_ok(worker, task, now=now, dist=dist):
        return "deadline"
    return None


def prune_rejection_reason(worker: Worker, euclid_dist: float) -> str:
    """A sound reason code for a pair the spatial index pruned.

    Pruning guarantees ``euclid_dist > reach_radius(w, latest_deadline,
    now) = min(d_w, v_w * Δt)`` where the true metric distance is
    lower-bounded by ``euclid_dist``.  If the Euclidean bound already
    exceeds ``d_w`` the pair certainly fails the range constraint
    (``reach``); otherwise it exceeded ``v_w * Δt``, and since ``Δt``
    over-approximates the travel budget of every task in the batch
    (``latest_deadline >= s_t + w_t`` and the departure only moves later),
    the arrival test certainly fails (``deadline`` — also covering the
    ``v_w <= 0`` degenerate case, where the radius collapses to 0).  The
    pruned pair may *additionally* fail the skill constraint, but the code
    returned here is always one the exact check would confirm.
    """
    return "reach" if euclid_dist > worker.max_distance else "deadline"


def reach_radius(worker: Worker, latest_deadline: float, now: float = -math.inf) -> float:
    """The pruning radius outside which no task can be feasible for ``worker``.

    ``min(d_w, v_w * (latest task deadline - earliest departure))`` — the
    Euclidean disc of this radius over-approximates the true reachable
    region for any metric with ``euclidean_lower_bound``.
    """
    return min(
        worker.max_distance,
        worker.velocity * max(0.0, latest_deadline - max(worker.start, now)),
    )


class FeasibilityChecker:
    """Precomputes the feasible worker/task pairs of a batch.

    Args:
        workers: candidate workers.
        tasks: candidate tasks.
        metric: distance function (Euclidean default).
        now: the batch timestamp; pairs must be startable at or after it.
        use_index: prune with a grid index when the metric declares
            ``euclidean_lower_bound`` (Euclidean, Manhattan, road-network).
            Other metrics fall back to exhaustive checking, which is always
            correct.
        journal: event journal receiving reason-coded per-pair rejections
            (``phase="checker"`` for exact checks, ``phase="prune"`` for
            index-pruned pairs) and one ``feas_build`` summary.  None
            follows the process default (:func:`repro.obs.events.
            get_journal`); recording is observational only — the feasible
            pair sets are bit-identical with journaling on or off.

    Candidate tiles run through the vectorised :mod:`repro.columnar`
    kernels instead of per-pair ``pair_feasible`` calls whenever
    :func:`repro.columnar.columnar_code_for` selects them for the metric;
    pair sets are bit-identical either way.  A
    :class:`~repro.spatial.cache.CachedMetric` is never selected, because
    its hit/miss trajectory is observable state the scalar path must keep
    populating.

    The per-worker pruning radius is ``min(d_w, v_w * (latest task deadline -
    earliest departure))`` — no feasible task can lie outside it (for
    lower-bounded metrics the Euclidean disc over-approximates the true
    reachable region, which is exactly what a prune needs).
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        metric: Optional[DistanceMetric] = None,
        now: float = -math.inf,
        use_index: bool = True,
        journal: Optional[EventJournal] = None,
    ) -> None:
        from repro.columnar.kernels import columnar_code_for

        self.workers = list(workers)
        self.tasks = list(tasks)
        self.metric = metric or _EUCLIDEAN
        self.now = now
        self._bounded = resolve_bounded(self.metric)
        self.journal = journal if journal is not None else get_journal()
        self._columnar_code = columnar_code_for(self.metric)
        self._worker_by_id = {w.id: w for w in self.workers}
        self._task_by_id = {t.id: t for t in self.tasks}
        use_grid = use_index and self.metric.euclidean_lower_bound and self.tasks
        self._tasks_of, self._workers_of = (
            self._build_with_index() if use_grid else self._build_exhaustive()
        )
        self._task_sets = {
            wid: frozenset(tids) for wid, tids in self._tasks_of.items()
        }
        if self.journal.enabled:
            # Every (worker, task) pair of the batch is decided exactly once
            # (checked exactly or index-pruned), so the funnel arithmetic
            # pairs == rejects + feasible holds by construction.
            self.journal.emit(
                "feas_build",
                mode="checker",
                workers=len(self.workers),
                tasks=len(self.tasks),
                pairs=len(self.workers) * len(self.tasks),
                feasible=self.pair_count(),
                columnar=self._columnar_code is not None,
            )

    # -- public API --------------------------------------------------------------

    def tasks_of(self, worker_id: int) -> List[int]:
        """Task ids feasible for the worker (the strategy space ``S_w``)."""
        return self._tasks_of.get(worker_id, [])

    def workers_of(self, task_id: int) -> List[int]:
        """Worker ids able to serve the task."""
        return self._workers_of.get(task_id, [])

    def feasible(self, worker_id: int, task_id: int) -> bool:
        row = self._task_sets.get(worker_id)
        return row is not None and task_id in row

    def pairs(self) -> Iterable[Tuple[int, int]]:
        """All feasible ``(worker_id, task_id)`` pairs."""
        for wid, tids in self._tasks_of.items():
            for tid in tids:
                yield (wid, tid)

    def pair_count(self) -> int:
        return sum(len(tids) for tids in self._tasks_of.values())

    # -- construction -------------------------------------------------------------

    def _build_exhaustive(
        self,
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        tasks_of: Dict[int, List[int]] = {w.id: [] for w in self.workers}
        workers_of: Dict[int, List[int]] = {t.id: [] for t in self.tasks}
        journal = self.journal
        if self._columnar_code is not None and self.workers and self.tasks:
            from repro.columnar import ColumnarBatch, feasible_dense

            batch = ColumnarBatch(self.workers, self.tasks)
            worker_ids, task_ids = batch.worker_ids, batch.task_ids
            for wpos, tpos in feasible_dense(batch, self.now, self._columnar_code):
                tasks_of[worker_ids[wpos]].append(task_ids[tpos])
                workers_of[task_ids[tpos]].append(worker_ids[wpos])
            if journal.enabled:
                # The reason kernel is a side observation: decisions above
                # come from the same feasible_dense call as before, and the
                # kernel touches no counters.
                from repro.columnar import REASON_NAMES, rejection_reasons_dense

                codes = rejection_reasons_dense(batch, self.now, self._columnar_code)
                n_t = batch.n_tasks
                for k, verdict in enumerate(codes):
                    if verdict:
                        journal.emit(
                            "reject",
                            worker=worker_ids[k // n_t],
                            task=task_ids[k % n_t],
                            reason=REASON_NAMES[verdict],
                            phase="checker",
                        )
        elif journal.enabled:
            bounded = self._bounded
            for worker in self.workers:
                for task in self.tasks:
                    reason = pair_rejection_reason(
                        worker, task, self.metric, self.now, bounded=bounded
                    )
                    if reason is None:
                        tasks_of[worker.id].append(task.id)
                        workers_of[task.id].append(worker.id)
                    else:
                        journal.emit(
                            "reject",
                            worker=worker.id,
                            task=task.id,
                            reason=reason,
                            phase="checker",
                        )
        else:
            bounded = self._bounded
            for worker in self.workers:
                for task in self.tasks:
                    if pair_feasible(
                        worker, task, self.metric, self.now, bounded=bounded
                    ):
                        tasks_of[worker.id].append(task.id)
                        workers_of[task.id].append(worker.id)
        # Canonical (sorted) rows: both build paths and the incremental
        # engine agree exactly, so downstream tie-breaking is build-agnostic.
        for wid in tasks_of:
            tasks_of[wid].sort()
        for tid in workers_of:
            workers_of[tid].sort()
        return tasks_of, workers_of

    def _journal_pruned(self, worker: Worker, candidate_ids: set) -> None:
        # Index-pruned pairs never reach an exact check, but the journal
        # still needs a decision for each: the Euclidean lower bound that
        # justified the prune also names a constraint the pair provably
        # fails (see prune_rejection_reason).
        journal = self.journal
        wx, wy = worker.location
        for task in self.tasks:
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

    def _build_with_index(
        self,
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        latest_deadline = max(t.deadline for t in self.tasks)
        spans = [reach_radius(w, latest_deadline, self.now) for w in self.workers]
        positive = sorted(s for s in spans if s > 0.0)
        cell = positive[len(positive) // 2] if positive else 1.0
        # Keep the cell a sane fraction of the data extent: degenerate spans
        # (near-zero velocities) must not shatter the grid into billions of
        # cells that large-radius queries would then have to cross.
        xs = [t.location[0] for t in self.tasks]
        ys = [t.location[1] for t in self.tasks]
        extent = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        if cell > extent / 2.0:
            # typical reach spans most of the region: the index cannot prune
            # anything, so skip its bookkeeping entirely.
            return self._build_exhaustive()
        floor_cell = extent / max(4.0, math.sqrt(len(self.tasks)) * 2.0)
        index: GridIndex[int] = GridIndex(cell_size=max(cell, floor_cell, 1e-9))
        index.insert_many((t.id, t.location) for t in self.tasks)

        tasks_of: Dict[int, List[int]] = {w.id: [] for w in self.workers}
        workers_of: Dict[int, List[int]] = {t.id: [] for t in self.tasks}
        journal = self.journal
        if self._columnar_code is not None:
            from repro.columnar import ColumnarBatch, feasible_pairs, true_positions

            # Index pruning feeds the tile: candidate (worker, task)
            # positions flatten into parallel columns, one kernel sweep
            # decides them all, and only surviving pairs are touched again.
            batch = ColumnarBatch(self.workers, self.tasks)
            tpos_of = {t.id: pos for pos, t in enumerate(self.tasks)}
            widx: List[int] = []
            tidx: List[int] = []
            ends: List[int] = []
            for wpos, (worker, span) in enumerate(zip(self.workers, spans)):
                candidates = index.query_radius(worker.location, span)
                widx.extend(wpos for _ in candidates)
                tidx.extend(tpos_of[tid] for tid in candidates)
                ends.append(len(widx))
            mask, _, _ = feasible_pairs(
                batch, widx, tidx, self.now, self._columnar_code
            )
            worker_ids, task_ids = batch.worker_ids, batch.task_ids
            for k in true_positions(mask):
                wid = worker_ids[widx[k]]
                tid = task_ids[tidx[k]]
                tasks_of[wid].append(tid)
                workers_of[tid].append(wid)
            if journal.enabled:
                from repro.columnar import REASON_NAMES, rejection_reasons

                codes = rejection_reasons(
                    batch, widx, tidx, self.now, self._columnar_code
                )
                # Each worker's prunes, then its exact-check rejects: the
                # scalar loop's order, so the stream is path-independent.
                start = 0
                for worker, end in zip(self.workers, ends):
                    self._journal_pruned(
                        worker, {task_ids[tidx[k]] for k in range(start, end)}
                    )
                    for k in range(start, end):
                        if codes[k]:
                            journal.emit(
                                "reject",
                                worker=worker.id,
                                task=task_ids[tidx[k]],
                                reason=REASON_NAMES[codes[k]],
                                phase="checker",
                            )
                    start = end
        else:
            bounded = self._bounded
            for worker, span in zip(self.workers, spans):
                candidates = index.query_radius(worker.location, span)
                if journal.enabled:
                    self._journal_pruned(worker, set(candidates))
                    for tid in candidates:
                        task = self._task_by_id[tid]
                        reason = pair_rejection_reason(
                            worker, task, self.metric, self.now, bounded=bounded
                        )
                        if reason is None:
                            tasks_of[worker.id].append(tid)
                            workers_of[tid].append(worker.id)
                        else:
                            journal.emit(
                                "reject",
                                worker=worker.id,
                                task=tid,
                                reason=reason,
                                phase="checker",
                            )
                    continue
                for tid in candidates:
                    task = self._task_by_id[tid]
                    if pair_feasible(
                        worker, task, self.metric, self.now, bounded=bounded
                    ):
                        tasks_of[worker.id].append(tid)
                        workers_of[tid].append(worker.id)
        for wid in tasks_of:
            tasks_of[wid].sort()
        for tid in workers_of:
            workers_of[tid].sort()
        return tasks_of, workers_of
