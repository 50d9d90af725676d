"""The geo-sharded allocation engine: per-shard feasibility and allocation.

A :class:`ShardedEngine` owns one incremental
:class:`~repro.engine.engine.AllocationEngine` per shard of a frozen
:class:`~repro.shard.partition.SpatialPartition` built over the instance's
worker and task positions.  Tasks route to the unique shard containing
their location; a worker's reachability disc
(:func:`~repro.core.constraints.reach_radius`, a sound Euclidean
over-approximation for any ``euclidean_lower_bound`` metric) decides where
it goes: a disc inside one shard makes it a *core* worker of that shard,
a disc crossing a boundary puts it in the *border* set.  Each shard syncs
its own graph incrementally over its core workers and home tasks, so
per-batch feasibility work settles against a shard-sized population
instead of the global one.

Each batch runs the two-phase protocol:

1. every shard's allocator runs independently over its core workers and
   home tasks, reading that shard engine's own feasibility view;
2. the border workers and every still-open task within any border disc
   form one small reconcile instance, re-solved exactly.

A dependency-retry pass then re-offers tasks whose prerequisites another
shard assigned in the same batch.  The merge never double-assigns a worker
or overstaffs a task (core worker sets and shard task sets are disjoint;
the reconcile context's taken-task credit excludes phase-1 picks, with a
defensive conflict counter besides).  Quality relative to the unsharded
run is *measured*, reported and gated by ``benchmarks/bench_shard.py`` —
not pinned.  Even on a boundary-free instance, where the per-shard
subproblems are independent, an allocator that breaks ties or draws
random numbers across the whole batch can pair differently.

The reconcile solves a standalone context, so its feasible pairs come
from a one-shot engine's full build: every feasible pair of a sharded run
is decided by the same link loop as an unsharded one.

Observability: every per-shard graph build, view materialisation, phase-1
solve and reason-coded rejection is stamped with its shard id
(:meth:`~repro.obs.events.EventJournal.set_shard`); run/batch/assign
framing stays shard-free, so ``repro explain --replay-check`` replays a
sharded journal unchanged.  Pairs between a worker and a task of a shard
it does not belong to never reach a shard engine and emit no per-pair
reject events; a border worker's pairs get theirs from the reconcile's
one-shot build.
"""

from __future__ import annotations

import math
import time
from typing import (
    AbstractSet,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.core.assignment import Assignment
from repro.core.constraints import FeasibleRows, reach_radius
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext
from repro.engine.counters import EngineCounters
from repro.engine.engine import AllocationEngine, BatchFeasibilityView
from repro.obs.events import EventJournal, get_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.shard.partition import SpatialPartition, make_partition


class _ShardEngine(AllocationEngine):
    """One shard's incremental engine, steered by the coordinator.

    Differs from a free-standing engine in that the graph sync is driven
    by :meth:`sync`: no per-batch mode counters or ``feas_build`` emission
    — the coordinator owns both.
    """

    def __init__(self, instance: ProblemInstance, shard_id: int, **kwargs) -> None:
        super().__init__(instance, **kwargs)
        self.shard_id = shard_id

    def sync(self, workers: Sequence[Worker], tasks: Sequence[Task], now: float) -> str:
        """Bring this shard's graph up to date; returns the build mode."""
        if self._built and now < self._now:
            self._reset()
        if not self._built:
            self._full_build(workers, tasks, now)
            self._built = True
            mode = "full"
        else:
            self._incremental_update(workers, tasks, now)
            mode = "incremental"
        self._now = now
        return mode


class _PrebuiltView(FeasibleRows):
    """A checker-API view over rows filtered from the phase-1 views.

    The dependency retry offers still-free workers a subset of the rows
    their shard's view already settled, so it needs no engine sync.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        tasks_of: Dict[int, List[int]],
        metric,
        now: float,
    ) -> None:
        self.workers = list(workers)
        self.tasks = list(tasks)
        self.metric = metric
        self.now = now
        self._tasks_of = {w.id: list(tasks_of.get(w.id, ())) for w in self.workers}
        workers_of: Dict[int, List[int]] = {t.id: [] for t in self.tasks}
        for worker in self.workers:
            for tid in self._tasks_of[worker.id]:
                workers_of[tid].append(worker.id)
        for tid in workers_of:
            workers_of[tid].sort()
        self._workers_of = workers_of


class ShardedEngine:
    """Spatially-partitioned engine scale-out over per-shard engines.

    Args:
        instance: the problem being simulated; its initial worker and task
            positions fix the partition for the whole run.
        n_shards: number of shards (>= 2; use a plain
            :class:`AllocationEngine` for 1).
        scheme: partition build scheme — ``"grid"`` or ``"kd"`` (see
            :mod:`repro.shard.partition`).
        tracer / registry / journal: observability hooks.  The registry
            receives the coordinator's counters and shard gauges; each
            shard engine keeps its own private registry (per-shard detail
            stays inspectable via ``engine.engines[sid].registry``).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        n_shards: int,
        *,
        scheme: str = "grid",
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        if n_shards < 2:
            raise ValueError(f"n_shards must be >= 2, got {n_shards}")
        self.instance = instance
        self._euclid = bool(getattr(instance.metric, "euclidean_lower_bound", False))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal if journal is not None else get_journal()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = EngineCounters(self.registry)
        positions = [w.location for w in instance.workers] + [
            t.location for t in instance.tasks
        ]
        self.partition: SpatialPartition = make_partition(positions, n_shards, scheme)
        self.engines: List[_ShardEngine] = [
            _ShardEngine(
                instance,
                sid,
                tracer=self.tracer,
                journal=self.journal,
            )
            for sid in range(n_shards)
        ]
        self._border_counter = self.registry.counter(
            "shard_border_workers",
            "batch workers whose reach disc crossed a shard boundary",
        )
        self._reconcile_pairs_counter = self.registry.counter(
            "shard_reconcile_pairs",
            "border-worker x open-task pairs re-solved by the reconcile phase",
        )
        self._reconcile_assigned_counter = self.registry.counter(
            "shard_reconcile_assigned",
            "assignments added by the border reconcile phase",
        )
        self._conflict_counter = self.registry.counter(
            "shard_conflicts_dropped",
            "phase-merge assignments dropped to protect worker/task exclusivity",
        )
        self._dep_retry_assigned_counter = self.registry.counter(
            "shard_dep_retry_assigned",
            "assignments recovered by the cross-shard dependency retry pass",
        )
        self._densest_gauge = self.registry.gauge(
            "shard_densest_pairs",
            "settled pairs (checked + time-filtered) of the busiest shard",
        )
        self.registry.gauge("shard_count", "number of spatial shards").value = float(
            n_shards
        )
        self._synced = False
        self._now = -math.inf

    # -- public API ---------------------------------------------------------------

    def allocate(
        self,
        allocator: BatchAllocator,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        previously_assigned: AbstractSet[int] = frozenset(),
    ) -> AllocationOutcome:
        """Decide one batch: per-shard phase 1, border reconcile, retry."""
        started = time.perf_counter()
        workers = list(workers)
        tasks = list(tasks)
        snapshot = self._aggregate_dict()
        shard_workers, shard_tasks, border, latest = self._route(workers, tasks, now)
        self._sync_shards(shard_workers, shard_tasks, now)
        self._border_counter.inc(len(border))
        journal = self.journal
        payloads: List[Tuple[int, BatchFeasibilityView]] = []
        for sid, shard_engine in enumerate(self.engines):
            if not shard_workers[sid] or not shard_tasks[sid]:
                continue
            if journal.enabled:
                journal.set_shard(sid)
            view = BatchFeasibilityView(
                shard_engine, shard_workers[sid], shard_tasks[sid], now
            )
            payloads.append((sid, view))
        if journal.enabled:
            journal.set_shard(None)
        outcomes = self._run_phase1(allocator, payloads, now, previously_assigned)

        merged = Assignment()
        used_workers: set = set()
        taken: set = set()
        stats: Dict[str, float] = {}
        for outcome in outcomes:
            self._merge_stats(stats, outcome.stats)
            for wid, tid in outcome.assignment.pairs():
                if wid in used_workers or tid in taken:
                    # Structurally unreachable (core workers register in
                    # exactly one shard, tasks in exactly one); kept as a
                    # hard guarantee against partitioner regressions.
                    self._conflict_counter.inc()
                    continue
                merged.add(wid, tid)
                used_workers.add(wid)
                taken.add(tid)

        reconcile_pairs = 0
        reconcile_added = 0
        if border:
            reconcile_tasks = self._reconcile_candidates(
                border, tasks, taken, latest, now
            )
            reconcile_pairs = len(border) * len(reconcile_tasks)
            self._reconcile_pairs_counter.inc(reconcile_pairs)
            if reconcile_tasks:
                with self.tracer.span("shard.reconcile") as span:
                    context = BatchContext.standalone(
                        border,
                        reconcile_tasks,
                        self.instance,
                        now,
                        frozenset(previously_assigned) | taken,
                        tracer=self.tracer,
                        journal=journal,
                    )
                    outcome = allocator.allocate(context)
                if self.tracer.enabled:
                    span.set("border_workers", len(border))
                    span.set("tasks", len(reconcile_tasks))
                    span.set("score", outcome.assignment.score)
                self._merge_stats(stats, outcome.stats)
                for wid, tid in outcome.assignment.pairs():
                    if wid in used_workers or tid in taken:
                        self._conflict_counter.inc()
                        continue
                    merged.add(wid, tid)
                    used_workers.add(wid)
                    taken.add(tid)
                    reconcile_added += 1
                self._reconcile_assigned_counter.inc(reconcile_added)

        retry_added = self._dependency_retry(
            allocator, workers, tasks, now, previously_assigned,
            payloads, merged, used_workers, taken, stats,
        )

        current = self._aggregate_dict()
        stats.update({key: value - snapshot[key] for key, value in current.items()})
        stats["shard_phase1_shards"] = float(len(payloads))
        stats["shard_border_workers"] = float(len(border))
        stats["shard_reconcile_pairs"] = float(reconcile_pairs)
        stats["shard_reconcile_assigned"] = float(reconcile_added)
        stats["shard_dep_retry_assigned"] = float(retry_added)
        return AllocationOutcome(
            assignment=merged,
            elapsed=time.perf_counter() - started,
            stats=stats,
        )

    def stats(self) -> Dict[str, float]:
        """Cumulative aggregate counters (coordinator + every shard)."""
        return self._aggregate_dict()

    def aux_stats(self) -> Dict[str, float]:
        """Aggregate mode-dependent telemetry (coordinator + every shard)."""
        return self._aggregate_aux()

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(shards={self.partition.n_shards}, "
            f"scheme={self.partition.scheme!r})"
        )

    # -- internals ----------------------------------------------------------------

    def _route(self, workers: Sequence[Worker], tasks: Sequence[Task], now: float):
        """Split a batch into per-shard core workers and home tasks.

        A worker whose reach disc overlaps more than one shard is a border
        worker and joins no shard.  Without a Euclidean lower bound on the
        metric the disc is not a sound over-approximation, so every worker
        is a border worker and the reconcile phase solves the whole batch.
        """
        latest = max((t.deadline for t in tasks), default=0.0)
        part = self.partition
        shard_tasks: List[List[Task]] = [[] for _ in range(part.n_shards)]
        for task in tasks:
            shard_tasks[part.shard_of(task.location)].append(task)
        shard_workers: List[List[Worker]] = [[] for _ in range(part.n_shards)]
        border: List[Worker] = []
        for worker in workers:
            if self._euclid:
                sids = part.shards_overlapping_disc(
                    worker.location, reach_radius(worker, latest, now)
                )
                if len(sids) == 1:
                    shard_workers[sids[0]].append(worker)
                    continue
            border.append(worker)
        return shard_workers, shard_tasks, border, latest

    def _sync_shards(
        self,
        shard_workers: Sequence[Sequence[Worker]],
        shard_tasks: Sequence[Sequence[Task]],
        now: float,
    ) -> None:
        if self._synced and now < self._now:
            # Time went backwards: the shard engines will reset and rebuild;
            # mirror the global engine's full_builds accounting.
            self._synced = False
        first = not self._synced
        journal = self.journal
        for sid, shard_engine in enumerate(self.engines):
            if journal.enabled:
                journal.set_shard(sid)
                before = shard_engine.counters.pairs_checked
            with self.tracer.span("shard.sync") as span:
                mode = shard_engine.sync(shard_workers[sid], shard_tasks[sid], now)
            if self.tracer.enabled:
                span.set("shard", sid)
                span.set("mode", mode)
                span.set("workers", len(shard_workers[sid]))
                span.set("tasks", len(shard_tasks[sid]))
            if journal.enabled:
                journal.emit(
                    "feas_build",
                    mode=mode,
                    workers=len(shard_workers[sid]),
                    tasks=len(shard_tasks[sid]),
                    pairs=int(shard_engine.counters.pairs_checked - before),
                )
        if journal.enabled:
            journal.set_shard(None)
        if first:
            self.counters.full_builds += 1
        else:
            self.counters.incremental_updates += 1
        self._synced = True
        self._now = now

    def _run_phase1(
        self,
        allocator: BatchAllocator,
        payloads: Sequence[Tuple[int, BatchFeasibilityView]],
        now: float,
        previously_assigned: AbstractSet[int],
    ) -> List[AllocationOutcome]:
        """Run each shard's allocator over its own feasibility view."""
        frozen = frozenset(previously_assigned)
        outcomes: List[AllocationOutcome] = []
        journal = self.journal
        for sid, view in payloads:
            if journal.enabled:
                journal.set_shard(sid)
            with self.tracer.span("shard.phase1") as span:
                context = BatchContext(
                    view.workers,
                    view.tasks,
                    self.instance,
                    now,
                    frozen,
                    checker=view,
                    tracer=self.tracer,
                    journal=journal,
                )
                outcome = allocator.allocate(context)
            if self.tracer.enabled:
                span.set("shard", sid)
                span.set("score", outcome.assignment.score)
            outcomes.append(outcome)
        if journal.enabled:
            journal.set_shard(None)
        return outcomes

    def _reconcile_candidates(
        self,
        border: Sequence[Worker],
        tasks: Sequence[Task],
        taken: AbstractSet[int],
        latest: float,
        now: float,
    ) -> List[Task]:
        """Open tasks within any border worker's reach disc, batch order."""
        open_tasks = [t for t in tasks if t.id not in taken]
        if not self._euclid:
            return open_tasks
        keep: List[Task] = []
        for task in open_tasks:
            tx, ty = task.location
            for worker in border:
                radius = reach_radius(worker, latest, now)
                dx = tx - worker.location[0]
                dy = ty - worker.location[1]
                if dx * dx + dy * dy <= radius * radius:
                    keep.append(task)
                    break
        return keep

    def _dependency_retry(
        self,
        allocator: BatchAllocator,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        previously_assigned: AbstractSet[int],
        payloads: Sequence[Tuple[int, BatchFeasibilityView]],
        merged: Assignment,
        used_workers: set,
        taken: set,
        stats: Dict[str, float],
    ) -> int:
        """Recover tasks whose dependencies were met by *another* shard.

        Phase 1 validates dependencies per shard: a shard's allocator sees
        only its own same-batch picks (plus ``previously_assigned``), so a
        task whose prerequisite was assigned in a different shard this very
        batch looks unsatisfied and gets pruned.  After the merge those
        picks are global knowledge — re-offer every still-open dependent
        task whose prerequisites are now covered to the still-free core
        workers, reusing the phase-1 feasibility rows (no rebuild).
        Iterates to a fixed point so cross-shard dependency *chains*
        resolve within the batch, like the unsharded allocator's would.
        """
        graph = self.instance.dependency_graph
        if len(graph) == 0:
            return 0
        rows_by_wid: Dict[int, List[int]] = {}
        for _, view in payloads:
            rows_by_wid.update(view._tasks_of)
        tasks_by_id = {t.id: t for t in tasks}
        workers_by_id = {w.id: w for w in workers}
        prev_frozen = frozenset(previously_assigned)
        added_total = 0
        while True:
            satisfied = prev_frozen | taken
            # Only tasks whose prerequisites were met by *this batch's*
            # picks can have been wrongly pruned; tasks satisfied before
            # the batch already had their full phase-1 audition.
            retry_tids = {
                tid
                for tid in tasks_by_id
                if tid not in satisfied
                and tid in graph
                and graph.satisfied(tid, satisfied)
                and not graph.satisfied(tid, prev_frozen)
            }
            retry_rows: Dict[int, List[int]] = {}
            for wid in sorted(rows_by_wid):
                if wid in used_workers:
                    continue
                row = [tid for tid in rows_by_wid[wid] if tid in retry_tids]
                if row:
                    retry_rows[wid] = row
            if not retry_rows:
                return added_total
            retry_workers = [workers_by_id[wid] for wid in retry_rows]
            offered = sorted({tid for row in retry_rows.values() for tid in row})
            retry_tasks = [tasks_by_id[tid] for tid in offered]
            with self.tracer.span("shard.dep_retry") as span:
                context = BatchContext(
                    retry_workers,
                    retry_tasks,
                    self.instance,
                    now,
                    satisfied,
                    checker=_PrebuiltView(
                        retry_workers, retry_tasks, retry_rows,
                        self.instance.metric, now,
                    ),
                    tracer=self.tracer,
                    journal=self.journal,
                )
                outcome = allocator.allocate(context)
            if self.tracer.enabled:
                span.set("workers", len(retry_workers))
                span.set("tasks", len(retry_tasks))
                span.set("score", outcome.assignment.score)
            self._merge_stats(stats, outcome.stats)
            added = 0
            for wid, tid in outcome.assignment.pairs():
                if wid in used_workers or tid in taken:
                    self._conflict_counter.inc()
                    continue
                merged.add(wid, tid)
                used_workers.add(wid)
                taken.add(tid)
                added += 1
            if added == 0:
                return added_total
            self._dep_retry_assigned_counter.inc(added)
            added_total += added

    @staticmethod
    def _merge_stats(total: Dict[str, float], stats: Dict[str, float]) -> None:
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0.0) + float(value)

    def _aggregate_dict(self, prefix: str = "engine_") -> Dict[str, float]:
        total = self.counters.as_dict(prefix)
        densest = 0.0
        for shard_engine in self.engines:
            for key, value in shard_engine.counters.as_dict(prefix).items():
                total[key] += value
            settled = (
                shard_engine.counters.pairs_checked
                + shard_engine.counters.time_filtered
            )
            if settled > densest:
                densest = settled
        self._densest_gauge.value = float(densest)
        return total

    def _aggregate_aux(self, prefix: str = "engine_") -> Dict[str, float]:
        total = self.counters.aux_dict(prefix)
        for shard_engine in self.engines:
            for key, value in shard_engine.counters.aux_dict(prefix).items():
                total[key] += value
        return total
