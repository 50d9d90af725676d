"""The batch-based DA-SC platform (Section II-D).

Every ``batch_interval`` time units the platform snapshots the free workers
and open tasks, calls the configured allocator and executes the returned
assignment: each matched worker departs for its task at
``max(s_w, s_t, now)``, arrives after ``dist / v_w`` and completes after the
task's service duration.  Completed workers re-enter the pool at the task
location (policy-dependent, see :class:`RejoinPolicy`) with their moving
budget reduced by the distance travelled; tasks assigned in any earlier
batch satisfy the dependency constraint of later ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.core.assignment import Assignment
from repro.core.instance import ProblemInstance
from repro.core.worker import Worker
from repro.engine.engine import AllocationEngine
from repro.obs.events import EventJournal, get_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer
from repro.shard.engine import ShardedEngine
from repro.shard.partition import SCHEMES as SHARD_SCHEMES
from repro.simulation.stats import BatchRecord, SimulationReport


class RejoinPolicy(enum.Enum):
    """What happens to a worker after it finishes a task.

    * ``REMAINING``: the worker keeps its original departure deadline
      ``s_w + w_w`` — the literal Definition 1 semantics (a worker whose
      waiting window lapsed while serving does not return).
    * ``FRESH``: the worker re-enters with a fresh waiting window equal to
      its original ``w_w`` (a busier, friendlier marketplace).
    * ``NEVER``: one task per worker per run.
    """

    REMAINING = "remaining"
    FRESH = "fresh"
    NEVER = "never"


@dataclass
class _BusyWorker:
    worker: Worker
    free_at: float
    location: tuple
    travelled: float


class Platform:
    """Runs an allocator over an instance batch-by-batch.

    Args:
        instance: the problem to simulate.
        allocator: any batch allocator.
        batch_interval: the constant interval between batch processes.
        rejoin: worker rejoin policy after completing a task.
        tracer: span tracer profiling each batch's phases (snapshot →
            feasibility → match → commit).  None uses the process default
            (:func:`repro.obs.trace.get_tracer`), a no-op unless installed.
        metrics: registry receiving platform latency histograms and the
            engine's counters/gauges.  None keeps the engine's metrics in a
            private registry, exposed after the run as
            :attr:`metrics_registry`.
        n_jobs: worker processes for the phase-1 shard solves of a sharded
            run (1 = serial, negative = all CPUs); reports are identical for
            every value.  Unsharded runs never fan out.
        journal: structured event journal (the allocation flight recorder)
            receiving the run/batch lifecycle, worker arrivals/departures,
            task submissions/expiries, reason-coded feasibility rejections
            and assignment commits.  None uses the process default
            (:func:`repro.obs.events.get_journal`), a no-op unless
            installed.
        shards: spatial shards (1 = the plain unsharded engine).
            ``shards >= 2`` decides each batch through a
            :class:`~repro.shard.engine.ShardedEngine`: per-shard
            allocators plus a border reconcile phase, whose quality is
            measured rather than pinned (reports may differ from the
            unsharded run's).
        shard_scheme: partition build scheme, ``"grid"`` or ``"kd"``.

    The simulation is deterministic given a deterministic allocator; the
    tracer, metrics and journal record observations only and never feed
    back into the report, so runs are bit-identical with profiling or
    journaling on or off.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        allocator: BatchAllocator,
        batch_interval: float = 5.0,
        rejoin: RejoinPolicy = RejoinPolicy.REMAINING,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        n_jobs: int = 1,
        journal: Optional[EventJournal] = None,
        shards: int = 1,
        shard_scheme: str = "grid",
    ) -> None:
        if batch_interval <= 0.0:
            raise ValueError(f"batch interval must be positive, got {batch_interval}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_scheme not in SHARD_SCHEMES:
            raise ValueError(
                f"unknown shard scheme {shard_scheme!r} (expected one of {SHARD_SCHEMES})"
            )
        self.instance = instance
        self.allocator = allocator
        self.batch_interval = batch_interval
        self.rejoin = rejoin
        self.tracer = tracer
        self.metrics = metrics
        self.n_jobs = n_jobs
        self.journal = journal
        self.shards = shards
        self.shard_scheme = shard_scheme
        self._metrics_registry: Optional[MetricsRegistry] = metrics
        #: The engine of the most recent :meth:`run` (None before any run).
        self.last_engine: Optional[AllocationEngine | ShardedEngine] = None

    @property
    def metrics_registry(self) -> Optional[MetricsRegistry]:
        """Where this platform's metrics ended up.

        The ``metrics`` constructor argument when given; otherwise the
        engine's private registry after a :meth:`run`, else None.
        """
        return self._metrics_registry

    def run(self) -> SimulationReport:
        """Simulate the whole horizon and return the aggregate report."""
        instance = self.instance
        report = SimulationReport(allocator=self.allocator.name)
        journal = self.journal if self.journal is not None else get_journal()
        if not instance.workers or not instance.tasks:
            report.expired_tasks = sorted(t.id for t in instance.tasks)
            if journal.enabled:
                # Degenerate run: no batch ever fires, every task expires.
                journal.emit(
                    "run_open",
                    allocator=self.allocator.name,
                    batch_interval=self.batch_interval,
                    start=0.0,
                    horizon=0.0,
                    workers=len(instance.workers),
                    tasks=len(instance.tasks),
                )
                for tid in report.expired_tasks:
                    journal.emit(
                        "task_expire", t=instance.task(tid).deadline, task=tid
                    )
                journal.emit(
                    "run_close",
                    score=0,
                    batches=0,
                    assigned=0,
                    expired=len(report.expired_tasks),
                )
            return report

        tracer = self.tracer if self.tracer is not None else get_tracer()
        # Pool state.  ``pool`` holds the *current* Worker records (a rejoined
        # worker is a relocated copy); ``busy`` tracks in-flight service.
        pool: Dict[int, Worker] = {w.id: w for w in instance.workers}
        busy: Dict[int, _BusyWorker] = {}
        assigned_tasks: Set[int] = set()
        open_task_ids = {t.id for t in instance.tasks}
        if self.shards > 1:
            engine = ShardedEngine(
                instance,
                self.shards,
                scheme=self.shard_scheme,
                tracer=tracer,
                registry=self.metrics,
                n_jobs=self.n_jobs,
                journal=journal,
            )
        else:
            engine = AllocationEngine(
                instance, tracer=tracer, registry=self.metrics, journal=journal
            )
        self._metrics_registry = engine.registry
        # Post-run inspection handle (benchmarks read per-shard counters).
        self.last_engine = engine
        batch_seconds = (
            self._metrics_registry.histogram(
                "platform_batch_seconds", "allocator wall-clock seconds per batch"
            )
            if self._metrics_registry is not None
            else None
        )

        # Batches fire at start, start + interval, ... and once more exactly
        # at the horizon, so nothing alive can slip between the last regular
        # batch and the end of the simulation.
        start = instance.earliest_start
        horizon = instance.horizon
        batches = max(1, math.ceil((horizon - start) / self.batch_interval))
        if journal.enabled:
            journal.emit(
                "run_open",
                allocator=self.allocator.name,
                batch_interval=self.batch_interval,
                start=start,
                horizon=horizon,
                workers=len(instance.workers),
                tasks=len(instance.tasks),
            )
            prev_worker_ids: Set[int] = set()
            prev_task_ids: Set[int] = set()
        for index in range(batches + 1):
            now = min(start + index * self.batch_interval, horizon)
            with tracer.span("platform.batch") as batch_span:
                with tracer.span("platform.snapshot"):
                    self._release_finished(pool, busy, now)
                    workers = [w for w in pool.values() if w.active_at(now)]
                    tasks = [
                        instance.task(tid)
                        for tid in open_task_ids
                        if instance.task(tid).active_at(now)
                    ]
                if journal.enabled:
                    journal.set_batch(index)
                    journal.emit(
                        "batch_open", t=now, workers=len(workers), tasks=len(tasks)
                    )
                    # Population churn relative to the previous snapshot: an
                    # assigned worker departs and (with a rejoin policy)
                    # arrives again later as a relocated record.
                    cur_worker_ids = {w.id for w in workers}
                    cur_task_ids = {t.id for t in tasks}
                    for wid in sorted(cur_worker_ids - prev_worker_ids):
                        journal.emit("worker_arrive", t=now, worker=wid)
                    for wid in sorted(prev_worker_ids - cur_worker_ids):
                        journal.emit("worker_depart", t=now, worker=wid)
                    for tid in sorted(cur_task_ids - prev_task_ids):
                        journal.emit("task_submit", t=now, task=tid)
                    prev_worker_ids = cur_worker_ids
                    prev_task_ids = cur_task_ids
                if workers and tasks:
                    if isinstance(engine, ShardedEngine):
                        # The two-phase protocol owns its own feasibility
                        # sync and per-shard allocator runs.
                        with tracer.span("platform.match"):
                            outcome = engine.allocate(
                                self.allocator, workers, tasks, now,
                                frozenset(assigned_tasks),
                            )
                    else:
                        with tracer.span("platform.feasibility"):
                            context = engine.begin_batch(
                                workers, tasks, now, frozenset(assigned_tasks)
                            )
                        with tracer.span("platform.match"):
                            outcome = self.allocator.allocate(context)
                    with tracer.span("platform.commit"):
                        self._execute(
                            outcome, pool, busy, assigned_tasks, open_task_ids, now,
                            report, journal=journal,
                        )
                    record = BatchRecord(
                        index=index,
                        time=now,
                        available_workers=len(workers),
                        open_tasks=len(tasks),
                        score=outcome.score,
                        elapsed=outcome.elapsed,
                    )
                    if batch_seconds is not None:
                        batch_seconds.observe(outcome.elapsed)
                else:
                    record = BatchRecord(index, now, len(workers), len(tasks), 0, 0.0)
                report.batches.append(record)
                # Expire tasks whose deadline has now passed.
                still_open = {
                    tid for tid in open_task_ids if instance.task(tid).deadline > now
                }
                expired_now = open_task_ids - still_open
                if journal.enabled:
                    for tid in sorted(expired_now):
                        journal.emit(
                            "task_expire", t=instance.task(tid).deadline, task=tid
                        )
                    journal.emit("batch_close", t=now, score=record.score)
                open_task_ids = still_open
                if tracer.enabled:
                    batch_span.set("index", index)
                    batch_span.set("now", now)
                    batch_span.set("workers", record.available_workers)
                    batch_span.set("tasks", record.open_tasks)
                    batch_span.set("score", record.score)
            if now >= horizon:
                break
        report.expired_tasks = sorted(
            tid for tid in instance.task_ids if tid not in assigned_tasks
        )
        report.engine_stats = engine.stats()
        if journal.enabled:
            journal.set_batch(None)
            # Whatever is still open at the horizon expires unassigned; the
            # union of per-batch and end-of-run expiries is exactly
            # ``report.expired_tasks``.
            for tid in sorted(open_task_ids):
                journal.emit("task_expire", t=instance.task(tid).deadline, task=tid)
            journal.emit(
                "run_close",
                score=report.total_score,
                batches=report.num_batches,
                assigned=len(report.assignments),
                expired=len(report.expired_tasks),
            )
        return report

    # -- internals --------------------------------------------------------------------

    def _release_finished(
        self, pool: Dict[int, Worker], busy: Dict[int, _BusyWorker], now: float
    ) -> None:
        done = [wid for wid, record in busy.items() if record.free_at <= now]
        for wid in done:
            record = busy.pop(wid)
            if self.rejoin is RejoinPolicy.NEVER:
                continue
            worker = record.worker
            rejoined = worker.relocated(
                record.location, record.free_at, travelled=record.travelled
            )
            if self.rejoin is RejoinPolicy.FRESH:
                rejoined = Worker(
                    id=rejoined.id,
                    location=rejoined.location,
                    start=rejoined.start,
                    wait=worker.wait,
                    velocity=rejoined.velocity,
                    max_distance=rejoined.max_distance,
                    skills=rejoined.skills,
                )
            if rejoined.wait > 0.0 or self.rejoin is RejoinPolicy.FRESH:
                pool[wid] = rejoined

    def _execute(
        self,
        outcome: AllocationOutcome,
        pool: Dict[int, Worker],
        busy: Dict[int, _BusyWorker],
        assigned_tasks: Set[int],
        open_task_ids: Set[int],
        now: float,
        report: SimulationReport,
        journal: Optional[EventJournal] = None,
    ) -> None:
        instance = self.instance
        for worker_id, task_id in outcome.assignment.pairs():
            worker = pool.pop(worker_id)
            task = instance.task(task_id)
            depart = max(worker.start, task.start, now)
            dist = instance.metric(worker.location, task.location)
            travel = 0.0 if dist == 0.0 else dist / worker.velocity
            finish = depart + travel + task.duration
            busy[worker_id] = _BusyWorker(
                worker=worker, free_at=finish, location=task.location, travelled=dist
            )
            assigned_tasks.add(task_id)
            open_task_ids.discard(task_id)
            report.assignments[task_id] = worker_id
            report.completion_times[task_id] = finish
            if journal is not None and journal.enabled:
                journal.emit("assign", t=now, worker=worker_id, task=task_id)
                journal.emit("complete", t=finish, worker=worker_id, task=task_id)


def run_single_batch(
    instance: ProblemInstance, allocator: BatchAllocator, now: Optional[float] = None
) -> AllocationOutcome:
    """Run one batch over the *entire* instance (the offline special case).

    This is the setting of the NP-hardness proof and the small-scale
    experiment (Table VI): every worker and task is on the platform at once.
    """
    when = instance.earliest_start if now is None else now
    return allocator.allocate(
        instance.workers, instance.tasks, instance, when, frozenset()
    )
