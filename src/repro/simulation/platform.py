"""The batch-based DA-SC platform (Section II-D).

Every ``batch_interval`` time units the platform snapshots the free workers
and open tasks, calls the configured allocator and executes the returned
assignment: each matched worker departs for its task at
``max(s_w, s_t, now)``, arrives after ``dist / v_w`` and completes after the
task's service duration.  Completed workers re-enter the pool at the task
location (policy-dependent, see :class:`RejoinPolicy`) with their moving
budget reduced by the distance travelled; tasks assigned in any earlier
batch satisfy the dependency constraint of later ones.

The loop is event-driven: workers and tasks wait in arrival lists sorted
once by start time, active records sit in deadline min-heaps, and each
snapshot is the previous one plus arrivals and rejoins minus departures
and the last batch's commits — so a batch costs its churn, not a scan of
the whole pool.  Snapshots list workers in pool order (instance order,
then rejoins in release order) and tasks in ascending id; the journal's
arrive / depart / submit / expire events come from the same queues.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Point, Worker
from repro.engine.engine import AllocationEngine
from repro.obs.events import EventJournal, get_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer
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

    def rejoined(
        self, worker: Worker, location: Point, free_at: float, travelled: float
    ) -> Optional[Worker]:
        """The record ``worker`` re-enters the pool with, or None if it leaves.

        The worker finished its task at ``location`` at ``free_at`` after
        moving ``travelled``.  Under ``REMAINING`` a worker whose window
        lapsed while serving (zero wait left) does not return; a ``FRESH``
        one always does, even with a zero original wait.
        """
        if self is RejoinPolicy.NEVER:
            return None
        back = worker.relocated(location, free_at, travelled=travelled)
        if self is RejoinPolicy.FRESH:
            return replace(back, wait=worker.wait)
        return back if back.wait > 0.0 else None


@dataclass
class _BusyWorker:
    worker: Worker
    free_at: float
    location: Point
    travelled: float


class _WorkerQueue:
    """The free-worker pool as an arrival list and a departure heap.

    Records wait in the arrival list (sorted once by start) until a
    snapshot reaches their start, are *active* while
    ``start <= now <= deadline`` and leave when a commit takes them or a
    snapshot passes their deadline.  Each record entering the pool takes
    the next sequence number — instance workers their instance position,
    rejoins the next number in release order — and snapshots list the
    active workers by it, which is the order of a pool dict that
    re-inserts a rejoined worker at its end.  The sequence number also
    names the record in the departure heap: an entry whose record already
    left (committed, perhaps rejoined as a new record) is stale and
    skipped.
    """

    def __init__(self, workers: Sequence[Worker]) -> None:
        self._arrivals = sorted(enumerate(workers), key=lambda item: item[1].start)
        self._next = 0
        self._seq = len(workers)
        #: sequence number -> record, for every active worker.
        self._active: Dict[int, Worker] = {}
        #: worker id -> sequence number of its active record.
        self._seq_of: Dict[int, int] = {}
        #: (deadline, sequence number) of every record ever activated.
        self._departures: List[Tuple[float, int]] = []
        #: Ids that joined / left the active set since the last churn()
        #: (only a journaling run asks; each set stays within the ids).
        self._entered: Set[int] = set()
        self._left: Set[int] = set()

    def rejoin(self, worker: Worker, now: float) -> None:
        """Admit a released worker, whose start is its finish time ``<= now``."""
        self._seq += 1
        self._admit(self._seq, worker, now)

    def snapshot(self, now: float) -> List[Worker]:
        """The active workers at ``now``, in pool order."""
        arrivals = self._arrivals
        while self._next < len(arrivals) and arrivals[self._next][1].start <= now:
            seq, worker = arrivals[self._next]
            self._next += 1
            self._admit(seq, worker, now)
        departures = self._departures
        active = self._active
        while departures and departures[0][0] < now:
            worker = active.pop(heappop(departures)[1], None)
            if worker is not None:
                del self._seq_of[worker.id]
                self._left.add(worker.id)
        return [active[seq] for seq in sorted(active)]

    def take(self, worker_id: int) -> Worker:
        """Remove a committed worker from the pool and return its record."""
        self._left.add(worker_id)
        return self._active.pop(self._seq_of.pop(worker_id))

    def churn(self) -> Tuple[List[int], List[int]]:
        """Sorted ids that arrived and departed since the last call.

        A worker that left and came back in between (committed, then
        rejoined) did neither.
        """
        arrived = sorted(self._entered - self._left)
        departed = sorted(self._left - self._entered)
        self._entered.clear()
        self._left.clear()
        return arrived, departed

    def _admit(self, seq: int, worker: Worker, now: float) -> None:
        deadline = worker.deadline
        if now <= deadline:
            self._active[seq] = worker
            self._seq_of[worker.id] = seq
            heappush(self._departures, (deadline, seq))
            self._entered.add(worker.id)


class _TaskQueue:
    """Open tasks as an arrival list and an expiry heap.

    A task is active from the first snapshot at or after its start until
    a commit assigns it or its deadline passes.  An unassigned task
    expires at the first batch close at or after its deadline, also when
    no snapshot ever saw it active.
    """

    def __init__(self, tasks: Sequence[Task]) -> None:
        self._arrivals = sorted(tasks, key=lambda task: task.start)
        self._next = 0
        self._active: Dict[int, Task] = {}
        self._expiries: List[Tuple[float, int]] = []
        #: Ids due to expire at the next batch close.
        self._lapsed: List[int] = []
        #: Ids activated since the last churn() (at most every task id).
        self._submitted: List[int] = []

    def snapshot(self, now: float) -> List[Task]:
        """The open tasks active at ``now``, in ascending id order."""
        arrivals = self._arrivals
        active = self._active
        while self._next < len(arrivals) and arrivals[self._next].start <= now:
            task = arrivals[self._next]
            self._next += 1
            if now <= task.deadline:
                active[task.id] = task
                heappush(self._expiries, (task.deadline, task.id))
                self._submitted.append(task.id)
            else:
                self._lapsed.append(task.id)
        self._expire(lambda deadline: deadline < now)
        return [active[tid] for tid in sorted(active)]

    def take(self, task_id: int) -> None:
        """Close a task the batch assigned."""
        del self._active[task_id]

    def churn(self) -> List[int]:
        """Sorted ids of the tasks activated since the last call."""
        submitted = sorted(self._submitted)
        self._submitted.clear()
        return submitted

    def close(self, now: float) -> List[int]:
        """Expire every open task with deadline ``<= now``; their sorted ids."""
        self._expire(lambda deadline: deadline <= now)
        expired = sorted(self._lapsed)
        self._lapsed.clear()
        return expired

    def remaining(self) -> List[int]:
        """Ids of every task neither assigned nor expired yet, sorted."""
        pending = [task.id for task in self._arrivals[self._next:]]
        return sorted(chain(self._active, pending))

    def _expire(self, due: Callable[[float], bool]) -> None:
        """Close the active tasks whose deadline is ``due``."""
        expiries = self._expiries
        active = self._active
        while expiries and due(expiries[0][0]):
            task_id = heappop(expiries)[1]
            if active.pop(task_id, None) is not None:
                self._lapsed.append(task_id)


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
        journal: structured event journal (the allocation flight recorder)
            receiving the run/batch lifecycle, worker arrivals/departures,
            task submissions/expiries, reason-coded feasibility rejections
            and assignment commits.  None uses the process default
            (:func:`repro.obs.events.get_journal`), a no-op unless
            installed.

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
        journal: Optional[EventJournal] = None,
    ) -> None:
        if not batch_interval > 0.0:
            raise ValueError(f"batch interval must be positive, got {batch_interval}")
        self.instance = instance
        self.allocator = allocator
        self.batch_interval = batch_interval
        self.rejoin = rejoin
        self.tracer = tracer
        self.metrics = metrics
        self.journal = journal
        self._metrics_registry: Optional[MetricsRegistry] = metrics
        #: The engine of the most recent :meth:`run` (None before any run).
        self.last_engine: Optional[AllocationEngine] = None

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
        # Pool state.  ``pool`` holds the current record of every free worker
        # (a rejoined worker is a relocated copy); ``busy`` is a heap of
        # in-flight services keyed by finish time and commit order.
        pool = _WorkerQueue(instance.workers)
        open_tasks = _TaskQueue(instance.tasks)
        busy: List[Tuple[float, int, _BusyWorker]] = []
        assigned_tasks: Set[int] = set()
        engine = AllocationEngine(
            instance, tracer=tracer, registry=self.metrics, journal=journal
        )
        self._metrics_registry = engine.registry
        # Post-run inspection handle (benchmarks read the engine's counters).
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
        # batch and the end of the simulation.  Batch 0 skips the product,
        # which an infinite interval would turn into NaN.
        start = instance.earliest_start
        horizon = instance.horizon
        batches = max(1, math.ceil((horizon - start) / self.batch_interval))
        if journal.enabled:
            journal.emit(
                "run_open",
                allocator=self.allocator.name,
                # JSON has no Infinity: an infinite interval is recorded as null.
                batch_interval=(
                    self.batch_interval if math.isfinite(self.batch_interval) else None
                ),
                start=start,
                horizon=horizon,
                workers=len(instance.workers),
                tasks=len(instance.tasks),
            )
        for index in range(batches + 1):
            now = min(start + (index * self.batch_interval if index else 0.0), horizon)
            with tracer.span("platform.batch") as batch_span:
                with tracer.span("platform.snapshot"):
                    self._release_finished(pool, busy, now)
                    workers = pool.snapshot(now)
                    tasks = open_tasks.snapshot(now)
                if journal.enabled:
                    journal.set_batch(index)
                    journal.emit(
                        "batch_open", t=now, workers=len(workers), tasks=len(tasks)
                    )
                    # Population churn since the previous snapshot: an
                    # assigned worker departs and (with a rejoin policy)
                    # arrives again later as a relocated record; one that
                    # does both between two snapshots never left.
                    arrived, departed = pool.churn()
                    for wid in arrived:
                        journal.emit("worker_arrive", t=now, worker=wid)
                    for wid in departed:
                        journal.emit("worker_depart", t=now, worker=wid)
                    for tid in open_tasks.churn():
                        journal.emit("task_submit", t=now, task=tid)
                if workers and tasks:
                    with tracer.span("platform.feasibility"):
                        context = engine.begin_batch(
                            workers, tasks, now, frozenset(assigned_tasks)
                        )
                    with tracer.span("platform.match"):
                        outcome = self.allocator.allocate(context)
                    with tracer.span("platform.commit"):
                        self._execute(
                            outcome, pool, open_tasks, busy, assigned_tasks, now,
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
                expired_now = open_tasks.close(now)
                if journal.enabled:
                    for tid in expired_now:
                        journal.emit(
                            "task_expire", t=instance.task(tid).deadline, task=tid
                        )
                    journal.emit("batch_close", t=now, score=record.score)
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
            for tid in open_tasks.remaining():
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
        self,
        pool: _WorkerQueue,
        busy: List[Tuple[float, int, _BusyWorker]],
        now: float,
    ) -> None:
        done = []
        while busy and busy[0][0] <= now:
            done.append(heappop(busy))
        # Workers released together rejoin in the commit order of their
        # services, which is the old pool dict's re-insertion order.
        done.sort(key=itemgetter(1))
        for _, _, record in done:
            rejoined = self.rejoin.rejoined(
                record.worker, record.location, record.free_at, record.travelled
            )
            if rejoined is not None:
                pool.rejoin(rejoined, now)

    def _execute(
        self,
        outcome: AllocationOutcome,
        pool: _WorkerQueue,
        open_tasks: _TaskQueue,
        busy: List[Tuple[float, int, _BusyWorker]],
        assigned_tasks: Set[int],
        now: float,
        report: SimulationReport,
        journal: Optional[EventJournal] = None,
    ) -> None:
        instance = self.instance
        for worker_id, task_id in outcome.assignment.pairs():
            worker = pool.take(worker_id)
            task = instance.task(task_id)
            depart = max(worker.start, task.start, now)
            dist = instance.metric(worker.location, task.location)
            travel = 0.0 if dist == 0.0 else dist / worker.velocity
            finish = depart + travel + task.duration
            # ``len(assigned_tasks)`` numbers the commits of the run.
            heappush(busy, (finish, len(assigned_tasks), _BusyWorker(
                worker=worker, free_at=finish, location=task.location, travelled=dist
            )))
            assigned_tasks.add(task_id)
            open_tasks.take(task_id)
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
