"""Test-only reference paths for the feasibility pipeline and the game.

The library has one feasibility builder (the engine's link loop) and one
best-response loop; these helpers let tests pin them against independent
oracles without a switch in the library:

* :class:`ExhaustiveChecker` — the scalar exhaustive oracle: every
  ``(worker, task)`` pair decided by :func:`~repro.core.constraints.pair_feasible`,
  with no skill buckets, no stored links and no engine code;
* :class:`RebuildEngine` — the engine-off reference: a fresh
  :class:`ExhaustiveChecker` per batch.  Platforms run inside
  :func:`without_engine` use it in place of the incremental engine;
* :class:`ReferenceGameState` / :class:`NaiveDASCGame` — the original
  walk-everything game state and the withdraw-and-rescan best-response loop
  over it, the oracle for :class:`~repro.algorithms.utility.GameState` and
  the baseline of the game benchmark;
* :class:`RescanPlatform` — the batch loop that rebuilds every snapshot by
  rescanning the whole pool and every open task, the oracle for
  :class:`~repro.simulation.platform.Platform`'s event queues;
* :class:`EagerDependencyGraph` — the dependency graph that builds every
  map at construction, the oracle for
  :class:`~repro.core.dependency.DependencyGraph`'s orders and lazy maps.
"""

from __future__ import annotations

import contextlib
import math
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import pytest

from repro.algorithms.game import _EPS, DASCGame
from repro.algorithms.registry import make_allocator
from repro.algorithms.utility import harmonic, value_from_counts
from repro.core.constraints import FeasibleRows, pair_feasible
from repro.core.dependency import CyclicDependencyError
from repro.core.exceptions import DascError
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext
from repro.obs.events import get_journal
from repro.obs.trace import get_tracer
from repro.simulation import platform as platform_module
from repro.simulation.stats import BatchRecord, SimulationReport
from repro.spatial.distance import DistanceMetric, EuclideanDistance


class ExhaustiveChecker(FeasibleRows):
    """The feasible pairs of a batch, every pair checked by ``pair_feasible``.

    Rows are sorted, as the engine's view sorts them, and every worker and
    task gets a row (possibly empty).  Nothing is journaled.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        metric: Optional[DistanceMetric] = None,
        now: float = -math.inf,
    ) -> None:
        self.workers = list(workers)
        self.tasks = list(tasks)
        self.metric = metric or EuclideanDistance()
        self.now = now
        self._tasks_of = {w.id: [] for w in self.workers}
        self._workers_of = {t.id: [] for t in self.tasks}
        for worker in self.workers:
            for task in self.tasks:
                if pair_feasible(worker, task, self.metric, now):
                    self._tasks_of[worker.id].append(task.id)
                    self._workers_of[task.id].append(worker.id)
        for row in self._tasks_of.values():
            row.sort()
        for column in self._workers_of.values():
            column.sort()


class RebuildEngine:
    """Engine stand-in that rebuilds feasibility from scratch every batch."""

    def __init__(self, instance, *, tracer=None, registry=None, journal=None):
        self.instance = instance
        self.tracer = tracer
        self.registry = registry
        self.journal = journal

    def begin_batch(self, workers, tasks, now, previously_assigned=frozenset()):
        return BatchContext(
            workers, tasks, self.instance, now, previously_assigned,
            checker=ExhaustiveChecker(workers, tasks, self.instance.metric, now),
            tracer=self.tracer, journal=self.journal,
        )

    def stats(self):
        return {}


@contextlib.contextmanager
def without_engine():
    """Platforms run inside the block rebuild feasibility every batch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(platform_module, "AllocationEngine", RebuildEngine)
        yield


class ReferenceGameState:
    """The original walk-everything game state, kept as an oracle.

    Every query recomputes from the dependency graph; nothing is cached and
    nothing is maintained incrementally.  A value groups the realised
    dependents by ``|D_d|`` and sums them with
    :func:`~repro.algorithms.utility.value_from_counts`, the one float
    formula it shares with the class under test.  The randomized property
    suite pins :class:`~repro.algorithms.utility.GameState` against this
    class float-for-float, and :class:`NaiveDASCGame` runs its best-response
    loop on it.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        tasks: Sequence[Task],
        players: Iterable[int],
        previously_assigned: AbstractSet[int] = frozenset(),
        alpha: float = 10.0,
    ) -> None:
        if not (math.isfinite(alpha) and alpha > 1.0):
            raise ValueError(f"alpha must be finite and > 1, got {alpha}")
        self.alpha = alpha
        self.graph = instance.dependency_graph
        self.batch_task_ids = {t.id for t in tasks}
        self.prev = frozenset(previously_assigned)
        self.choice: Dict[int, Optional[int]] = {w: None for w in players}
        self.nw: Dict[int, int] = {}
        self.evaluations = 0
        self.value_recomputes = 0
        self.cache_hits = 0  # always 0: there is no cache to hit
        self.pruned = 0  # always 0: every candidate is walked

    def set_choice(self, worker_id: int, task_id: Optional[int]) -> None:
        """Move ``worker_id`` to ``task_id`` (None = withdraw)."""
        old = self.choice[worker_id]
        if old == task_id:
            return
        if old is not None:
            remaining = self.nw[old] - 1
            if remaining:
                self.nw[old] = remaining
            else:
                del self.nw[old]
        if task_id is not None:
            self.nw[task_id] = self.nw.get(task_id, 0) + 1
        self.choice[worker_id] = task_id

    def assigned(self, task_id: int) -> bool:
        return self.nw.get(task_id, 0) > 0 or task_id in self.prev

    def deps_satisfied(self, task_id: int, extra: Optional[int] = None) -> bool:
        return all(
            f == extra or self.assigned(f)
            for f in self.graph.direct_dependencies(task_id)
        )

    def fully_realised(self, task_id: int, extra: Optional[int] = None) -> bool:
        if not (task_id == extra or self.assigned(task_id)):
            return False
        return self.deps_satisfied(task_id, extra)

    def task_value(self, task_id: int, extra: Optional[int] = None) -> float:
        """Recount the realised dependents per ``|D_d|`` from the graph, then
        sum them with the shared formula."""
        self.value_recomputes += 1
        deps = self.graph.direct_dependencies(task_id)
        if deps:
            start = (self.alpha - 1.0) / self.alpha if self.deps_satisfied(task_id, extra) else 0.0
        else:
            start = 1.0
        paid: Dict[int, int] = {}
        for dependent in self.graph.direct_dependents(task_id):
            d_size = len(self.graph.direct_dependencies(dependent))
            if self.fully_realised(dependent, extra):
                paid[d_size] = paid.get(d_size, 0) + 1
        return value_from_counts(start, self.alpha, paid)

    def utility_of_choice(self, worker_id: int, task_id: int) -> float:
        if self.choice[worker_id] is not None:
            raise ValueError(
                f"worker {worker_id} must be withdrawn before evaluating candidates"
            )
        self.evaluations += 1
        crowd = self.nw.get(task_id, 0) + 1
        return self.task_value(task_id, extra=task_id) / crowd

    def utility(self, worker_id: int) -> float:
        task_id = self.choice[worker_id]
        if task_id is None:
            return 0.0
        return self.task_value(task_id) / self.nw[task_id]

    def total_utility(self) -> float:
        return sum(self.utility(w) for w in self.choice)

    def potential(self) -> float:
        return sum(
            self.task_value(tid) * harmonic(count) for tid, count in self.nw.items()
        )

    def potential_paper(self) -> float:
        return -sum(
            1.0 / (count + 1) if self.fully_realised(tid) else 0.0
            for tid, count in self.nw.items()
        )

    def chosen_tasks(self) -> List[int]:
        return sorted(self.nw)

    def workers_on(self, task_id: int) -> List[int]:
        return sorted(w for w, t in self.choice.items() if t == task_id)


class NaiveDASCGame(DASCGame):
    """``DASC_Game`` with the original full-rescan best-response loop.

    Every worker is withdrawn and re-evaluated every round, and every
    candidate utility is a fresh graph walk over :class:`ReferenceGameState`.
    Assignments, scores and rounds must equal :class:`DASCGame`'s bit for
    bit; only the work counters differ (``cache_hits``, ``pruned`` and
    ``skipped_workers`` are always 0).
    """

    def _play(self, strategies, context, rng):
        state = ReferenceGameState(
            context.instance,
            context.tasks,
            strategies,
            context.previously_assigned,
            alpha=self.alpha,
        )
        self._initialise(state, strategies, context, rng)
        return state, self._best_response_naive(state, strategies, context), 0

    def _best_response_naive(self, state, strategies, context) -> int:
        journal = context.journal
        player_order = sorted(strategies)
        n_players = len(player_order)
        rounds = 0
        while rounds < self.max_rounds:
            rounds += 1
            changed = 0
            for worker_id in player_order:
                current = state.choice[worker_id]
                state.set_choice(worker_id, None)
                best_task = current
                best_utility = (
                    state.utility_of_choice(worker_id, current) if current is not None else 0.0
                )
                for candidate in strategies[worker_id]:
                    if candidate == current:
                        continue
                    utility = state.utility_of_choice(worker_id, candidate)
                    if utility > best_utility + _EPS:
                        best_utility = utility
                        best_task = candidate
                state.set_choice(worker_id, best_task)
                if best_task != current:
                    changed += 1
                    if journal.enabled:
                        journal.emit(
                            "game_move",
                            round=rounds,
                            worker=worker_id,
                            frm=current,
                            to=best_task,
                        )
            if journal.enabled:
                journal.emit(
                    "game_round",
                    round=rounds,
                    changed=changed,
                    evaluated=n_players,
                    skipped=0,
                )
            if changed == 0 or changed / n_players <= self.threshold:
                break
        return rounds


def naive_allocator(name: str, seed: int = 0) -> NaiveDASCGame:
    """The named game configuration of :func:`make_allocator`, naive loop."""
    game = make_allocator(name, seed=seed)
    naive = NaiveDASCGame(
        threshold=game.threshold,
        alpha=game.alpha,
        init=game.init,
        seed=game.seed,
        max_rounds=game.max_rounds,
        reassign_losers=game.reassign_losers,
    )
    naive.name = game.name
    return naive


class RescanPlatform(platform_module.Platform):
    """:class:`~repro.simulation.platform.Platform` with the rescanning loop.

    Every batch scans the whole pool (``Worker.active_at`` per record) and
    every open task id for its snapshot, rebuilds the open set with a third
    scan at batch close and derives the journal's arrive / depart / submit
    events by diffing id sets against the previous snapshot.  Workers come
    out in pool order and tasks in ``set`` iteration order.  Reports,
    ``engine_stats``, batch records and journal streams (up to the order of
    ``reject`` events within a batch, which follows task order) must equal
    the event-driven loop's.  Engines are resolved through the platform
    module at run time, so :func:`without_engine` applies here too.
    """

    def run(self) -> SimulationReport:
        instance = self.instance
        if not instance.workers or not instance.tasks:
            return super().run()
        report = SimulationReport(allocator=self.allocator.name)
        journal = self.journal if self.journal is not None else get_journal()
        tracer = self.tracer if self.tracer is not None else get_tracer()
        pool: Dict[int, Worker] = {w.id: w for w in instance.workers}
        busy: Dict[int, tuple] = {}
        assigned_tasks: Set[int] = set()
        open_task_ids = {t.id for t in instance.tasks}
        engine = platform_module.AllocationEngine(
            instance, tracer=tracer, registry=self.metrics, journal=journal
        )
        self._metrics_registry = engine.registry
        self.last_engine = engine
        start = instance.earliest_start
        horizon = instance.horizon
        batches = max(1, math.ceil((horizon - start) / self.batch_interval))
        if journal.enabled:
            journal.emit(
                "run_open", allocator=self.allocator.name,
                batch_interval=self.batch_interval, start=start, horizon=horizon,
                workers=len(instance.workers), tasks=len(instance.tasks),
            )
            prev_worker_ids: Set[int] = set()
            prev_task_ids: Set[int] = set()
        for index in range(batches + 1):
            now = min(start + (index * self.batch_interval if index else 0.0), horizon)
            self._rescan_release(pool, busy, now)
            workers = [w for w in pool.values() if w.active_at(now)]
            tasks = [
                instance.task(tid)
                for tid in open_task_ids
                if instance.task(tid).active_at(now)
            ]
            if journal.enabled:
                journal.set_batch(index)
                journal.emit("batch_open", t=now, workers=len(workers), tasks=len(tasks))
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
                context = engine.begin_batch(
                    workers, tasks, now, frozenset(assigned_tasks)
                )
                outcome = self.allocator.allocate(context)
                self._rescan_execute(
                    outcome, pool, busy, assigned_tasks, open_task_ids, now, report,
                    journal,
                )
                record = BatchRecord(
                    index, now, len(workers), len(tasks), outcome.score, outcome.elapsed
                )
            else:
                record = BatchRecord(index, now, len(workers), len(tasks), 0, 0.0)
            report.batches.append(record)
            still_open = {
                tid for tid in open_task_ids if instance.task(tid).deadline > now
            }
            if journal.enabled:
                for tid in sorted(open_task_ids - still_open):
                    journal.emit("task_expire", t=instance.task(tid).deadline, task=tid)
                journal.emit("batch_close", t=now, score=record.score)
            open_task_ids = still_open
            if now >= horizon:
                break
        report.expired_tasks = sorted(
            tid for tid in instance.task_ids if tid not in assigned_tasks
        )
        report.engine_stats = engine.stats()
        if journal.enabled:
            journal.set_batch(None)
            for tid in sorted(open_task_ids):
                journal.emit("task_expire", t=instance.task(tid).deadline, task=tid)
            journal.emit(
                "run_close", score=report.total_score, batches=report.num_batches,
                assigned=len(report.assignments), expired=len(report.expired_tasks),
            )
        return report

    def _rescan_release(self, pool, busy, now) -> None:
        # ``busy`` is in commit order, so rejoins re-enter the pool (and
        # its iteration order) in release order.
        done = [wid for wid, record in busy.items() if record[1] <= now]
        for wid in done:
            worker, free_at, location, travelled = busy.pop(wid)
            rejoined = self.rejoin.rejoined(worker, location, free_at, travelled)
            if rejoined is not None:
                pool[wid] = rejoined

    def _rescan_execute(
        self, outcome, pool, busy, assigned_tasks, open_task_ids, now, report, journal
    ) -> None:
        instance = self.instance
        for worker_id, task_id in outcome.assignment.pairs():
            worker = pool.pop(worker_id)
            task = instance.task(task_id)
            depart = max(worker.start, task.start, now)
            dist = instance.metric(worker.location, task.location)
            travel = 0.0 if dist == 0.0 else dist / worker.velocity
            finish = depart + travel + task.duration
            busy[worker_id] = (worker, finish, task.location, dist)
            assigned_tasks.add(task_id)
            open_task_ids.discard(task_id)
            report.assignments[task_id] = worker_id
            report.completion_times[task_id] = finish
            if journal.enabled:
                journal.emit("assign", t=now, worker=worker_id, task=task_id)
                journal.emit("complete", t=finish, worker=worker_id, task=task_id)


class EagerDependencyGraph:
    """The dependency graph as first written: every map built up front.

    Construction validates the ids, runs Kahn's algorithm (dependents
    visited in ascending id) with per-edge depth bookkeeping, closes
    ``D_t`` transitively and inverts both the direct relation (dependents,
    then sorted) and the closure (descendants) with ``set.add`` loops.
    :class:`~repro.core.dependency.DependencyGraph` must give the same
    topological order and dependent tuples, and equal sets elsewhere.
    """

    def __init__(self, direct: Mapping[int, Iterable[int]]) -> None:
        self._direct: Dict[int, FrozenSet[int]] = {
            tid: frozenset(deps) for tid, deps in direct.items()
        }
        known = set(self._direct)
        for tid, deps in self._direct.items():
            missing = deps - known
            if missing:
                raise DascError(
                    f"task {tid} depends on unknown task(s) {sorted(missing)}"
                )
        self._order = self._topological_order()
        self._ancestors = self._close()
        self._dependents = {
            tid: tuple(sorted(vals)) for tid, vals in self._invert(self._direct).items()
        }
        self._descendants = self._invert(self._ancestors)

    def topological_order(self) -> List[int]:
        return list(self._order)

    def ancestors(self, tid: int) -> FrozenSet[int]:
        return self._ancestors[tid]

    def direct_dependents(self, tid: int) -> Tuple[int, ...]:
        return self._dependents[tid]

    def descendants(self, tid: int) -> FrozenSet[int]:
        return self._descendants[tid]

    def associative_set(self, tid: int) -> FrozenSet[int]:
        return self._ancestors[tid] | {tid}

    def depth(self, tid: int) -> int:
        return self._depths[tid]

    def _topological_order(self) -> List[int]:
        indegree: Dict[int, int] = {tid: len(deps) for tid, deps in self._direct.items()}
        dependents: Dict[int, List[int]] = {tid: [] for tid in self._direct}
        for tid in sorted(self._direct):
            for dep in self._direct[tid]:
                dependents[dep].append(tid)
        queue = sorted(tid for tid, deg in indegree.items() if deg == 0)
        order: List[int] = []
        depths: Dict[int, int] = {tid: 0 for tid in queue}
        head = 0
        while head < len(queue):
            tid = queue[head]
            head += 1
            order.append(tid)
            for nxt in dependents[tid]:
                indegree[nxt] -= 1
                depths[nxt] = max(depths.get(nxt, 0), depths[tid] + 1)
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if len(order) != len(self._direct):
            raise CyclicDependencyError(self._find_cycle())
        self._depths = depths
        return order

    def _find_cycle(self) -> List[int]:
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[int, int] = {tid: WHITE for tid in self._direct}
        stack: List[int] = []

        def visit(tid: int) -> Optional[List[int]]:
            color[tid] = GRAY
            stack.append(tid)
            for dep in self._direct[tid]:
                if color[dep] == GRAY:
                    return stack[stack.index(dep):] + [dep]
                if color[dep] == WHITE:
                    found = visit(dep)
                    if found is not None:
                        return found
            color[tid] = BLACK
            stack.pop()
            return None

        for tid in self._direct:
            if color[tid] == WHITE:
                found = visit(tid)
                if found is not None:
                    return found
        return []

    def _close(self) -> Dict[int, FrozenSet[int]]:
        closure: Dict[int, FrozenSet[int]] = {}
        for tid in self._order:
            acc: Set[int] = set(self._direct[tid])
            for dep in self._direct[tid]:
                acc |= closure[dep]
            closure[tid] = frozenset(acc)
        return closure

    @staticmethod
    def _invert(relation: Mapping[int, FrozenSet[int]]) -> Dict[int, FrozenSet[int]]:
        out: Dict[int, Set[int]] = {tid: set() for tid in relation}
        for tid, deps in relation.items():
            for dep in deps:
                out[dep].add(tid)
        return {tid: frozenset(vals) for tid, vals in out.items()}
