"""The per-batch allocation context.

A :class:`BatchContext` is everything an allocator needs to compute one
batch assignment ``M_b``: the batch populations, the enclosing instance,
the batch timestamp, the cross-batch dependency credit
(``previously_assigned``), a feasible-pair oracle and the instance's
distance metric.  The :class:`~repro.simulation.platform.Platform` builds
one per batch through the :class:`~repro.engine.engine.AllocationEngine`,
which reuses feasibility work across batches and hands the context its
batch view prebuilt.  A standalone context (the compatibility shim, a
single-batch solve, the shard reconcile) builds a one-shot engine on first
read and takes that engine's view, so every feasible pair comes from the
same link loop.

The oracle API is :class:`~repro.core.constraints.FeasibleRows`
(``tasks_of`` / ``workers_of`` / ``feasible`` / ``pairs`` / ``pair_count``
plus ``workers`` / ``tasks`` / ``metric`` / ``now`` attributes) with
canonically sorted rows.
"""

from __future__ import annotations

import math
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Optional,
    Sequence,
)

from repro.core.constraints import FeasibleRows
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.counters import EngineCounters
from repro.obs.events import EventJournal, get_journal
from repro.obs.trace import Tracer, get_tracer


class ReadinessView:
    """Dependency readiness: ``previously_assigned`` plus intra-batch picks.

    Definition 3's dependency constraint counts a task as startable once
    every member of ``D_t`` is assigned in an earlier batch *or earlier in
    the current one*.  Allocators grow the intra-batch part with
    :meth:`mark` as they commit picks.
    """

    def __init__(
        self,
        graph,
        previously_assigned: AbstractSet[int] = frozenset(),
        picks: Iterable[int] = (),
    ) -> None:
        self._graph = graph
        self._assigned = set(previously_assigned)
        self._assigned.update(picks)

    def mark(self, task_id: int) -> None:
        """Record an intra-batch pick."""
        self._assigned.add(task_id)

    def extend(self, task_ids: Iterable[int]) -> None:
        self._assigned.update(task_ids)

    def ready(self, task_id: int) -> bool:
        """Whether every dependency of ``task_id`` is already assigned."""
        return task_id not in self._graph or self._graph.satisfied(
            task_id, self._assigned
        )

    @property
    def assigned_ids(self) -> AbstractSet[int]:
        """Live view of the assigned set (previous batches + picks)."""
        return self._assigned

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._assigned


class BatchContext:
    """One batch's worth of allocation state.

    Attributes:
        workers: the free workers ``W_b`` (order preserved).
        tasks: the open tasks ``T_b``.
        instance: the enclosing problem instance.
        now: the batch timestamp.
        previously_assigned: task ids matched in earlier batches.
        metric: the distance function, ``instance.metric``.
        counters: the engine's cumulative counters (None for standalone
            contexts).
        tracer: the run's span tracer — the engine's when engine-built, the
            process default (usually the shared no-op tracer) otherwise;
            allocators record one ``alloc.<name>`` span per invocation
            through it.
        journal: the run's event journal — the engine's when engine-built,
            the process default (usually the shared no-op journal)
            otherwise; allocators emit game rounds/moves/withdrawals and
            match-set events through it.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        instance: ProblemInstance,
        now: float = -math.inf,
        previously_assigned: AbstractSet[int] = frozenset(),
        *,
        counters: Optional[EngineCounters] = None,
        checker: Optional[FeasibleRows] = None,
        stats_snapshot: Optional[Dict[str, float]] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.workers = list(workers)
        self.tasks = list(tasks)
        self.instance = instance
        self.now = now
        self.previously_assigned = frozenset(previously_assigned)
        self.metric = instance.metric
        self.counters = counters
        self.tracer = tracer if tracer is not None else get_tracer()
        self.journal = journal if journal is not None else get_journal()
        # The engine snapshots its counters *before* the batch's graph
        # update, so per-batch deltas include that update's work.
        if stats_snapshot is not None:
            self._stats_snapshot = stats_snapshot
        elif counters is not None:
            self._stats_snapshot = counters.as_dict()
        else:
            self._stats_snapshot = None
        self._checker: Optional[FeasibleRows] = checker

    @classmethod
    def standalone(
        cls,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        instance: ProblemInstance,
        now: float = -math.inf,
        previously_assigned: AbstractSet[int] = frozenset(),
        *,
        tracer: Optional[Tracer] = None,
        journal: Optional[EventJournal] = None,
    ) -> "BatchContext":
        """A self-contained context (the compatibility-shim path)."""
        return cls(
            workers, tasks, instance, now, previously_assigned,
            tracer=tracer, journal=journal,
        )

    # -- feasibility -------------------------------------------------------------

    @property
    def checker(self) -> FeasibleRows:
        """The batch's feasible-pair oracle.

        Engine contexts hold the view their engine prebuilt; standalone
        contexts build it on first use with a one-shot engine, whose
        counters are dropped (:meth:`engine_stats` stays empty).
        """
        if self._checker is None:
            # A local import: repro.engine.engine imports this module.
            from repro.engine.engine import AllocationEngine

            engine = AllocationEngine(
                self.instance, tracer=self.tracer, journal=self.journal
            )
            context = engine.begin_batch(self.workers, self.tasks, self.now)
            self._checker = context.checker
        return self._checker

    # -- dependencies ------------------------------------------------------------

    def readiness(self, picks: Iterable[int] = ()) -> ReadinessView:
        """A fresh dependency-readiness view seeded with earlier batches."""
        return ReadinessView(
            self.instance.dependency_graph, self.previously_assigned, picks
        )

    # -- instrumentation ---------------------------------------------------------

    def engine_stats(self) -> Dict[str, float]:
        """Engine counter deltas since this context was created.

        Empty for standalone contexts, which have no engine.
        """
        if self.counters is None:
            return {}
        return self.counters.delta_since(self._stats_snapshot)

    def __repr__(self) -> str:
        return (
            f"BatchContext(workers={len(self.workers)}, tasks={len(self.tasks)}, "
            f"now={self.now}, engine={self.counters is not None})"
        )
