"""The allocator interface shared by all approaches."""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Optional, Sequence, Union

from repro.core.assignment import Assignment
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext


@dataclass
class AllocationOutcome:
    """An assignment plus bookkeeping an experiment wants to record.

    Attributes:
        assignment: the valid per-batch assignment ``M_b``.
        elapsed: wall-clock seconds spent inside the allocator.
        stats: algorithm-specific counters (rounds, nodes expanded, ...)
            plus per-batch ``engine_*`` counters when the batch ran through
            an :class:`~repro.engine.engine.AllocationEngine`.
    """

    assignment: Assignment
    elapsed: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def score(self) -> int:
        return self.assignment.score


class BatchAllocator(abc.ABC):
    """Computes one batch assignment ``M_b`` (Section II-D).

    Subclasses implement :meth:`_allocate` against a
    :class:`~repro.engine.context.BatchContext`; the public :meth:`allocate`
    wraps it with timing and engine-stat collection.  Allocators must return
    *valid* assignments: every pair feasible, and every assigned task's
    dependencies satisfied by this batch's picks plus
    ``context.previously_assigned``.
    """

    #: Display name used in experiment tables; overridden per configuration.
    name: str = "allocator"

    def allocate(
        self,
        workers: Union[BatchContext, Sequence[Worker]],
        tasks: Optional[Sequence[Task]] = None,
        instance: Optional[ProblemInstance] = None,
        now: float = -math.inf,
        previously_assigned: AbstractSet[int] = frozenset(),
    ) -> AllocationOutcome:
        """Run the allocator on one batch.

        Preferred form — an engine-built (or standalone) context::

            outcome = allocator.allocate(context)

        Compatibility shim — the historical five-argument signature, which
        wraps its arguments in a standalone context, whose feasibility oracle
        is the view of a one-shot engine built for this one batch::

            outcome = allocator.allocate(workers, tasks, instance, now,
                                         previously_assigned)
        """
        if isinstance(workers, BatchContext):
            if tasks is not None or instance is not None:
                raise TypeError(
                    "allocate(context) takes no further arguments; pass either "
                    "a BatchContext or the legacy (workers, tasks, instance, "
                    "now, previously_assigned) tuple"
                )
            context = workers
        else:
            if tasks is None or instance is None:
                raise TypeError(
                    "legacy allocate() requires workers, tasks and instance"
                )
            context = BatchContext.standalone(
                workers, tasks, instance, now, previously_assigned
            )
        tracer = context.tracer
        started = time.perf_counter()
        if tracer.enabled:
            with tracer.span("alloc." + self.name) as span:
                outcome = self._allocate(context)
            span.set("workers", len(context.workers))
            span.set("tasks", len(context.tasks))
            span.set("score", outcome.assignment.score)
        else:
            outcome = self._allocate(context)
        outcome.elapsed = time.perf_counter() - started
        engine_stats = context.engine_stats()
        if engine_stats:
            outcome.stats.update(engine_stats)
        return outcome

    @abc.abstractmethod
    def _allocate(self, context: BatchContext) -> AllocationOutcome:
        """Compute the batch assignment (implemented by each approach)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
