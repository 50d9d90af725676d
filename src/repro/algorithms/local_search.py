"""Local-search post-optimisation (extension beyond the paper).

Wraps any base allocator and hill-climbs its batch assignment with two
score-increasing move types, iterated to a fixed point:

* **fill** — an idle worker takes an unassigned task whose dependencies are
  already satisfied (newly assigned tasks can unlock further ones within
  the same pass);
* **relocate** — a busy worker hands its task to an idle colleague who can
  also serve it, freeing the busy worker for an additional ready task
  (net +1).

Both moves only ever add valid pairs, so the result is valid whenever the
base assignment is, and the score never decreases — the property tests
assert both.  The ablation benchmark measures what the polish buys on top
of each base approach.

Every quantity the sweeps read — the busy-worker set, the open-task set,
the dependency-readiness view and each worker's feasible-task set — is
maintained *incrementally* in a :class:`_SearchState` as moves are applied,
instead of being rebuilt from the assignment at every sweep.  Both move
types only ever grow the assigned sets, so the maintained views stay exact
and the move sequence (and final assignment) is bit-identical to the
historical rebuild-per-sweep implementation (pinned by the reference
equivalence test).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Set

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.core.assignment import Assignment
from repro.core.constraints import FeasibilityChecker
from repro.core.instance import ProblemInstance
from repro.engine.context import BatchContext, ReadinessView


class LocalSearchImprover(BatchAllocator):
    """Hill-climbing wrapper around a base allocator.

    Args:
        base: the allocator whose output gets polished.
        max_passes: cap on fill+relocate sweeps (each sweep is O(pairs)).
    """

    def __init__(self, base: BatchAllocator, max_passes: int = 10) -> None:
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        self.base = base
        self.max_passes = max_passes
        self.name = f"{base.name}+LS"

    def _allocate(self, context: BatchContext) -> AllocationOutcome:
        # Sharing the context lets the base allocator and the polish passes
        # use one feasibility graph for the whole batch.
        outcome = self.base.allocate(context)
        if not context.workers or not context.tasks:
            return outcome
        checker = context.checker
        assignment = outcome.assignment.copy()
        improved = improve_assignment(
            assignment,
            checker,
            context.instance,
            context.previously_assigned,
            max_passes=self.max_passes,
        )
        stats = dict(outcome.stats)
        stats["ls_gain"] = float(improved.score - outcome.assignment.score)
        return AllocationOutcome(improved, stats=stats)


class _SearchState:
    """The sweep-invariant views, kept exact across moves.

    ``busy`` mirrors ``assignment.assigned_workers()``, ``open_tasks``
    mirrors ``all_tasks - assignment.assigned_tasks()`` and ``readiness``
    mirrors a view seeded with the current assignment — all updated in O(1)
    per move rather than rebuilt per sweep.  ``feasible_of`` memoises each
    worker's feasible-task set (static for the batch).
    """

    __slots__ = ("all_workers", "busy", "open_tasks", "readiness", "_feasible")

    def __init__(
        self,
        assignment: Assignment,
        checker: FeasibilityChecker,
        graph,
        previously_assigned: AbstractSet[int],
    ) -> None:
        self.all_workers = {w.id for w in checker.workers}
        self.busy: Set[int] = set(assignment.assigned_workers())
        assigned = assignment.assigned_tasks()
        self.open_tasks: Set[int] = {
            t.id for t in checker.tasks if t.id not in assigned
        }
        self.readiness = ReadinessView(graph, previously_assigned, assigned)
        self._feasible: Dict[int, Set[int]] = {}

    def idle_workers(self) -> List[int]:
        """The idle workers, sorted (the fill/relocate scan order)."""
        return sorted(self.all_workers - self.busy)

    def feasible_of(self, checker: FeasibilityChecker, worker_id: int) -> Set[int]:
        feasible = self._feasible.get(worker_id)
        if feasible is None:
            feasible = self._feasible[worker_id] = set(checker.tasks_of(worker_id))
        return feasible

    def apply_fill(self, worker_id: int, task_id: int) -> None:
        """An idle worker took an open ready task."""
        self.busy.add(worker_id)
        self.open_tasks.discard(task_id)
        self.readiness.mark(task_id)

    def apply_relocate(self, substitute: int, extra: int) -> None:
        """A busy worker handed off its task and took ``extra`` instead.

        The handed-off task stays assigned (only its worker changed), so
        the task-side views move exactly as one fill of ``extra``.
        """
        self.busy.add(substitute)
        self.open_tasks.discard(extra)
        self.readiness.mark(extra)


def improve_assignment(
    assignment: Assignment,
    checker: FeasibilityChecker,
    instance: ProblemInstance,
    previously_assigned: AbstractSet[int] = frozenset(),
    max_passes: int = 10,
) -> Assignment:
    """Apply fill/relocate moves to a valid assignment until no move helps.

    The input assignment is mutated and returned (callers pass a copy when
    they need the original).
    """
    graph = instance.dependency_graph
    state = _SearchState(assignment, checker, graph, previously_assigned)
    for _ in range(max_passes):
        changed = _fill_pass(assignment, checker, state)
        changed |= _relocate_pass(assignment, checker, state)
        if not changed:
            break
    return assignment


def _fill_pass(
    assignment: Assignment,
    checker: FeasibilityChecker,
    state: _SearchState,
) -> bool:
    changed = False
    progress = True
    while progress:
        progress = False
        readiness = state.readiness
        open_tasks = state.open_tasks
        for worker_id in state.idle_workers():
            for task_id in checker.tasks_of(worker_id):
                if task_id not in open_tasks:
                    continue
                if not readiness.ready(task_id):
                    continue
                assignment.add(worker_id, task_id)
                state.apply_fill(worker_id, task_id)
                progress = True
                changed = True
                break
    return changed


def _relocate_pass(
    assignment: Assignment,
    checker: FeasibilityChecker,
    state: _SearchState,
) -> bool:
    changed = False
    progress = True
    while progress:
        progress = False
        idle = state.idle_workers()
        open_ready = [t for t in sorted(state.open_tasks) if state.readiness.ready(t)]
        if not idle or not open_ready:
            break
        idle_set = set(idle)
        for worker_id, task_id in list(assignment.pairs()):
            # an idle substitute who can also serve task_id
            substitute = next(
                (w for w in checker.workers_of(task_id) if w in idle_set), None
            )
            if substitute is None:
                continue
            # a ready open task the busy worker could take instead
            feasible = state.feasible_of(checker, worker_id)
            extra = next((t for t in open_ready if t in feasible), None)
            if extra is None:
                continue
            assignment.remove_task(task_id)
            assignment.add(substitute, task_id)
            assignment.add(worker_id, extra)
            state.apply_relocate(substitute, extra)
            idle_set.discard(substitute)
            open_ready.remove(extra)
            progress = True
            changed = True
            if not idle_set or not open_ready:
                break
    return changed
