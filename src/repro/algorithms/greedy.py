"""``DASC_Greedy`` (Algorithm 1, Section III).

Each task ``t_i`` and its (transitively closed) dependencies form an
*associative task set* ``tc_i``.  The algorithm repeatedly staffs the largest
set that the free workers can fully conduct — staffing decided by a bipartite
matching (the Hungarian algorithm in the paper) — then removes the assigned
tasks from every other set and the used workers from the pool.

Because ``Sum(M)`` is monotone and submodular over committed sets
(Theorem III.1), this achieves at least ``(1 - 1/e) * |M_opt|`` per batch
(Theorem III.2).

A set with a member that no batch worker can serve can never be staffed,
so it is dropped before any matching; the picks stay those of the plain
largest-first scan (DESIGN §24).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.core.assignment import Assignment
from repro.engine.context import BatchContext
from repro.matching.bipartite import Method, match_task_set


class DASCGreedy(BatchAllocator):
    """The greedy approach.

    Args:
        matching: bipartite matcher used for staffing a set —
            ``hungarian`` (the paper's choice, also minimises travel within
            a set) or ``hopcroft-karp`` (cardinality-only, faster; used by
            the ablation benchmark).

    ``AllocationOutcome.stats`` carries ``iterations`` (staffing rounds),
    ``matchings`` (sets handed to the matcher) and ``dropped_sets`` (batch
    tasks whose set was dropped before any matching).
    """

    name = "Greedy"

    def __init__(self, matching: Method = "hungarian") -> None:
        self.matching = matching

    def _allocate(self, context: BatchContext) -> AllocationOutcome:
        workers, tasks, instance = context.workers, context.tasks, context.instance
        assignment = Assignment()
        if not workers or not tasks:
            return AllocationOutcome(assignment)
        checker = context.checker
        journal = context.journal
        graph = instance.dependency_graph
        assigned: Set[int] = set(context.previously_assigned)

        # Associative task sets, pruned of already-assigned ancestors.  A set
        # with a member that no batch worker can serve (an ancestor outside
        # the batch, or a batch task with an empty ``workers_of`` column) can
        # never be staffed: free workers only shrink, and a chosen set's
        # tasks were all staffed, so such a member never leaves the set and
        # every matching of it would fail.  Those sets are dropped up front,
        # before any set is built; the subset test stops at the first miss.
        # A batch task may itself be already assigned (its set is then its
        # unassigned ancestors), so it is staffability-tested only when not.
        staffable = {t.id for t in tasks if checker.workers_of(t.id)}
        reachable = staffable | assigned
        task_sets: Dict[int, Set[int]] = {}
        for task in tasks:
            tid = task.id
            ancestors = graph.ancestors(tid) if tid in graph else frozenset()
            if not ancestors <= reachable:
                continue
            if tid in assigned:
                task_sets[tid] = set(ancestors - assigned)
            elif tid in staffable:
                members = set(ancestors - assigned)
                members.add(tid)
                task_sets[tid] = members
        dropped_sets = len(tasks) - len(task_sets)

        free_workers: Set[int] = {w.id for w in workers}
        iterations = 0
        matchings_run = 0

        # Size-ordered candidate structure: a heap of (-size, id) entries
        # replaces the per-iteration full ``sorted(task_sets, ...)`` rescan.
        # Membership only shrinks, so each shrink pushes one fresh entry and
        # stale ones (wrong size, popped set) are discarded lazily on pop.
        # Pops therefore visit live sets largest-first with id tie-breaks —
        # the exact scan order of the rescan, hence identical greedy picks.
        # A set that fails to staff stays failed until its membership
        # shrinks (the worker pool only shrinks), and its entry, consumed by
        # the failing pop, only reappears (via a push) when it does — so
        # Algorithm 1's output is kept without re-matching futile sets.
        order_heap: List[Tuple[int, int]] = [
            (-len(members), sid) for sid, members in task_sets.items()
        ]
        heapq.heapify(order_heap)

        while task_sets:
            iterations += 1
            best_id = None
            best_staffing: Dict[int, int] | None = None
            while order_heap:
                neg_size, set_id = heapq.heappop(order_heap)
                members = task_sets.get(set_id)
                if members is None or len(members) != -neg_size:
                    continue  # stale entry: set was chosen, emptied or shrank
                matchings_run += 1
                staffing = match_task_set(
                    sorted(members),
                    free_workers,
                    checker,
                    instance,
                    self.matching,
                )
                if journal.enabled:
                    journal.emit(
                        "match_set",
                        set=set_id,
                        size=len(members),
                        staffed=staffing is not None,
                    )
                if staffing is None:
                    continue
                best_id = set_id
                best_staffing = staffing
                break
            if best_staffing is None:
                break

            chosen = set(task_sets.pop(best_id))  # type: ignore[arg-type]
            for task_id, worker_id in best_staffing.items():
                assignment.add(worker_id, task_id)
                free_workers.discard(worker_id)
                assigned.add(task_id)
            # Update the remaining sets: drop the just-assigned tasks; a set
            # that changed gets another staffing attempt.
            emptied = []
            for set_id, members in task_sets.items():
                if members & chosen:
                    members -= chosen
                    if not members:
                        emptied.append(set_id)
                    else:
                        heapq.heappush(order_heap, (-len(members), set_id))
            for set_id in emptied:
                del task_sets[set_id]
            if not free_workers:
                break

        return AllocationOutcome(
            assignment,
            stats={
                "iterations": float(iterations),
                "matchings": float(matchings_run),
                "dropped_sets": float(dropped_sets),
            },
        )
