"""Task-set staffing helpers built on the matching algorithms.

``DASC_Greedy`` repeatedly asks: *can this associative task set be fully
conducted by the currently-free workers, and by which workers?*
:func:`match_task_set` answers it.  One worker covers at most one task of the
set (the exclusive constraint), so the question is a perfect matching on the
task side of the feasible-pair bipartite graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Literal, Optional, Sequence

from repro.core.constraints import FeasibleRows
from repro.core.instance import ProblemInstance
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import INFEASIBLE, hungarian

Method = Literal["hungarian", "hopcroft-karp"]


def max_bipartite_matching(
    left_ids: Sequence[int], neighbours: Dict[int, Sequence[int]]
) -> Dict[int, int]:
    """Maximum matching between ``left_ids`` and their neighbour ids.

    A thin convenience wrapper over Hopcroft-Karp that works directly with
    application-level ids on both sides.
    """
    index_of = {lid: i for i, lid in enumerate(left_ids)}
    adjacency = {index_of[lid]: list(neighbours.get(lid, ())) for lid in left_ids}
    left_to_right, _ = hopcroft_karp(adjacency, len(left_ids))
    return {left_ids[i]: right for i, right in left_to_right.items()}


def match_task_set(
    task_ids: Sequence[int],
    free_workers: Iterable[int],
    checker: FeasibleRows,
    instance: ProblemInstance,
    method: Method = "hungarian",
) -> Optional[Dict[int, int]]:
    """Staff every task in ``task_ids`` with a distinct free worker.

    Args:
        task_ids: the (unassigned part of an) associative task set.
        free_workers: ids of workers still available in this batch.
        checker: feasible-pair oracle for the batch.
        instance: used for travel-distance costs under ``hungarian``.
        method: ``hungarian`` (paper's choice; also minimises total travel
            distance among full staffings) or ``hopcroft-karp``
            (cardinality only, faster).

    Returns:
        ``{task_id: worker_id}`` covering *all* tasks, or None when no full
        staffing exists.  An empty task set staffs trivially as ``{}``.
    """
    task_ids = list(task_ids)
    if not task_ids:
        return {}
    free = set(free_workers)
    candidates: List[List[int]] = [
        [wid for wid in checker.workers_of(tid) if wid in free] for tid in task_ids
    ]
    if any(not workers for workers in candidates):
        return None

    if method == "hopcroft-karp":
        adjacency = {i: candidates[i] for i in range(len(task_ids))}
        left_to_right, _ = hopcroft_karp(adjacency, len(task_ids))
        if len(left_to_right) != len(task_ids):
            return None
        return {task_ids[i]: wid for i, wid in left_to_right.items()}

    if method != "hungarian":
        raise ValueError(f"unknown matching method {method!r}")

    columns = sorted({wid for workers in candidates for wid in workers})
    if len(columns) < len(task_ids):
        return None
    col_of = {wid: j for j, wid in enumerate(columns)}
    cost = [[INFEASIBLE] * len(columns) for _ in task_ids]
    for i, tid in enumerate(task_ids):
        task = instance.task(tid)
        for wid in candidates[i]:
            worker = instance.worker(wid)
            cost[i][col_of[wid]] = instance.metric(worker.location, task.location)
    assignment, _ = hungarian(cost)
    if any(col is None for col in assignment):
        return None
    return {task_ids[i]: columns[col] for i, col in enumerate(assignment)}  # type: ignore[index]
