"""Task-set staffing helpers built on the matching algorithms.

``DASC_Greedy`` repeatedly asks: *can this associative task set be fully
conducted by the currently-free workers, and by which workers?*
:func:`match_task_set` answers it.  One worker covers at most one task of the
set (the exclusive constraint), so the question is a perfect matching on the
task side of the feasible-pair bipartite graph.

Across the batches of a simulation the same task sets are asked about again
and again with barely-changed candidate pools, so allocators may hand in a
:class:`MatchMemo`: when a set's candidate rows are unchanged since the last
solve, the stored solution is replayed instead of re-running the solver.
The memo keys on the *exact* solver input (candidate rows per task), which
is what keeps the warm path bit-identical to cold solves — an approximate
warm start (seeding the solver with the stale matching) could legally land
on a different optimum and break the repo's bit-identity contract.  Costs
need no fingerprinting: batch matching runs on static worker/task records,
so the cost of a (worker, task) pair is a pure function of the ids for the
lifetime of a :class:`~repro.core.instance.ProblemInstance`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

from repro.core.constraints import FeasibleRows
from repro.core.instance import ProblemInstance
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import INFEASIBLE, hungarian
from repro.obs.metrics import REGISTRY

Method = Literal["hungarian", "hopcroft-karp"]

#: Substrate total in the process-wide obs registry: solver runs skipped
#: because a memo replayed the previous solution for identical input.
_WARM = REGISTRY.counter(
    "matching_warm_starts",
    "match_task_set solves replayed from a warm-start memo (solver skipped)",
)


class MatchMemo:
    """Warm-start memo for :func:`match_task_set`.

    One memo belongs to one allocator and implicitly to one problem
    instance: :meth:`bind` clears the entries whenever the instance
    changes, because Hungarian costs are derived from per-instance worker
    and task records.  Entries map ``(method, task_ids)`` to the exact
    candidate rows last solved and the solution found (including *None*
    for "no full staffing"), so repeated failures are replayed too.

    Args:
        maxsize: optional entry bound; None keeps the historic unbounded
            behaviour.  Bounding only changes *which* queries warm-start
            — an evicted entry simply re-solves cold, so results stay
            bit-identical at any size.
        policy: eviction order for bounded memos.  ``"fifo"`` (default)
            evicts by insertion order — old entries belong to task sets
            already staffed or expired; ``"lru"`` refreshes an entry's
            position on every replay, better when a few contested sets are
            re-queried across many batches.
    """

    __slots__ = ("_instance", "_entries", "maxsize", "policy", "evictions", "_lru")

    def __init__(self, maxsize: Optional[int] = None, policy: str = "fifo") -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        if policy not in ("fifo", "lru"):
            raise ValueError(f"policy must be 'fifo' or 'lru', got {policy!r}")
        self.maxsize = maxsize
        self.policy = policy
        self.evictions = 0
        self._lru = policy == "lru"
        self._instance: Optional[ProblemInstance] = None
        self._entries: Dict[tuple, Tuple[tuple, Optional[Dict[int, int]]]] = {}

    def bind(self, instance: ProblemInstance) -> None:
        if self._instance is not instance:
            self._instance = instance
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def _replayed(self, key: tuple) -> None:
        """Bookkeeping after a warm replay: LRU refreshes the entry's age."""
        if self._lru:
            entries = self._entries
            entries[key] = entries.pop(key)

    def _store(self, key: tuple, entry: Tuple[tuple, Optional[Dict[int, int]]]) -> None:
        """Insert an entry, evicting the oldest when at the bound."""
        entries = self._entries
        if self.maxsize is not None and key not in entries and len(entries) >= self.maxsize:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[key] = entry

    def aux_stats(self) -> Dict[str, float]:
        """Size/eviction telemetry (aux-group style: not part of reports)."""
        return {
            "match_memo_entries": float(len(self._entries)),
            "match_memo_evictions": float(self.evictions),
        }


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
    memo: Optional[MatchMemo] = None,
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
        memo: optional warm-start memo; identical repeat queries replay
            the stored solution instead of re-running the solver.

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

    if memo is None:
        return _solve(task_ids, candidates, instance, method)

    memo.bind(instance)
    key = (method, tuple(task_ids))
    fingerprint = tuple(map(tuple, candidates))
    entry = memo._entries.get(key)
    if entry is not None and entry[0] == fingerprint:
        _WARM.value += 1
        memo._replayed(key)
        solution = entry[1]
        return None if solution is None else dict(solution)
    solution = _solve(task_ids, candidates, instance, method)
    memo._store(key, (fingerprint, None if solution is None else dict(solution)))
    return solution


def _solve(
    task_ids: List[int],
    candidates: List[List[int]],
    instance: ProblemInstance,
    method: Method,
) -> Optional[Dict[int, int]]:
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
