"""Minimum-cost bipartite assignment (Kuhn-Munkres with potentials).

This is the classic O(n^2 * m) shortest-augmenting-path formulation (rows are
assigned one by one, maintaining dual potentials), written for rectangular
matrices with ``rows <= cols``.  Infeasible edges carry the sentinel
:data:`INFEASIBLE`; a row matched through a sentinel edge is reported as
unassigned, so the function doubles as a feasibility test.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.obs.metrics import REGISTRY

#: Cost marking a forbidden row/column pair.
INFEASIBLE = math.inf

#: Substrate total in the process-wide obs registry: every row insertion is
#: one shortest-augmenting-path computation.
_PATHS = REGISTRY.counter(
    "matching_hungarian_augmenting_paths",
    "Hungarian shortest augmenting paths computed (one per matrix row)",
)
#: Shared across matching backends (Hopcroft-Karp registers the same name):
#: total augment rounds.
_ROUNDS = REGISTRY.counter(
    "matching_augment_rounds",
    "Matching augment rounds across backends (HK BFS phases + Hungarian rows)",
)


def hungarian(cost: Sequence[Sequence[float]]) -> Tuple[List[Optional[int]], float]:
    """Solve the rectangular assignment problem.

    Args:
        cost: a ``rows x cols`` matrix with ``rows <= cols``; use
            :data:`INFEASIBLE` for forbidden pairs.  Finite costs may be
            negative.

    Returns:
        ``(assignment, total)`` where ``assignment[i]`` is the column matched
        to row ``i`` (or None when row ``i`` cannot be feasibly matched) and
        ``total`` is the summed cost of the matched pairs.

    The algorithm always produces a *maximum-cardinality* matching among
    minimum-cost ones: sentinel edges are so expensive that any solution
    avoids them whenever a feasible alternative exists.

    Raises:
        ValueError: on an empty/ragged matrix or ``rows > cols``.
    """
    n = len(cost)
    if n == 0:
        return [], 0.0
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise ValueError("cost matrix is ragged")
    if m == 0 or n > m:
        raise ValueError(f"need rows <= cols with cols > 0, got {n}x{m}")

    # Replace inf with a big-M value so potentials stay finite.  M dominates
    # any sum of real costs, keeping sentinel edges out of optimal solutions
    # unless unavoidable.
    finite = [abs(c) for row in cost for c in row if c != INFEASIBLE]
    big = (max(finite) if finite else 1.0) * (n + 1) + 1.0
    a = [[big if c == INFEASIBLE else float(c) for c in row] for row in cost]

    _PATHS.value += n
    _ROUNDS.value += n

    # Potentials and matching arrays use 1-based internal indexing (the
    # classic formulation); p[0] tracks the row being inserted.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    way = [0] * (m + 1)
    match_col = [0] * (m + 1)  # match_col[j] = row matched to column j (1-based)

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = math.inf
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(0, m + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    assignment: List[Optional[int]] = [None] * n
    total = 0.0
    for j in range(1, m + 1):
        i = match_col[j]
        if i == 0:
            continue
        if cost[i - 1][j - 1] == INFEASIBLE:
            continue  # matched through a sentinel: report row unassigned
        assignment[i - 1] = j - 1
        total += cost[i - 1][j - 1]
    return assignment, total
