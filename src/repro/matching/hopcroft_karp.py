"""Hopcroft-Karp maximum-cardinality bipartite matching, O(E * sqrt(V)).

Left vertices are ``0..n_left-1``; adjacency maps each left vertex to its
right-side neighbours (arbitrary hashable right ids are fine — they are
remapped internally).

The layered DFS uses an explicit stack (augmenting paths on 100k-row
matchings are longer than CPython's recursion limit), and callers that
solve a *sequence* of similar problems can pass the previous solution via
``initial=`` — valid pairs are pre-matched and only the delta is repaired
with augmenting paths, which costs fewer BFS phases than solving from
scratch.  Stale seed entries (vertices gone, edges pruned, conflicts) are
silently skipped, so callers may hand over the previous matching verbatim.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.obs.metrics import REGISTRY

R = TypeVar("R", bound=Hashable)

_INF = float("inf")

#: Substrate totals in the process-wide obs registry: how many BFS phases
#: and successful augmenting paths the solver has run, across all calls.
_PHASES = REGISTRY.counter(
    "matching_hk_bfs_phases", "Hopcroft-Karp BFS phases executed"
)
_PATHS = REGISTRY.counter(
    "matching_hk_augmenting_paths", "Hopcroft-Karp augmenting paths applied"
)
#: Shared across matching backends (Hungarian registers the same name):
#: total augment rounds.
_ROUNDS = REGISTRY.counter(
    "matching_augment_rounds",
    "Matching augment rounds across backends (HK BFS phases + Hungarian rows)",
)


def hopcroft_karp(
    adjacency: Mapping[int, Sequence[R]],
    n_left: int,
    initial: Optional[Mapping[int, R]] = None,
) -> Tuple[Dict[int, R], Dict[R, int]]:
    """Compute a maximum matching.

    Args:
        adjacency: for each left vertex id in ``0..n_left-1``, the right
            vertices it may match (missing keys mean no edges).
        n_left: number of left vertices.
        initial: an optional warm-start matching (``left -> right``), e.g.
            the previous solution of a slowly-changing problem.  Entries
            that are invalid *now* — left out of range, right unknown,
            edge absent, either side already taken — are skipped; the
            survivors are pre-matched and repaired to maximality.  The
            result is always a maximum matching, though with a seed it may
            be a *different* maximum matching than the cold solve finds.

    Returns:
        ``(left_to_right, right_to_left)`` dictionaries describing one
        maximum matching.
    """
    rights: List[R] = []
    right_index: Dict[R, int] = {}
    adj: List[List[int]] = [[] for _ in range(n_left)]
    for left in range(n_left):
        for right in adjacency.get(left, ()):  # type: ignore[call-overload]
            idx = right_index.get(right)
            if idx is None:
                idx = len(rights)
                right_index[right] = idx
                rights.append(right)
            adj[left].append(idx)

    match_l: List[int] = [-1] * n_left
    match_r: List[int] = [-1] * len(rights)
    dist: List[float] = [0.0] * n_left

    if initial:
        for left, right in initial.items():
            if not 0 <= left < n_left or match_l[left] != -1:
                continue
            idx = right_index.get(right)
            if idx is None or match_r[idx] != -1 or idx not in adj[left]:
                continue
            match_l[left] = idx
            match_r[idx] = left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for left in range(n_left):
            if match_l[left] == -1:
                dist[left] = 0.0
                queue.append(left)
            else:
                dist[left] = _INF
        reachable_free = False
        while queue:
            left = queue.popleft()
            for right in adj[left]:
                nxt = match_r[right]
                if nxt == -1:
                    reachable_free = True
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[left] + 1.0
                    queue.append(nxt)
        return reachable_free

    def dfs(root: int) -> bool:
        # Explicit-stack layered DFS: frames[i] is a left vertex, pos[i]
        # its next edge index, chosen[i] the right taken to reach
        # frames[i + 1].  Same traversal order as the recursive form, so
        # cold results are unchanged.
        frames = [root]
        pos = [0]
        chosen: List[int] = []
        while frames:
            left = frames[-1]
            edges = adj[left]
            i = pos[-1]
            descended = False
            while i < len(edges):
                right = edges[i]
                i += 1
                nxt = match_r[right]
                if nxt == -1:
                    chosen.append(right)
                    for lvert, rvert in zip(frames, chosen):
                        match_l[lvert] = rvert
                        match_r[rvert] = lvert
                    return True
                if dist[nxt] == dist[left] + 1.0:
                    pos[-1] = i
                    chosen.append(right)
                    frames.append(nxt)
                    pos.append(0)
                    descended = True
                    break
            if descended:
                continue
            dist[left] = _INF
            frames.pop()
            pos.pop()
            if chosen:
                chosen.pop()
        return False

    phases = 0
    augmented = 0
    while bfs():
        phases += 1
        for left in range(n_left):
            if match_l[left] == -1 and dfs(left):
                augmented += 1
    _PHASES.value += phases
    _PATHS.value += augmented
    _ROUNDS.value += phases

    left_to_right = {
        left: rights[match_l[left]] for left in range(n_left) if match_l[left] != -1
    }
    right_to_left = {rights[r]: left for r, left in enumerate(match_r) if left != -1}
    return left_to_right, right_to_left
