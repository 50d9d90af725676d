"""Allocation algorithms: the paper's approaches, the exact solver, baselines.

* :class:`~repro.algorithms.greedy.DASCGreedy` — Algorithm 1 (associative
  task sets + Hungarian staffing, (1 - 1/e)-approximate per batch);
* :class:`~repro.algorithms.game.DASCGame` — Algorithm 3 (best response on
  the Eq. 3 utilities; strict, thresholded and greedy-initialised variants);
* :class:`~repro.algorithms.dfs.DFSExact` — the exact depth-first search of
  Section V-B, for small instances only;
* :class:`~repro.algorithms.baselines.ClosestBaseline` /
  :class:`~repro.algorithms.baselines.RandomBaseline` — Section V-B
  baselines that ignore dependencies;
* :func:`~repro.algorithms.registry.make_allocator` — the six named
  configurations of the evaluation (``Greedy``, ``Game``, ``Game-5%``,
  ``G-G``, ``Closest``, ``Random``) plus ``DFS``.
"""

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.algorithms.baselines import ClosestBaseline, RandomBaseline
from repro.algorithms.dfs import DFSExact
from repro.algorithms.game import DASCGame
from repro.algorithms.greedy import DASCGreedy
from repro.algorithms.local_search import LocalSearchImprover, improve_assignment
from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.algorithms.utility import GameState

__all__ = [
    "APPROACH_NAMES",
    "AllocationOutcome",
    "BatchAllocator",
    "ClosestBaseline",
    "DASCGame",
    "DASCGreedy",
    "DFSExact",
    "GameState",
    "LocalSearchImprover",
    "RandomBaseline",
    "improve_assignment",
    "make_allocator",
]
