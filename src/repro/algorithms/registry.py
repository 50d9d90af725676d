"""Named allocator configurations matching the evaluation (Section V-B)."""

from __future__ import annotations

from typing import List

from repro.algorithms.base import BatchAllocator
from repro.algorithms.baselines import ClosestBaseline, RandomBaseline
from repro.algorithms.dfs import DFSExact
from repro.algorithms.game import DASCGame
from repro.algorithms.greedy import DASCGreedy

#: The six approaches every large-scale figure compares.
APPROACH_NAMES: List[str] = ["Greedy", "Game", "Game-5%", "G-G", "Closest", "Random"]


def make_allocator(name: str, seed: int = 0, alpha: float = 10.0) -> BatchAllocator:
    """Build an allocator by its paper name.

    Args:
        name: one of ``Greedy``, ``Game``, ``Game-5%``, ``G-G``, ``Closest``,
            ``Random``, ``DFS`` (case-insensitive).
        seed: RNG seed for the stochastic approaches.
        alpha: Eq. 3 normalisation parameter for the game variants.

    Raises:
        KeyError: for an unknown name.
    """
    key = name.strip().lower()
    if key == "greedy":
        allocator: BatchAllocator = DASCGreedy()
    elif key == "game":
        allocator = DASCGame(threshold=0.0, alpha=alpha, init="random", seed=seed)
    elif key in {"game-5%", "game-5", "game5"}:
        allocator = DASCGame(threshold=0.05, alpha=alpha, init="random", seed=seed)
        allocator.name = "Game-5%"
        return allocator
    elif key in {"g-g", "gg"}:
        allocator = DASCGame(threshold=0.0, alpha=alpha, init="greedy", seed=seed)
        allocator.name = "G-G"
        return allocator
    elif key == "closest":
        allocator = ClosestBaseline()
    elif key == "random":
        allocator = RandomBaseline(seed=seed)
    elif key == "dfs":
        allocator = DFSExact()
    else:
        raise KeyError(
            f"unknown approach {name!r}; expected one of "
            f"{APPROACH_NAMES + ['DFS']}"
        )
    return allocator
