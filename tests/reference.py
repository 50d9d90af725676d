"""Test-only reference paths for the feasibility pipeline and the game.

The library picks its feasibility path from inputs it can see (the metric
and whether numpy imports) and runs one best-response loop; these helpers
let tests pin the other paths against it without a switch in the library:

* :class:`ScalarEuclidean` / :class:`ScalarManhattan` — planar metrics that
  advertise no kernel code, so every build over them takes the scalar
  per-pair path;
* :class:`RebuildEngine` — the engine-off reference: a fresh
  :class:`~repro.core.constraints.FeasibilityChecker` per batch.  Platforms
  run inside :func:`without_engine` use it in place of the incremental
  engine;
* :func:`use_fallback_kernels` — select the columnar path but run its
  pure-python backend, as a host without numpy would if it took the
  kernels;
* :class:`ReferenceGameState` / :class:`NaiveDASCGame` — the original
  walk-everything game state and the withdraw-and-rescan best-response loop
  over it, the oracle for :class:`~repro.algorithms.utility.GameState` and
  the baseline of the game benchmark.
"""

from __future__ import annotations

import contextlib
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence

import pytest

from repro.algorithms.game import _EPS, DASCGame
from repro.algorithms.registry import make_allocator
from repro.algorithms.utility import harmonic
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.engine.context import BatchContext
from repro.simulation import platform as platform_module
from repro.spatial.distance import EuclideanDistance, ManhattanDistance


class ScalarEuclidean(EuclideanDistance):
    """Euclidean distance that never selects the columnar kernels."""

    columnar_code = None


class ScalarManhattan(ManhattanDistance):
    """Manhattan distance that never selects the columnar kernels."""

    columnar_code = None


class RebuildEngine:
    """Engine stand-in that rebuilds feasibility from scratch every batch."""

    def __init__(self, instance, *, tracer=None, registry=None, journal=None):
        self.instance = instance
        self.tracer = tracer
        self.registry = registry
        self.journal = journal

    def begin_batch(self, workers, tasks, now, previously_assigned=frozenset()):
        return BatchContext.standalone(
            workers, tasks, self.instance, now, previously_assigned,
            tracer=self.tracer, journal=self.journal,
        )

    def stats(self):
        return {}


@contextlib.contextmanager
def without_engine():
    """Platforms run inside the block rebuild feasibility every batch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(platform_module, "AllocationEngine", RebuildEngine)
        yield


def use_fallback_kernels(monkeypatch) -> None:
    """Keep the columnar path selected but run it on the pure-python backend."""
    import repro.columnar.kernels as kernels

    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(kernels, "numpy_available", lambda: True)


class ReferenceGameState:
    """The original walk-everything game state, kept verbatim as an oracle.

    Every query recomputes from the dependency graph; nothing is cached and
    nothing is maintained incrementally.  The randomized property suite
    pins :class:`~repro.algorithms.utility.GameState` against this class
    float-for-float, and :class:`NaiveDASCGame` runs its best-response loop
    on it.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        tasks: Sequence[Task],
        players: Iterable[int],
        previously_assigned: AbstractSet[int] = frozenset(),
        alpha: float = 10.0,
    ) -> None:
        if alpha <= 1.0:
            raise ValueError(f"alpha must be > 1, got {alpha}")
        self.alpha = alpha
        self.graph = instance.dependency_graph
        self.batch_task_ids = {t.id for t in tasks}
        self.prev = frozenset(previously_assigned)
        self.choice: Dict[int, Optional[int]] = {w: None for w in players}
        self.nw: Dict[int, int] = {}
        self.evaluations = 0
        self.value_recomputes = 0
        self.cache_hits = 0  # always 0: there is no cache to hit

    def set_choice(self, worker_id: int, task_id: Optional[int]) -> None:
        """Move ``worker_id`` to ``task_id`` (None = withdraw)."""
        old = self.choice[worker_id]
        if old == task_id:
            return
        if old is not None:
            remaining = self.nw[old] - 1
            if remaining:
                self.nw[old] = remaining
            else:
                del self.nw[old]
        if task_id is not None:
            self.nw[task_id] = self.nw.get(task_id, 0) + 1
        self.choice[worker_id] = task_id

    def assigned(self, task_id: int) -> bool:
        return self.nw.get(task_id, 0) > 0 or task_id in self.prev

    def deps_satisfied(self, task_id: int, extra: Optional[int] = None) -> bool:
        return all(
            f == extra or self.assigned(f)
            for f in self.graph.direct_dependencies(task_id)
        )

    def fully_realised(self, task_id: int, extra: Optional[int] = None) -> bool:
        if not (task_id == extra or self.assigned(task_id)):
            return False
        return self.deps_satisfied(task_id, extra)

    def task_value(self, task_id: int, extra: Optional[int] = None) -> float:
        self.value_recomputes += 1
        deps = self.graph.direct_dependencies(task_id)
        if deps:
            value = (self.alpha - 1.0) / self.alpha if self.deps_satisfied(task_id, extra) else 0.0
        else:
            value = 1.0
        for dependent in self.graph.direct_dependents(task_id):
            d_size = len(self.graph.direct_dependencies(dependent))
            if self.fully_realised(dependent, extra):
                value += 1.0 / (self.alpha * d_size)
        return value

    def utility_of_choice(self, worker_id: int, task_id: int) -> float:
        if self.choice[worker_id] is not None:
            raise ValueError(
                f"worker {worker_id} must be withdrawn before evaluating candidates"
            )
        self.evaluations += 1
        crowd = self.nw.get(task_id, 0) + 1
        return self.task_value(task_id, extra=task_id) / crowd

    def utility(self, worker_id: int) -> float:
        task_id = self.choice[worker_id]
        if task_id is None:
            return 0.0
        return self.task_value(task_id) / self.nw[task_id]

    def total_utility(self) -> float:
        return sum(self.utility(w) for w in self.choice)

    def potential(self) -> float:
        return sum(
            self.task_value(tid) * harmonic(count) for tid, count in self.nw.items()
        )

    def potential_paper(self) -> float:
        return -sum(
            1.0 / (count + 1) if self.fully_realised(tid) else 0.0
            for tid, count in self.nw.items()
        )

    def chosen_tasks(self) -> List[int]:
        return sorted(self.nw)

    def workers_on(self, task_id: int) -> List[int]:
        return sorted(w for w, t in self.choice.items() if t == task_id)


class NaiveDASCGame(DASCGame):
    """``DASC_Game`` with the original full-rescan best-response loop.

    Every worker is withdrawn and re-evaluated every round, and every
    candidate utility is a fresh graph walk over :class:`ReferenceGameState`.
    Assignments, scores and rounds must equal :class:`DASCGame`'s bit for
    bit; only the work counters differ (``cache_hits`` and
    ``skipped_workers`` are always 0).
    """

    def _play(self, strategies, context, rng):
        state = ReferenceGameState(
            context.instance,
            context.tasks,
            strategies,
            context.previously_assigned,
            alpha=self.alpha,
        )
        self._initialise(state, strategies, context, rng)
        return state, self._best_response_naive(state, strategies, context), 0

    def _best_response_naive(self, state, strategies, context) -> int:
        journal = context.journal
        player_order = sorted(strategies)
        n_players = len(player_order)
        rounds = 0
        while rounds < self.max_rounds:
            rounds += 1
            changed = 0
            for worker_id in player_order:
                current = state.choice[worker_id]
                state.set_choice(worker_id, None)
                best_task = current
                best_utility = (
                    state.utility_of_choice(worker_id, current) if current is not None else 0.0
                )
                for candidate in strategies[worker_id]:
                    if candidate == current:
                        continue
                    utility = state.utility_of_choice(worker_id, candidate)
                    if utility > best_utility + _EPS:
                        best_utility = utility
                        best_task = candidate
                state.set_choice(worker_id, best_task)
                if best_task != current:
                    changed += 1
                    if journal.enabled:
                        journal.emit(
                            "game_move",
                            round=rounds,
                            worker=worker_id,
                            frm=current,
                            to=best_task,
                        )
            if journal.enabled:
                journal.emit(
                    "game_round",
                    round=rounds,
                    changed=changed,
                    evaluated=n_players,
                    skipped=0,
                )
            if changed == 0 or changed / n_players <= self.threshold:
                break
        return rounds


def naive_allocator(name: str, seed: int = 0) -> NaiveDASCGame:
    """The named game configuration of :func:`make_allocator`, naive loop."""
    game = make_allocator(name, seed=seed)
    naive = NaiveDASCGame(
        threshold=game.threshold,
        alpha=game.alpha,
        init=game.init,
        seed=game.seed,
        max_rounds=game.max_rounds,
        reassign_losers=game.reassign_losers,
    )
    naive.name = game.name
    return naive
