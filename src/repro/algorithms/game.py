"""``DASC_Game`` (Algorithm 3, Section IV): best-response dynamics.

Each worker is a player whose strategies are its feasible tasks; utilities
follow Eq. 3 (see :mod:`repro.algorithms.utility`).  Workers repeatedly move
to their best response until (near-)equilibrium, then the profile is turned
into a valid assignment: contended tasks keep one randomly-chosen worker and
dependency-violating picks are dropped to a fixed point.

Three named configurations from the evaluation:

* ``Game`` — strict termination (a full round with no strategy change);
* ``Game-5%`` — stop once the fraction of workers changing strategy in a
  round drops to 5% or below (the threshold trade-off of Figure 2);
* ``G-G`` — initialise from ``DASC_Greedy`` instead of randomly.

Incremental best response
-------------------------
The best-response loop re-scores only what a move can have raised.  A
worker's candidate utility is a task's hypothetical value over its crowd
plus one, and its incumbent is its own task's value over its crowd.
After :meth:`~repro.algorithms.utility.GameState.set_choice` moves worker
``m`` from task ``old`` to task ``new``, the state reports the values its
indicator flips *raised* and those they *lowered*; each value moves one
way per flip.  Other workers are then marked in three cases:

1. **Rescan** the co-choosers of ``new`` (their crowd grew, and a sole
   chooser loses its withdrawn view) and the choosers of every lowered
   task: their incumbent may have fallen, so every option is re-scored.
2. **Probe** every worker able to choose ``old`` (its crowd shrank) or a
   raised task.  The task is stamped with the move clock, and a probed
   worker is scored only on the options stamped after its last
   evaluation, in options order.
3. **Nothing** for anyone else: a candidate whose utility fell cannot beat
   an incumbent that did not fall.

``m`` itself is left alone: its own move does not change the withdrawn
view it just optimised over.  A probe returns the task and float of a full
rescan: every unstamped option failed to beat ``incumbent + _EPS`` at the
last evaluation, the incumbent has not fallen since, and the floor only
rises during the scan.  Every worker's first evaluation is a full rescan,
so all its options have pay counts, which is where the raised and lowered
reports come from.  So the move sequence, the per-round ``changed`` counts
and the termination round are exactly those of a naive withdraw-and-rescan
loop (kept as the test suite's reference, ``tests/reference.py``).  The
reverse index is the batch view's own columns (``workers_of``).  A scored
worker's argmax is ``GameState.best_response`` (read-only, no
withdraw/re-add), so the value memo is only ever patched by real moves; it
skips the value of every candidate whose upper bound cannot beat the
incumbent, which leaves the argmax bit-identical (see
:mod:`repro.algorithms.utility`).
"""

from __future__ import annotations

import math
import random
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Literal,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.algorithms.base import AllocationOutcome, BatchAllocator
from repro.algorithms.greedy import DASCGreedy
from repro.algorithms.utility import GameState
from repro.core.assignment import Assignment
from repro.core.instance import ProblemInstance
from repro.engine.context import BatchContext
from repro.obs.events import EventJournal, get_journal
from repro.obs.trace import get_tracer

InitMode = Literal["random", "greedy"]

#: Strict-improvement margin: a worker only moves when the candidate beats
#: its current utility by more than this, which (with the exact potential)
#: rules out infinite tie-shuffling.
_EPS = 1e-12


class DASCGame(BatchAllocator):
    """The game-theoretic approach.

    Args:
        threshold: utility-updating-ratio termination threshold in ``[0, 1]``.
            0 demands a strict Nash equilibrium; 0.05 is the paper's
            recommended trade-off (Figure 2).
        alpha: Eq. 3 normalisation parameter (finite, > 1).
        init: ``random`` (Algorithm 3 line 2) or ``greedy`` (the *G-G*
            heuristic: seed the profile with ``DASC_Greedy``'s assignment).
        seed: RNG seed for initialisation and contention tie-breaks.
        max_rounds: hard cap on best-response rounds (indicator flips can in
            principle cycle, so the cap guarantees termination; equilibrium
            is reached far earlier in practice — Lemma IV.1).
        reassign_losers: extension beyond the paper — workers that lose a
            contention tie take a final greedy pass over still-open tasks.
    """

    name = "Game"

    def __init__(
        self,
        threshold: float = 0.0,
        alpha: float = 10.0,
        init: InitMode = "random",
        seed: int = 0,
        max_rounds: int = 200,
        reassign_losers: bool = False,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        if not (math.isfinite(alpha) and alpha > 1.0):
            raise ValueError(f"alpha must be finite and > 1, got {alpha}")
        if init not in ("random", "greedy"):
            raise ValueError(f"unknown init mode {init!r}")
        self.threshold = threshold
        self.alpha = alpha
        self.init = init
        self.seed = seed
        self.max_rounds = max_rounds
        self.reassign_losers = reassign_losers

    # -- main entry ---------------------------------------------------------------------

    def _allocate(self, context: BatchContext) -> AllocationOutcome:
        workers, tasks, instance = context.workers, context.tasks, context.instance
        previously_assigned = context.previously_assigned
        if not workers or not tasks:
            return AllocationOutcome(Assignment())
        rng = random.Random(self.seed)
        checker = context.checker
        strategies: Dict[int, List[int]] = {
            w.id: options for w in workers if (options := checker.tasks_of(w.id))
        }
        if not strategies:
            return AllocationOutcome(Assignment())

        state, rounds, skipped = self._play(strategies, context, rng)
        assignment = self._extract(
            state, previously_assigned, instance, rng, context.journal
        )
        if self.reassign_losers:
            assignment = self._reassign(
                assignment, strategies, checker, instance, previously_assigned
            )
        stats = {
            "rounds": float(rounds),
            "evaluations": float(state.evaluations),
            "value_recomputes": float(state.value_recomputes),
            "cache_hits": float(state.cache_hits),
            "pruned": float(state.pruned),
            "skipped_workers": float(skipped),
        }
        if context.counters is not None:
            context.counters.add_game_work(
                rounds=rounds,
                evaluations=state.evaluations,
                value_recomputes=state.value_recomputes,
                cache_hits=state.cache_hits,
                pruned=state.pruned,
                skipped=skipped,
            )
        return AllocationOutcome(assignment, stats=stats)

    # -- phases --------------------------------------------------------------------------

    def _play(
        self,
        strategies: Dict[int, List[int]],
        context: BatchContext,
        rng: random.Random,
    ) -> Tuple[GameState, int, int]:
        """Initialise a profile and run best response; (state, rounds, skipped)."""
        state = GameState(
            context.instance,
            context.tasks,
            strategies,
            context.previously_assigned,
            alpha=self.alpha,
        )
        self._initialise(state, strategies, context, rng)
        rounds, skipped = self._best_response(
            state, strategies, context.checker.workers_of, context
        )
        return state, rounds, skipped

    def _initialise(
        self,
        state: GameState,
        strategies: Dict[int, List[int]],
        context: BatchContext,
        rng: random.Random,
    ) -> None:
        seeded: Dict[int, int] = {}
        if self.init == "greedy":
            # Sharing the context lets the warm start reuse this batch's
            # feasibility graph instead of rebuilding it.
            outcome = DASCGreedy().allocate(context)
            seeded = {w: t for w, t in outcome.assignment.pairs()}
        for worker_id, options in strategies.items():
            task_id = seeded.get(worker_id)
            # Strategy lists are small and already deduped — a linear probe
            # beats materialising a throwaway set per worker.
            if task_id is None or task_id not in options:
                task_id = rng.choice(options)
            state.set_choice(worker_id, task_id)

    def _best_response(
        self,
        state: GameState,
        strategies: Dict[int, List[int]],
        workers_of: Callable[[int], Sequence[int]],
        context: Optional[BatchContext] = None,
    ) -> Tuple[int, int]:
        """Best-response dynamics that re-score only what a move can raise.

        ``workers_of`` gives the players whose strategy list holds a task
        (the batch view's columns).  Returns (rounds, skipped).
        """
        player_order = sorted(strategies)
        n_players = len(player_order)
        raised = state.raised
        lowered = state.lowered
        choosers = state.choosers
        tracer = context.tracer if context is not None else get_tracer()
        traced = tracer.enabled
        journal = context.journal if context is not None else get_journal()
        # Workers whose incumbent may have fallen: every option is re-scored.
        rescan: Set[int] = set(player_order)
        # Workers some of whose options may have risen since ``seen``.
        probe: Set[int] = set()
        # Move clock; ``seen[w]`` is the clock at ``w``'s last evaluation and
        # ``raised_at[t]`` at the last move that may have raised ``t``.
        clock = 0
        seen: Dict[int, int] = {}
        raised_at: Dict[int, int] = {}
        rounds = 0
        total_skipped = 0
        while rounds < self.max_rounds:
            rounds += 1
            changed = 0
            round_skipped = 0
            round_probed = 0
            with tracer.span("alloc.game.round") as span:
                for worker_id in player_order:
                    if worker_id in rescan:
                        rescan.discard(worker_id)
                        probe.discard(worker_id)
                        current = state.choice[worker_id]
                        options = strategies[worker_id]
                    elif worker_id in probe:
                        probe.discard(worker_id)
                        current = state.choice[worker_id]
                        since = seen[worker_id]
                        options = [
                            task_id
                            for task_id in strategies[worker_id]
                            if raised_at.get(task_id, 0) > since
                            and task_id != current
                        ]
                        if not options:
                            # What a rescan would confirm: nothing rose.
                            seen[worker_id] = clock
                            round_skipped += 1
                            continue
                        round_probed += 1
                    else:
                        round_skipped += 1
                        continue
                    best_task, _ = state.best_response(worker_id, options, _EPS)
                    if best_task == current:
                        seen[worker_id] = clock
                        continue
                    state.set_choice(worker_id, best_task)
                    clock += 1
                    seen[worker_id] = clock
                    changed += 1
                    if journal.enabled:
                        journal.emit(
                            "game_move",
                            round=rounds,
                            worker=worker_id,
                            frm=current,
                            to=best_task,
                        )
                    # A smaller crowd and a raised value can only raise a
                    # candidate: probe those options.
                    raised_at[current] = clock
                    probe.update(workers_of(current))
                    for task_id in raised:
                        raised_at[task_id] = clock
                        probe.update(workers_of(task_id))
                    # A larger crowd and a lowered value lower the incumbent
                    # of their choosers: rescan them.
                    rescan.update(choosers(best_task))
                    for task_id in lowered:
                        rescan.update(choosers(task_id))
                    # The mover's own withdrawn view did not change.
                    rescan.discard(worker_id)
                    probe.discard(worker_id)
                if traced:
                    span.set("round", rounds)
                    span.set("changed", changed)
                    span.set("evaluated", n_players - round_skipped)
                    span.set("probed", round_probed)
                    span.set("skipped", round_skipped)
                if journal.enabled:
                    journal.emit(
                        "game_round",
                        round=rounds,
                        changed=changed,
                        evaluated=n_players - round_skipped,
                        skipped=round_skipped,
                    )
            total_skipped += round_skipped
            if changed == 0 or changed / n_players <= self.threshold:
                break
        return rounds, total_skipped

    def _extract(
        self,
        state: GameState,
        previously_assigned: AbstractSet[int],
        instance: ProblemInstance,
        rng: random.Random,
        journal: Optional[EventJournal] = None,
    ) -> Assignment:
        journal = journal if journal is not None else get_journal()
        assignment = Assignment()
        for task_id in state.chosen_tasks():
            contenders = state.workers_on(task_id)
            winner = contenders[0] if len(contenders) == 1 else rng.choice(contenders)
            assignment.add(winner, task_id)
            if journal.enabled and len(contenders) > 1:
                for worker_id in contenders:
                    if worker_id != winner:
                        journal.emit(
                            "game_withdraw",
                            worker=worker_id,
                            task=task_id,
                            cause="contention",
                        )
        pruned = assignment.prune_dependency_violations(
            instance.dependency_graph, previously_assigned
        )
        if journal.enabled:
            dropped = set(assignment.pairs()) - set(pruned.pairs())
            for worker_id, task_id in sorted(dropped):
                journal.emit(
                    "game_withdraw",
                    worker=worker_id,
                    task=task_id,
                    cause="dependency",
                )
                journal.emit(
                    "reject",
                    worker=worker_id,
                    task=task_id,
                    reason="dependency",
                    phase="alloc",
                )
        return pruned

    def _reassign(
        self,
        assignment: Assignment,
        strategies: Dict[int, List[int]],
        checker,
        instance: ProblemInstance,
        previously_assigned: AbstractSet[int],
    ) -> Assignment:
        """Greedy pass giving contention losers the still-open ready tasks.

        Replays the original restart-scan order exactly, but maintains the
        ``assigned_tasks`` / ``busy`` sets incrementally (they only grow) and
        only rewinds the scan when the added task unlocks a dependent —
        otherwise no earlier idle worker can have gained an option, so the
        rescan would provably re-skip them all.
        """
        graph = instance.dependency_graph
        assigned_tasks: Set[int] = set(assignment.assigned_tasks())
        assigned_tasks.update(previously_assigned)
        busy: Set[int] = set(assignment.assigned_workers())
        order = sorted(strategies)
        index = 0
        while index < len(order):
            worker_id = order[index]
            if worker_id in busy:
                index += 1
                continue
            picked: Optional[int] = None
            for task_id in strategies[worker_id]:
                if task_id in assigned_tasks:
                    continue
                if task_id in graph and not graph.satisfied(task_id, assigned_tasks):
                    continue
                picked = task_id
                break
            if picked is None:
                index += 1
                continue
            assignment.add(worker_id, picked)
            busy.add(worker_id)
            assigned_tasks.add(picked)
            index = 0 if self._unlocks_dependent(graph, picked, assigned_tasks) else index + 1
        return assignment

    @staticmethod
    def _unlocks_dependent(
        graph, task_id: int, assigned_tasks: Set[int]
    ) -> bool:
        """Whether assigning ``task_id`` made some open dependent ready."""
        if task_id not in graph:
            return False
        for dependent in graph.direct_dependents(task_id):
            if dependent not in assigned_tasks and graph.satisfied(
                dependent, assigned_tasks
            ):
                return True
        return False
