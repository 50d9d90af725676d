"""Equilibrium verification tests."""

import pytest

from repro.algorithms.game import DASCGame
from repro.algorithms.utility import GameState
from repro.analysis.equilibrium import best_response_gaps, is_nash_equilibrium

from tests.reference import ExhaustiveChecker


def example_strategies(example1):
    checker = ExhaustiveChecker(example1.workers, example1.tasks)
    return {w.id: checker.tasks_of(w.id) for w in example1.workers}


class TestBestResponseGaps:
    def test_equilibrium_profile_has_zero_gaps(self, example1):
        strategies = example_strategies(example1)
        state = GameState(example1, example1.tasks, strategies, alpha=10.0)
        # the known optimum: w1->t2, w3->t1, w2->t4
        state.set_choice(1, 2)
        state.set_choice(3, 1)
        state.set_choice(2, 4)
        gaps = best_response_gaps(state, strategies)
        assert all(g.gap == pytest.approx(0.0, abs=1e-9) for g in gaps)
        assert is_nash_equilibrium(state, strategies)

    def test_bad_profile_reports_positive_gap(self, example1):
        strategies = example_strategies(example1)
        state = GameState(example1, example1.tasks, strategies, alpha=10.0)
        # w1 camps on t2 while t1 is unassigned -> deviating to t1 pays.
        state.set_choice(1, 2)
        state.set_choice(2, 4)
        state.set_choice(3, 3)  # t3's deps unassigned: worthless
        gaps = {g.worker_id: g for g in best_response_gaps(state, strategies)}
        assert gaps[3].gap > 0.0
        assert not is_nash_equilibrium(state, strategies)

    def test_profile_restored_after_checking(self, example1):
        strategies = example_strategies(example1)
        state = GameState(example1, example1.tasks, strategies, alpha=10.0)
        state.set_choice(1, 2)
        state.set_choice(3, 1)
        before = dict(state.choice)
        best_response_gaps(state, strategies)
        assert state.choice == before

    def test_idle_worker_gap_measured_from_zero(self, example1):
        strategies = example_strategies(example1)
        state = GameState(example1, example1.tasks, strategies, alpha=10.0)
        gaps = {g.worker_id: g for g in best_response_gaps(state, strategies)}
        # everyone idle: any feasible root task is an improvement
        assert gaps[1].current_utility == 0.0
        assert gaps[1].gap > 0.0


class TestGameProducesEquilibria:
    @pytest.mark.parametrize("seed", range(4))
    def test_strict_game_terminates_at_nash(self, example1, seed):
        """The strict (threshold 0) dynamics stop exactly at equilibria."""
        game = DASCGame(seed=seed)
        checker = ExhaustiveChecker(example1.workers, example1.tasks)
        strategies = {
            w.id: checker.tasks_of(w.id)
            for w in example1.workers
            if checker.tasks_of(w.id)
        }
        state = GameState(example1, example1.tasks, strategies, alpha=game.alpha)
        import random

        from repro.engine import BatchContext

        context = BatchContext.standalone(
            example1.workers, example1.tasks, example1, 0.0
        )
        game._initialise(state, strategies, context, random.Random(seed))
        game._best_response(state, strategies)
        assert is_nash_equilibrium(state, strategies)
