"""DASC_Game tests."""

import pytest

from repro.algorithms.game import DASCGame
from repro.simulation.platform import run_single_batch


class TestExample1:
    @pytest.mark.parametrize("seed", range(5))
    def test_reaches_optimum_from_random_init(self, example1, seed):
        outcome = run_single_batch(example1, DASCGame(seed=seed))
        assert outcome.score == 3
        assert outcome.assignment.is_valid(example1, now=example1.earliest_start)

    def test_greedy_initialisation(self, example1):
        outcome = run_single_batch(example1, DASCGame(init="greedy", seed=0))
        assert outcome.score == 3

    def test_threshold_variant_still_valid(self, example1):
        outcome = run_single_batch(example1, DASCGame(threshold=0.05, seed=0))
        assert outcome.assignment.is_valid(example1, now=example1.earliest_start)

    def test_converges_and_reports_rounds(self, example1):
        outcome = run_single_batch(example1, DASCGame(seed=1))
        assert 1 <= outcome.stats["rounds"] <= 200


class TestParameters:
    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError, match="threshold"):
            DASCGame(threshold=1.5)

    def test_bad_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds"):
            DASCGame(max_rounds=0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, float("nan"), float("inf")])
    def test_bad_alpha_rejected_at_construction(self, alpha):
        # A run whose batches are all empty never builds a GameState, so
        # the allocator itself must refuse the value.
        with pytest.raises(ValueError, match="alpha"):
            DASCGame(alpha=alpha)

    def test_unknown_init_mode(self):
        with pytest.raises(ValueError, match="unknown init mode 'gready'"):
            DASCGame(init="gready")


class TestEdgeCases:
    def test_empty_inputs(self, example1):
        game = DASCGame()
        assert game.allocate([], example1.tasks, example1, 0.0, frozenset()).score == 0
        assert game.allocate(example1.workers, [], example1, 0.0, frozenset()).score == 0

    def test_no_feasible_pairs(self, example1):
        # Workers with a skill no task requires produce an empty game.
        from repro.core.worker import Worker

        workers = [
            Worker(id=9, location=(0, 0), start=0, wait=10, velocity=1,
                   max_distance=1, skills=frozenset())
        ]
        outcome = DASCGame().allocate(workers, example1.tasks, example1, 0.0, frozenset())
        assert outcome.score == 0

    def test_determinism_per_seed(self, example1):
        a = run_single_batch(example1, DASCGame(seed=5)).assignment
        b = run_single_batch(example1, DASCGame(seed=5)).assignment
        assert a == b

    def test_previously_assigned_counts_for_dependencies(self, example1):
        tasks = [example1.task(2)]
        outcome = DASCGame(seed=0).allocate(
            example1.workers, tasks, example1, 0.0, frozenset({1})
        )
        assert outcome.score == 1

    def test_unsatisfied_dependencies_pruned(self, example1):
        # Only t2 offered and t1 never assigned: equilibrium picks must be
        # dropped at extraction.
        tasks = [example1.task(2)]
        outcome = DASCGame(seed=0).allocate(
            example1.workers, tasks, example1, 0.0, frozenset()
        )
        assert outcome.score == 0


class TestReassignLosers:
    def test_extension_never_reduces_score(self, small_synthetic):
        base = run_single_batch(small_synthetic, DASCGame(seed=3)).score
        extended = run_single_batch(
            small_synthetic, DASCGame(seed=3, reassign_losers=True)
        ).score
        assert extended >= base

    def test_extension_output_is_valid(self, small_synthetic):
        outcome = run_single_batch(
            small_synthetic, DASCGame(seed=3, reassign_losers=True)
        )
        assert outcome.assignment.is_valid(
            small_synthetic, now=small_synthetic.earliest_start
        )


class TestValidityOnRandomInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threshold", [0.0, 0.05])
    def test_valid_on_small_synthetic(self, seed, threshold, small_synthetic):
        outcome = run_single_batch(
            small_synthetic, DASCGame(seed=seed, threshold=threshold)
        )
        assert outcome.assignment.is_valid(
            small_synthetic, now=small_synthetic.earliest_start
        )
