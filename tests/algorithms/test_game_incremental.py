"""Bit-identity of the incremental best-response engine vs the naive loop.

The best-response marking and utility cache must not change a single output:
same assignment pairs, same score, same rounds-to-convergence, for every
game configuration, seed, and wrapper.  Only the work counters may differ —
and those must obey the accounting invariants.
"""

import pytest

from repro.algorithms.game import DASCGame
from repro.algorithms.local_search import LocalSearchImprover
from repro.algorithms.registry import make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.context import BatchContext
from repro.simulation.platform import Platform
from tests.reference import NaiveDASCGame, naive_allocator

#: seed -> instance scale.  Seed 7 at 0.1 is one 500 x 500 batch whose
#: strategy lists hold more than 2048 pairs, the largest game run here.
SCALES = {0: 0.02, 1: 0.02, 2: 0.02, 7: 0.1}
SEEDS = sorted(SCALES)

CONFIGS = {
    "game": dict(threshold=0.0, init="random"),
    "game5": dict(threshold=0.05, init="random"),
    "gg": dict(threshold=0.0, init="greedy"),
    "reassign": dict(threshold=0.0, init="random", reassign_losers=True),
}


def _instance(seed):
    return generate_synthetic(SyntheticConfig(seed=seed).scaled(SCALES[seed]))


def _context(instance):
    return BatchContext.standalone(
        instance.workers, instance.tasks, instance, instance.earliest_start
    )


def _pair(instance, seed, **kwargs):
    """(incremental outcome, naive outcome) on fresh standalone contexts."""
    incremental = DASCGame(seed=seed, **kwargs)
    naive = NaiveDASCGame(seed=seed, **kwargs)
    return (
        incremental.allocate(_context(instance)),
        naive.allocate(_context(instance)),
    )


class ProbeCheckedGame(DASCGame):
    """``DASCGame`` that re-scores every probed worker on all its options.

    A probe scores a worker only on the options raised since its last
    evaluation; each one is checked against ``best_response`` over the
    worker's full options on the same state, for the same task and float.
    """

    probes = 0

    def _best_response(self, state, strategies, workers_of, context=None):
        scan = state.best_response

        def checked(worker_id, options, eps):
            best = scan(worker_id, options, eps)
            full = strategies[worker_id]
            if options is not full:
                self.probes += 1
                assert scan(worker_id, full, eps) == best
            return best

        state.best_response = checked
        return super()._best_response(state, strategies, workers_of, context)


@pytest.mark.parametrize("config", sorted(CONFIGS), ids=sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
class TestSingleBatchBitIdentity:
    def test_same_assignment_and_rounds(self, seed, config):
        instance = _instance(seed)
        fast, slow = _pair(instance, seed, **CONFIGS[config])
        assert sorted(fast.assignment.pairs()) == sorted(slow.assignment.pairs())
        assert fast.assignment.score == slow.assignment.score
        assert fast.stats["rounds"] == slow.stats["rounds"]

    def test_counter_invariants(self, seed, config):
        instance = _instance(seed)
        fast, slow = _pair(instance, seed, **CONFIGS[config])
        # Every evaluation is a memo hit, an actual value walk, or a
        # candidate ruled out by its value bound without a walk.
        assert fast.stats["evaluations"] == (
            fast.stats["cache_hits"]
            + fast.stats["value_recomputes"]
            + fast.stats["pruned"]
        )
        # The naive loop walks the graph for every single evaluation.
        assert slow.stats["cache_hits"] == 0.0
        assert slow.stats["skipped_workers"] == 0.0
        assert slow.stats["evaluations"] == slow.stats["value_recomputes"]
        # The incremental loop never does *more* of either kind of work.
        assert fast.stats["evaluations"] <= slow.stats["evaluations"]
        assert fast.stats["value_recomputes"] < slow.stats["value_recomputes"]

    def test_probe_equals_full_rescan(self, seed, config):
        instance = _instance(seed)
        game = ProbeCheckedGame(seed=seed, **CONFIGS[config])
        checked = game.allocate(_context(instance))
        naive = NaiveDASCGame(seed=seed, **CONFIGS[config]).allocate(
            _context(instance)
        )
        assert sorted(checked.assignment.pairs()) == sorted(naive.assignment.pairs())
        assert checked.stats["rounds"] == naive.stats["rounds"]
        if checked.stats["rounds"] > 1:
            assert game.probes > 0


def test_largest_case_exceeds_2048_strategy_pairs():
    instance = _instance(7)
    checker = _context(instance).checker
    assert sum(len(checker.tasks_of(w.id)) for w in instance.workers) > 2048


class TestLocalSearchWrapper:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plus_ls_output_identical(self, seed):
        instance = _instance(seed)
        fast = LocalSearchImprover(DASCGame(seed=seed))
        slow = LocalSearchImprover(NaiveDASCGame(seed=seed))
        a = fast.allocate(_context(instance)).assignment
        b = slow.allocate(_context(instance)).assignment
        assert sorted(a.pairs()) == sorted(b.pairs())


class TestPlatformBitIdentity:
    @pytest.mark.parametrize("approach", ["Game", "Game-5%", "G-G"])
    def test_full_run_reports_match(self, approach):
        instance = generate_synthetic(SyntheticConfig(seed=5).scaled(0.015))
        reports = []
        for allocator in (
            make_allocator(approach, seed=5),
            naive_allocator(approach, seed=5),
        ):
            platform = Platform(instance, allocator, batch_interval=40.0)
            reports.append(platform.run())
        fast, slow = reports
        assert fast.assignments == slow.assignments
        assert fast.total_score == slow.total_score
        assert fast.expired_tasks == slow.expired_tasks
        assert fast.completion_times == slow.completion_times
        assert [r.score for r in fast.batches] == [r.score for r in slow.batches]

    def test_game_counters_reach_engine_stats(self):
        instance = generate_synthetic(SyntheticConfig(seed=5).scaled(0.015))
        platform = Platform(
            instance, make_allocator("Game", seed=5), batch_interval=40.0
        )
        report = platform.run()
        assert report.engine_stats["engine_game_rounds"] >= 1.0
        assert report.engine_stats["engine_game_evaluations"] > 0.0
        assert report.engine_stats["engine_game_evaluations"] == (
            report.engine_stats["engine_game_cache_hits"]
            + report.engine_stats["engine_game_value_recomputes"]
            + report.engine_stats["engine_game_pruned"]
        )


class TestStatsSurface:
    def test_outcome_stats_keys(self):
        instance = _instance(0)
        outcome = DASCGame(seed=0).allocate(_context(instance))
        assert set(outcome.stats) >= {
            "rounds",
            "evaluations",
            "value_recomputes",
            "cache_hits",
            "pruned",
            "skipped_workers",
        }

    def test_round_span_emitted_when_traced(self):
        from repro.obs import Tracer

        instance = _instance(0)
        tracer = Tracer()
        context = BatchContext.standalone(
            instance.workers, instance.tasks, instance, instance.earliest_start
        )
        context.tracer = tracer
        outcome = DASCGame(seed=0).allocate(context)
        rounds = [s for s in tracer.finished if s.name == "alloc.game.round"]
        assert len(rounds) == int(outcome.stats["rounds"])
        assert rounds[0].attrs is not None
        assert set(rounds[0].attrs) == {
            "round", "changed", "evaluated", "probed", "skipped"
        }
        # First round rescans everyone; later rounds are where probes and
        # skips appear.
        assert rounds[0].attrs["skipped"] == 0
        assert rounds[0].attrs["probed"] == 0
        for span in rounds:
            assert 0 <= span.attrs["probed"] <= span.attrs["evaluated"]
        assert sum(span.attrs["probed"] for span in rounds) > 0
