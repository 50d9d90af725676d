"""Incremental best-response engine: same equilibrium, a fraction of the work.

One 500-worker / 500-task synthetic batch runs through ``DASC_Game`` and
through the test suite's naive full-rescan loop (``tests/reference.py``:
every worker re-evaluated every round, every utility a fresh
dependency-graph walk).  The assignment, score and round count must match
exactly — the engine's bit-identity contract — while the counters must show
at least a 5x drop in ``task_value`` computations.  The counter assertion is
host-independent (no wall-clock in the pass/fail), so it gates identically
on 1-CPU CI runners and laptops; the wall-time speedup (best of
``WALL_REPEATS`` alternating runs each) is recorded next to it for the
trajectory file.
"""

import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.algorithms.game import DASCGame
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.context import BatchContext
from tests.reference import NaiveDASCGame

#: 500x500 at default density (the acceptance workload).
_SCALE = 0.1
_SEED = 7
_MIN_VALUE_RATIO = 5.0
WALL_REPEATS = 3

GAME_CONFIG = {
    "instance": f"synthetic seed={_SEED} scale={_SCALE} (500x500)",
    "approach": "Game",
    "threshold": 0.0,
    "alpha": 10.0,
    "family": "repro.bench/game/v1",
}


def make_game_instance():
    return generate_synthetic(SyntheticConfig(seed=_SEED).scaled(_SCALE))


def strategy_size(instance) -> int:
    """``sum_w |S_w|`` over participating workers (the per-round naive cost)."""
    context = BatchContext.standalone(
        instance.workers, instance.tasks, instance, instance.earliest_start
    )
    checker = context.checker
    return sum(
        len(checker.tasks_of(w.id))
        for w in instance.workers
        if checker.tasks_of(w.id)
    )


def run_game(instance, game_type=DASCGame, **kwargs):
    """One standalone-batch Game allocation; returns (outcome, wall_ms)."""
    context = BatchContext.standalone(
        instance.workers, instance.tasks, instance, instance.earliest_start
    )
    game = game_type(seed=_SEED, **kwargs)
    started = time.perf_counter()
    outcome = game.allocate(context)
    return outcome, (time.perf_counter() - started) * 1000.0


def test_game_incremental_500(record_bench_json):
    instance = make_game_instance()
    naive_ms = incremental_ms = float("inf")
    for _ in range(WALL_REPEATS):
        slow, wall_ms = run_game(instance, NaiveDASCGame)
        naive_ms = min(naive_ms, wall_ms)
        fast, wall_ms = run_game(instance)
        incremental_ms = min(incremental_ms, wall_ms)

    # Bit-identity first: the speedup is worthless if the answer moved.
    assert sorted(fast.assignment.pairs()) == sorted(slow.assignment.pairs())
    assert fast.assignment.score == slow.assignment.score
    assert fast.stats["rounds"] == slow.stats["rounds"]

    # The naive loop's work is exactly rounds x sum_w |S_w| — pinning this
    # keeps the derived-baseline formula in check_perf_gate.py honest.
    assert slow.stats["evaluations"] == slow.stats["rounds"] * strategy_size(instance)
    assert slow.stats["value_recomputes"] == slow.stats["evaluations"]
    # Every incremental evaluation is a memo hit, a value walk, or a
    # candidate pruned by its value bound.
    assert fast.stats["evaluations"] == (
        fast.stats["cache_hits"]
        + fast.stats["value_recomputes"]
        + fast.stats["pruned"]
    )

    value_ratio = slow.stats["value_recomputes"] / max(
        fast.stats["value_recomputes"], 1.0
    )
    eval_ratio = slow.stats["evaluations"] / max(fast.stats["evaluations"], 1.0)
    # The same quantity from the derived naive cost, under the name the
    # ``game_eval_gate`` entry records it by.
    evaluations_ratio = (
        fast.stats["rounds"] * strategy_size(instance)
    ) / max(fast.stats["evaluations"], 1.0)
    hit_rate = fast.stats["cache_hits"] / max(fast.stats["evaluations"], 1.0)
    wall_speedup = naive_ms / incremental_ms if incremental_ms > 0.0 else 0.0

    record_bench_json(
        "game_incremental_500",
        GAME_CONFIG,
        incremental_ms,
        {
            "rounds": fast.stats["rounds"],
            "evaluations": fast.stats["evaluations"],
            "value_recomputes": fast.stats["value_recomputes"],
            "cache_hits": fast.stats["cache_hits"],
            "pruned": fast.stats["pruned"],
            "cache_hit_rate": round(hit_rate, 4),
            "skipped_workers": fast.stats["skipped_workers"],
            "naive_evaluations": slow.stats["evaluations"],
            "naive_wall_ms": round(naive_ms, 3),
            "eval_ratio": round(eval_ratio, 3),
            "evaluations_ratio": round(evaluations_ratio, 3),
            "value_ratio": round(value_ratio, 3),
            "wall_speedup": round(wall_speedup, 3),
        },
    )

    # The acceptance bar: >=5x fewer task_value computations, measured by
    # counters so the verdict is independent of host CPU count or load.
    assert value_ratio >= _MIN_VALUE_RATIO, (
        f"expected >={_MIN_VALUE_RATIO}x fewer task_value computations, got "
        f"{value_ratio:.2f}x ({slow.stats['value_recomputes']:.0f} naive vs "
        f"{fast.stats['value_recomputes']:.0f} incremental)"
    )


def test_game_variants_bit_identical_at_bench_scale():
    """Game-5% and G-G configs on the same 500x500 batch, both loops."""
    instance = make_game_instance()
    for kwargs in (
        dict(threshold=0.05, init="random"),
        dict(threshold=0.0, init="greedy"),
    ):
        slow, _ = run_game(instance, NaiveDASCGame, **kwargs)
        fast, _ = run_game(instance, **kwargs)
        assert sorted(fast.assignment.pairs()) == sorted(slow.assignment.pairs())
        assert fast.stats["rounds"] == slow.stats["rounds"]
        assert fast.stats["value_recomputes"] < slow.stats["value_recomputes"]
