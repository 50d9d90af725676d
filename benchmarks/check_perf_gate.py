#!/usr/bin/env python
"""Perf-regression gate over the engine micro-benchmark.

Three checks, one exit code (check 2, the road-network settled-node
ratio, went with the contraction hierarchy; check 4, the columnar
pair-eval ratio, with the columnar kernels; check 5, the shard scale-out
gate, with partitioned sharding; check 7, the warm-matching gate, with the
match memo; the other numbers are kept so references to them stay valid):

1. **Wall-clock gate** — reruns the feasibility-dominated platform workload
   behind ``bench_micro_substrates.test_micro_platform_engine`` and
   compares its host-normalised time against the committed
   ``micro_platform_engine`` entry in ``results/BENCH_engine.json``.  Each
   round is bracketed by ``perfbench/reference.py``'s reference workload
   and divided by the host slowness it measured (1.0 = nominal), so a busy
   host does not read as a slower program; the best of a few rounds is
   kept.  A run more than 25% slower than the committed baseline fails the
   gate; the fresh measurement is re-recorded either way so the trajectory
   file always carries the latest number.
3. **Game evaluation-ratio gate** — runs the incremental best-response
   engine once on the 500x500 ``bench_game`` workload and derives the naive
   loop's cost exactly (``rounds x sum_w |S_w|`` — the identity
   ``bench_game`` pins) without running it.  The ratio of derived-naive
   ``task_value`` computations to the engine's measured
   ``value_recomputes`` counter (values that walked a task's dependents)
   must stay >= 5x.  The derived-naive count over the ``evaluations``
   counter (candidates scored at all, which the best-response marking
   cuts) is recorded beside it as ``evaluations_ratio``, ungated.  Being
   pure counter arithmetic, this check is
   deterministic on 1-CPU hosts: a regression in the best-response marking or
   the value memo fails CI regardless of machine speed or load.  The
   incremental game's wall time (best of ``bench_game.WALL_REPEATS`` runs)
   is printed on the same line and recorded in the ``game_eval_gate``
   entry, next to the ratio it stands for.
6. **Events-disabled overhead gate** — reruns the same platform workload
   with an explicitly *disabled* ``EventJournal`` threaded through the
   platform/engine/allocator hot paths, asserts the journal records
   nothing and the report is bit-identical to the journal-free run, and
   holds the wall-clock to ``--threshold`` times the journal-free run of
   the same workload, measured A/B in this process (alternating rounds,
   best of ``--rounds`` each side).  This pins the flight recorder's
   zero-cost-when-off contract: the ``if journal.enabled`` guards must
   never grow real work on the disabled path.

Exit codes: 0 all pass (or no baseline yet for the wall gate), 1 any fail.

Usage::

    PYTHONPATH=src python benchmarks/check_perf_gate.py [--threshold 1.25]
        [--min-eval-ratio 5.0]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE))  # conftest + bench modules
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

from bench_micro_substrates import (  # noqa: E402
    _FEASIBILITY_CONFIG,
    _platform_report,
    make_feasibility_instance,
    normalised_platform_run,
    record_platform_entry,
)
from conftest import BENCH_JSON, BENCH_SCHEMA, record_bench_entry  # noqa: E402

ENTRY = "micro_platform_engine"
GAME_ENTRY = "game_eval_gate"
EVENTS_ENTRY = "events_disabled_gate"
ROUNDS = 3
MIN_EVAL_RATIO = 5.0


def _committed_baseline() -> float | None:
    if not BENCH_JSON.exists():
        return None
    data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    if data.get("schema") != BENCH_SCHEMA:
        return None
    for entry in data.get("entries", []):
        # A raw wall-clock entry is no baseline for a normalised time.
        if entry["name"] == ENTRY and entry["config"].get("wall") == "host-normalised":
            return float(entry["wall_ms"])
    return None


def check_game_eval_ratio(min_ratio: float) -> bool:
    """Counter-only gate on the incremental game engine's savings."""
    from bench_game import (
        GAME_CONFIG,
        WALL_REPEATS,
        make_game_instance,
        run_game,
        strategy_size,
    )

    instance = make_game_instance()
    outcome, wall_ms = run_game(instance)
    # Best of the same number of runs as ``game_incremental_500``, so the
    # two entries record comparable wall times.
    for _ in range(WALL_REPEATS - 1):
        wall_ms = min(wall_ms, run_game(instance)[1])
    # The naive loop evaluates (and walks the graph for) every strategy of
    # every worker each round — derived exactly, no need to run it.
    naive_evals = outcome.stats["rounds"] * strategy_size(instance)
    recomputes = max(outcome.stats["value_recomputes"], 1.0)
    ratio = naive_evals / recomputes
    # Candidates scored at all: what the best-response marking saves.
    evaluations_ratio = naive_evals / max(outcome.stats["evaluations"], 1.0)
    record_bench_entry(
        GAME_ENTRY,
        dict(GAME_CONFIG, min_eval_ratio=min_ratio),
        wall_ms,
        {
            "rounds": outcome.stats["rounds"],
            "evaluations": outcome.stats["evaluations"],
            "value_recomputes": outcome.stats["value_recomputes"],
            "cache_hits": outcome.stats["cache_hits"],
            "skipped_workers": outcome.stats["skipped_workers"],
            "derived_naive_evaluations": naive_evals,
            "eval_ratio": round(ratio, 3),
            "evaluations_ratio": round(evaluations_ratio, 3),
        },
    )
    ok = ratio >= min_ratio
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: game eval ratio {ratio:.2f}x "
        f"({naive_evals:.0f} derived-naive task values vs "
        f"{outcome.stats['value_recomputes']:.0f} computed; floor x{min_ratio}); "
        f"evaluations ratio {evaluations_ratio:.2f}x "
        f"({outcome.stats['evaluations']:.0f} candidates scored); "
        f"incremental game {wall_ms:.1f} ms wall (best of {WALL_REPEATS})"
    )
    return ok


def check_events_disabled_overhead(
    instance, baseline_report, threshold: float, rounds: int
) -> bool:
    """The disabled flight recorder must cost nothing measurable.

    Runs the check-1 workload with an explicit ``EventJournal(enabled=False)``
    wired through the platform, A/B against the journal-free run of the
    same workload in this process: rounds alternate which side runs first
    and each side keeps its best round.  The journal must stay empty, the
    report must be bit-identical to the journal-free baseline run, and the
    disabled run's best wall-clock must stay within ``threshold`` times the
    journal-free best.  Both sides see the same host load, so the gate
    measures the code rather than the machine.
    """
    from repro.algorithms.baselines import ClosestBaseline
    from repro.obs.events import EventJournal
    from repro.simulation.platform import Platform

    journal = EventJournal(enabled=False)

    def disabled_run(instance):
        return Platform(
            instance,
            ClosestBaseline(),
            batch_interval=1.0,
            journal=journal,
        ).run()

    best = {"plain": float("inf"), "disabled": float("inf")}
    report = None
    for round_index in range(max(1, rounds)):
        sides = [("plain", _platform_report), ("disabled", disabled_run)]
        if round_index % 2:
            sides.reverse()
        for side, run in sides:
            started = time.perf_counter()
            candidate = run(instance)
            wall_ms = (time.perf_counter() - started) * 1000.0
            if wall_ms < best[side]:
                best[side] = wall_ms
                if side == "disabled":
                    report = candidate

    if len(journal) != 0:
        print(f"FAIL: disabled journal recorded {len(journal)} events")
        return False
    identical = (
        report.assignments == baseline_report.assignments
        and report.completion_times == baseline_report.completion_times
        and report.expired_tasks == baseline_report.expired_tasks
        and report.engine_stats == baseline_report.engine_stats
        and [b.score for b in report.batches]
        == [b.score for b in baseline_report.batches]
    )
    if not identical:
        print("FAIL: disabled-journal report diverges from the plain run")
        return False

    record_bench_entry(
        EVENTS_ENTRY,
        dict(_FEASIBILITY_CONFIG, journal="disabled"),
        best["disabled"],
        {"events_recorded": 0.0, "plain_wall_ms": best["plain"]},
    )
    limit_ms = best["plain"] * threshold
    ok = best["disabled"] <= limit_ms
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: events-disabled run {best['disabled']:.1f} ms vs "
        f"journal-free {best['plain']:.1f} ms in the same process "
        f"(limit {limit_ms:.1f} ms = x{threshold})"
    )
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when check 1's host-normalised ms exceed baseline * THRESHOLD "
        "(default 1.25); "
        "check 6's baseline is the journal-free run of the same process",
    )
    parser.add_argument(
        "--rounds", type=int, default=ROUNDS, help="measurement rounds (best wins)"
    )
    parser.add_argument(
        "--min-eval-ratio",
        type=float,
        default=MIN_EVAL_RATIO,
        help="fail when the game engine computes more than naive/THIS task "
        f"values (default {MIN_EVAL_RATIO}; deterministic, no wall-clock)",
    )
    args = parser.parse_args(argv)

    baseline_ms = _committed_baseline()
    instance = make_feasibility_instance()

    best = None
    for round_index in range(max(1, args.rounds)):
        run = normalised_platform_run(instance)
        _, wall_ms, normalised_ms = run
        print(
            f"round {round_index + 1}: {wall_ms:.1f} ms at host slowness "
            f"{wall_ms / normalised_ms:.2f} = {normalised_ms:.1f} normalised ms"
        )
        if best is None or normalised_ms < best[2]:
            best = run
    report, _, best_ms = best

    record_platform_entry(record_bench_entry, ENTRY, *best)
    game_ok = check_game_eval_ratio(args.min_eval_ratio)
    events_ok = check_events_disabled_overhead(
        instance, report, args.threshold, args.rounds
    )
    counters_ok = game_ok and events_ok
    if baseline_ms is None:
        print(
            f"no committed baseline for {ENTRY!r}; recorded {best_ms:.1f} "
            "normalised ms"
        )
        return 0 if counters_ok else 1

    limit_ms = baseline_ms * args.threshold
    wall_ok = best_ms <= limit_ms
    verdict = "PASS" if wall_ok else "FAIL"
    print(
        f"{verdict}: {best_ms:.1f} normalised ms vs baseline {baseline_ms:.1f} "
        f"(limit {limit_ms:.1f} = x{args.threshold})"
    )
    return 0 if (wall_ok and counters_ok) else 1


if __name__ == "__main__":
    sys.exit(main())
