#!/usr/bin/env python
"""Perf-regression gate over the engine micro-benchmark.

Six checks, one exit code (check 4, the columnar pair-eval ratio, went
with the columnar kernels; the other numbers are kept so references to
them stay valid):

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
2. **Road-network settled-ratio gate** — answers the ``bench_roadnet``
   64x64 batch workload through the contraction-hierarchy
   ``distance_table`` kernel, asserts the floats are bit-identical to full
   per-pair Dijkstra, and requires the table to settle at least 5x fewer
   nodes than the derived per-pair baseline (``|pairs| x settled-per-full
   run`` — exact, no need to run all 288 searches).  Counter arithmetic
   only; wall-clock is recorded but never gated on.
3. **Game evaluation-ratio gate** — runs the incremental best-response
   engine once on the 500x500 ``bench_game`` workload and derives the naive
   loop's cost exactly (``rounds x sum_w |S_w|`` — the identity
   ``bench_game`` pins) without running it.  The ratio of derived-naive
   ``task_value`` computations to the engine's measured
   ``value_recomputes`` counter must stay >= 5x.  Being pure counter
   arithmetic, this check is deterministic on 1-CPU hosts: a regression in
   the dirty-set scheduler or the value cache fails CI regardless of
   machine speed or load.
5. **Shard scale-out gate** — reruns both ``bench_shard`` workloads.  On
   the boundary-free arrival-heavy workload the sharded report must match
   the unsharded run while the busiest shard settles at least 4x less
   feasibility work than the unsharded total; both runs' wall times are
   recorded beside the ratio.  On the bordered long-wait workload the
   border reconcile must stay under 10% of phase-1 settles and total
   score within 0.9x of the unsharded solution.  Counter arithmetic
   only — deterministic on 1-CPU hosts.
6. **Events-disabled overhead gate** — reruns the same platform workload
   with an explicitly *disabled* ``EventJournal`` threaded through the
   platform/engine/allocator hot paths, asserts the journal records
   nothing and the report is bit-identical to the journal-free run, and
   holds the wall-clock to ``--threshold`` times the journal-free run of
   the same workload, measured A/B in this process (alternating rounds,
   best of ``--rounds`` each side).  This pins the flight recorder's
   zero-cost-when-off contract: the ``if journal.enabled`` guards must
   never grow real work on the disabled path.
7. **Warm-matching gate** — runs the ``bench_warm_matching``
   repeated-staffing workload with the match memo on and off: the memo
   must replay repeated staffing queries (``matching_warm_starts`` > 0)
   with identical solutions and strictly fewer ``matching_augment_rounds``
   than the cold solver.  Counter arithmetic only — deterministic on
   1-CPU hosts.

Exit codes: 0 all pass (or no baseline yet for the wall gate), 1 any fail.

Usage::

    PYTHONPATH=src python benchmarks/check_perf_gate.py [--threshold 1.25]
        [--min-eval-ratio 5.0] [--min-settled-ratio 5.0]
        [--min-shard-ratio 4.0]
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
ROADNET_ENTRY = "roadnet_settled_gate"
EVENTS_ENTRY = "events_disabled_gate"
SHARD_ENTRY = "shard_scaleout_gate"
#: The warm-matching gate keeps the entry name it had when it rode along
#: with the removed column-store gate, so its history stays one series.
MATCHING_ENTRY = "store_scale_gate"
ROUNDS = 3
MIN_EVAL_RATIO = 5.0
MIN_SETTLED_RATIO = 5.0
MIN_SHARD_RATIO = 4.0


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


def check_roadnet_settled_ratio(min_ratio: float) -> bool:
    """Counter-only gate on the CH table kernel's settling savings."""
    import math

    from bench_roadnet import (
        ROADNET_CONFIG,
        make_network,
        run_per_pair_baseline,
        run_table,
        workload,
    )

    plain = make_network(accelerate=False)
    accel = make_network(accelerate=True)
    sources, targets = workload(plain)
    full, naive_settled, _ = run_per_pair_baseline(plain, sources, targets)
    table, table_settled, wall_ms = run_table(accel, sources, targets)

    truth = {
        (s, t): (0.0 if s == t else full[s].get(t, math.inf))
        for s in sources
        for t in targets
    }
    if table != truth:  # exactness is a precondition of the perf claim
        print("FAIL: roadnet table floats diverge from per-pair Dijkstra")
        return False

    ratio = naive_settled / max(table_settled, 1)
    record_bench_entry(
        ROADNET_ENTRY,
        dict(ROADNET_CONFIG, min_settled_ratio=min_ratio),
        wall_ms,
        {
            "pairs": len(truth),
            "shortcuts": accel.shortcuts,
            "table_settled": table_settled,
            "derived_per_pair_settled": naive_settled,
            "settled_ratio": round(ratio, 3),
        },
    )
    ok = ratio >= min_ratio
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: roadnet settled ratio {ratio:.2f}x "
        f"({naive_settled} derived per-pair settles vs {table_settled} "
        f"table; floor x{min_ratio})"
    )
    return ok


def check_game_eval_ratio(min_ratio: float) -> bool:
    """Counter-only gate on the incremental game engine's savings."""
    from bench_game import GAME_CONFIG, make_game_instance, run_game, strategy_size

    instance = make_game_instance()
    outcome, wall_ms = run_game(instance)
    # The naive loop evaluates (and walks the graph for) every strategy of
    # every worker each round — derived exactly, no need to run it.
    naive_evals = outcome.stats["rounds"] * strategy_size(instance)
    recomputes = max(outcome.stats["value_recomputes"], 1.0)
    ratio = naive_evals / recomputes
    record_bench_entry(
        GAME_ENTRY,
        dict(GAME_CONFIG, min_eval_ratio=min_ratio),
        wall_ms,
        {
            "rounds": outcome.stats["rounds"],
            "value_recomputes": outcome.stats["value_recomputes"],
            "cache_hits": outcome.stats["cache_hits"],
            "skipped_workers": outcome.stats["skipped_workers"],
            "derived_naive_evaluations": naive_evals,
            "eval_ratio": round(ratio, 3),
        },
    )
    ok = ratio >= min_ratio
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: game eval ratio {ratio:.2f}x "
        f"({naive_evals:.0f} derived-naive task values vs "
        f"{outcome.stats['value_recomputes']:.0f} computed; floor x{min_ratio})"
    )
    return ok


def check_shard_scaleout(min_ratio: float) -> bool:
    """Counter-only gate on the sharded engine's scale-out contract."""
    from bench_shard import (
        BORDERED_CONFIG,
        MAX_RECONCILE_OVERHEAD,
        MIN_QUALITY_RATIO,
        N_SHARDS,
        SHARD_CONFIG,
        _assert_reports_identical,
        make_bordered_instance,
        make_shard_instance,
        per_shard_settled,
        run_shard_workload,
        settled_work,
    )

    instance = make_shard_instance()
    platform, sharded_report, wall_ms = run_shard_workload(instance, shards=N_SHARDS)
    _, flat_report, flat_ms = run_shard_workload(instance)
    try:  # report identity is a precondition of the perf claim
        _assert_reports_identical(sharded_report, flat_report)
    except AssertionError:
        print("FAIL: boundary-free sharded report diverges from the unsharded run")
        return False
    densest = max(per_shard_settled(platform))
    flat_settled = settled_work(flat_report.engine_stats)
    ratio = flat_settled / max(densest, 1)

    bordered = make_bordered_instance()
    bordered_platform, part_report, _ = run_shard_workload(bordered, shards=N_SHARDS)
    _, bordered_flat, _ = run_shard_workload(bordered)
    registry = bordered_platform.metrics_registry
    border = registry.counter("shard_border_workers").value
    reconcile_pairs = registry.counter("shard_reconcile_pairs").value
    phase1 = sum(per_shard_settled(bordered_platform))
    overhead = reconcile_pairs / max(phase1, 1)
    quality = part_report.total_score / max(bordered_flat.total_score, 1)

    record_bench_entry(
        SHARD_ENTRY,
        dict(
            SHARD_CONFIG,
            bordered=BORDERED_CONFIG["instance"],
            min_settled_ratio=min_ratio,
            max_reconcile_overhead=MAX_RECONCILE_OVERHEAD,
            min_quality_ratio=MIN_QUALITY_RATIO,
        ),
        wall_ms,
        {
            "densest_shard_settled": densest,
            "unsharded_settled": flat_settled,
            "settled_ratio": round(ratio, 3),
            "unsharded_wall_ms": round(flat_ms, 3),
            "border_workers": border,
            "reconcile_overhead": round(overhead, 4),
            "quality_ratio": round(quality, 4),
            "dep_retry_assigned": registry.counter("shard_dep_retry_assigned").value,
        },
    )
    ratio_ok = ratio >= min_ratio
    overhead_ok = border > 0 and overhead < MAX_RECONCILE_OVERHEAD
    quality_ok = quality >= MIN_QUALITY_RATIO
    ok = ratio_ok and overhead_ok and quality_ok
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: shard settled ratio {ratio:.2f}x "
        f"({flat_settled:.0f} unsharded vs {densest:.0f} densest shard; "
        f"floor x{min_ratio}), reconcile overhead {overhead:.1%} "
        f"(limit {MAX_RECONCILE_OVERHEAD:.0%}, border={border:.0f}), "
        f"quality {quality:.3f} (floor {MIN_QUALITY_RATIO})"
    )
    return ok


def check_warm_matching() -> bool:
    """Counter-only gate on the match memo's warm-start parity and savings."""
    from bench_warm_matching import run_matching_workload

    started = time.perf_counter()
    warm_results, warm = run_matching_workload(True)
    cold_results, cold = run_matching_workload(False)
    wall_ms = (time.perf_counter() - started) * 1000.0
    if warm_results != cold_results:
        print("FAIL: warm-start matching solutions diverge from cold solves")
        return False
    warm_rounds = warm["matching_augment_rounds"]
    cold_rounds = cold["matching_augment_rounds"]
    round_ratio = cold_rounds / max(warm_rounds, 1)

    record_bench_entry(
        MATCHING_ENTRY,
        {"workload": "hall+feasible sets x 25 rounds", "method": "hungarian"},
        wall_ms,
        {
            "matching_warm_starts": warm["matching_warm_starts"],
            "warm_augment_rounds": warm_rounds,
            "cold_augment_rounds": cold_rounds,
            "augment_round_ratio": round(round_ratio, 3),
        },
    )
    ok = warm["matching_warm_starts"] > 0 and warm_rounds < cold_rounds
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: warm matching {warm_rounds:.0f} augment rounds vs "
        f"{cold_rounds:.0f} cold (x{round_ratio:.1f}, "
        f"{warm['matching_warm_starts']:.0f} replays)"
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
    parser.add_argument(
        "--min-settled-ratio",
        type=float,
        default=MIN_SETTLED_RATIO,
        help="fail when the roadnet table settles more than per-pair/THIS "
        f"nodes (default {MIN_SETTLED_RATIO}; deterministic, no wall-clock)",
    )
    parser.add_argument(
        "--min-shard-ratio",
        type=float,
        default=MIN_SHARD_RATIO,
        help="fail when the densest shard settles more than unsharded/THIS "
        f"feasibility work (default {MIN_SHARD_RATIO}; deterministic, "
        "no wall-clock)",
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
    roadnet_ok = check_roadnet_settled_ratio(args.min_settled_ratio)
    game_ok = check_game_eval_ratio(args.min_eval_ratio)
    shard_ok = check_shard_scaleout(args.min_shard_ratio)
    matching_ok = check_warm_matching()
    events_ok = check_events_disabled_overhead(
        instance, report, args.threshold, args.rounds
    )
    counters_ok = (
        roadnet_ok
        and game_ok
        and shard_ok
        and matching_ok
        and events_ok
    )
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
